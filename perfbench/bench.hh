/**
 * @file
 * Shared pieces of the benchmark harness: wall-clock spans (kept in
 * memory and written as Chrome trace-event JSON when tracing is on),
 * named metrics, the nearest-rank percentile, seed derivation and the
 * operation tally every check reports into.
 */

#ifndef REACH_PERFBENCH_BENCH_HH
#define REACH_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Seconds on the monotonic clock. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Independent 64-bit seed for input stream @p stream of run @p seed. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

/**
 * Nearest-rank percentile of @p values (0 < p <= 100): the smallest
 * value with at least p% of the samples at or below it. Sorts a copy.
 */
double percentile(std::vector<double> values, double p);

double median(const std::vector<double> &values);

/** Records spans around calls into the program's layers. */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0;
        double end = 0;
        /** Index of the enclosing span, -1 for a root. */
        int parent = -1;
        /** Batch, round or request id the span belongs to. */
        std::uint64_t id = 0;
    };

    explicit Tracer(bool enabled) : on(enabled), origin(now()) {}

    /** Open a span; returns its handle (-1 when tracing is off). */
    int begin(const std::string &name, std::uint64_t id,
              int parent = -1);
    /** Close span @p handle at time @p t. */
    void end(int handle, double t);

    const std::vector<Span> &spans() const { return all; }

    /** Write every span as Chrome trace-event JSON. */
    bool writeChromeTrace(const std::string &path) const;

    /**
     * Self time per span name: each span's duration minus the part
     * its direct children cover, summed by name, in seconds.
     */
    std::vector<std::pair<std::string, double>> selfTimes() const;

  private:
    bool on;
    double origin;
    std::vector<Span> all;
};

/**
 * Times one call from outside and, with tracing on, records it as a
 * span.
 */
class Timed
{
  public:
    Timed(Tracer &tracer, const std::string &name, std::uint64_t id,
          int parent = -1)
        : tr(tracer), handle(tracer.begin(name, id, parent)),
          t0(now())
    {}

    /** Handle for child spans (-1 when tracing is off). */
    int span() const { return handle; }

    double
    stop()
    {
        double t = now();
        tr.end(handle, t);
        return t - t0;
    }

  private:
    Tracer &tr;
    int handle;
    double t0;
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Checked operations: every check failure counts one failed op. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** First few failure messages, for the report. */
    std::vector<std::string> messages;

    /** Count one operation; @p problem empty means it passed. */
    void record(const std::string &problem);
};

} // namespace perfbench

#endif // REACH_PERFBENCH_BENCH_HH
