/**
 * @file
 * The simulated ReACH phase: the paper's four-mapping closed-loop
 * comparison (fig13's configuration: one single-batch latency run and
 * one 12-batch throughput run per mapping, each on a fresh machine)
 * plus an open-loop Poisson QueryService stream on the ReACH mapping
 * at a fixed share of its closed-loop capacity. One such round is the
 * unit of timed work; machine construction is part of it.
 */

#ifndef REACH_PERFBENCH_MODEL_HH
#define REACH_PERFBENCH_MODEL_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hh"
#include "cbir/workload_model.hh"

namespace perfbench
{

/** The paper's headline ratios of ReACH against on-chip only. */
constexpr double kPaperThroughputGain = 4.5;
constexpr double kPaperLatencyGain = 2.2;
constexpr double kPaperEnergyReduction = 0.52;
/** Largest relative distance from each paper ratio that passes. */
constexpr double kPaperTolerance = 0.25;

struct ModelSpec
{
    reach::cbir::ScaleConfig scale{};
    /** Check the headline ratios against the paper (fig13 scale). */
    bool paperScale = true;
    /** Enough completed requests for ten beyond the p99. */
    std::uint64_t streamRequests = 1000;
    std::uint64_t arrivalSeed = 1;
};

/** Simulated outputs of one round; identical in every round. */
struct ModelOutputs
{
    /** Per mapping (on-chip, near-mem, near-stor, ReACH). */
    std::array<double, 4> qps{};
    std::array<double, 4> latencyMs{};
    std::array<double, 4> energyJ{};
    /** ReACH throughput run, per component (EnergyBreakdown order). */
    std::vector<double> reachEnergyJ;
    double reachQueries = 0;

    /** Closed-loop batches that did not complete. */
    std::int64_t closedLoopShort = 0;
    /** The open-loop stream's request accounting. */
    std::uint64_t submitted = 0, completed = 0, failed = 0, shed = 0;
    double p50Ms = 0, p99Ms = 0, maxMs = 0;

    double gamTasks = 0, gamPolls = 0, gamDmaBytes = 0;
    double gamQueueWaitMs = 0;
    double dramBytes = 0, cacheBytes = 0;
    double linkBytes = 0, linkBusyMs = 0, ssdReadBytes = 0;
    /** Accelerator busy time by level: on-chip, near-mem, near-stor, cpu. */
    std::array<double, 4> accBusyMs{};

    /** Simulated queries completed in the round. */
    double simulatedQueries = 0;

    bool operator==(const ModelOutputs &) const = default;
};

/** Host time of one round, by layer. */
struct ModelHostTimes
{
    double roundS = 0;
    std::vector<double> buildS;
    std::array<double, 4> runS{};
    double serviceS = 0;
};

/** Run one round and check its outputs into @p tally. */
ModelOutputs runModelRound(const ModelSpec &spec, std::uint64_t round,
                           Tracer &tracer, ModelHostTimes &host,
                           Tally &tally);

/** Problems with one round's outputs (empty when all checks pass). */
std::string checkModelOutputs(const ModelOutputs &out,
                              const ModelSpec &spec);

double paperErrorPct(const ModelOutputs &out);

struct ModelPhase
{
    ModelOutputs outputs;
    std::vector<ModelHostTimes> rounds;
};

/**
 * Rounds until @p budget_s of host time is spent (at least
 * @p min_rounds). Every round after the first must reproduce the
 * first bit for bit.
 */
ModelPhase runModelPhase(const ModelSpec &spec, double budget_s,
                         std::size_t min_rounds, Tracer &tracer,
                         Tally &tally);

void addModelMetrics(const ModelPhase &phase, std::vector<Metric> &e2e,
                     std::vector<Metric> &layers);

} // namespace perfbench

#endif // REACH_PERFBENCH_MODEL_HH
