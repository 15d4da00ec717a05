/**
 * @file
 * The host retrieval phase: build the engine from its public pieces
 * (dataset, IVF index, optional PQ codes), then drive one closed-loop
 * caller through shortlistRetrieve + rerank over a fixed pool of
 * query batches, with every output checked apart from the program.
 */

#ifndef REACH_PERFBENCH_HOST_HH
#define REACH_PERFBENCH_HOST_HH

#include <cstdint>
#include <vector>

#include "bench.hh"
#include "cbir/pq.hh"
#include "cbir/shortlist.hh"

namespace perfbench
{

struct HostSpec
{
    std::uint32_t batch = 16;
    /** Zipf exponent over latent topics; 0 draws uniform queries. */
    double zipfS = 0;
    reach::cbir::ShortlistPrecision precision =
        reach::cbir::ShortlistPrecision::Fp32;
    /** PQ rerank when pq.enabled. */
    reach::cbir::PqConfig pq{};
    bool batchedRerank = false;
    /** Share of the default dataset size and cluster count. */
    double indexFraction = 1.0;
};

struct HostSeeds
{
    std::uint64_t dataset = 0, kmeans = 0, pq = 0, queries = 0,
                  heldOut = 0;
};

HostSeeds hostSeeds(std::uint64_t seed);

/**
 * Set up, warm and check one pass, then run whole timed passes until
 * @p budget_s has elapsed (at least one), then score the held-out
 * queries. Appends the host end-to-end and per-layer metrics.
 */
void runHostPhase(const HostSpec &spec, const HostSeeds &seeds,
                  double budget_s, Tracer &tracer, Tally &tally,
                  std::vector<Metric> &e2e, std::vector<Metric> &layers);

} // namespace perfbench

#endif // REACH_PERFBENCH_HOST_HH
