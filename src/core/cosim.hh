/**
 * @file
 * Functional + timing co-simulation.
 *
 * CbirService is a working retrieval engine at sampled scale: it
 * owns a dataset, builds the IVF index offline, and answers queries
 * exactly (shortlist + exact rerank). CoSimulation pairs such a
 * service with a ReACH deployment so each query batch produces both
 * the *answers* (from the functional layer) and the *latency/energy*
 * the batch would cost on the billion-scale hierarchy (from the
 * timing layer) — the two-resolution methodology DESIGN.md describes,
 * packaged behind one call.
 */

#ifndef REACH_CORE_COSIM_HH
#define REACH_CORE_COSIM_HH

#include <memory>
#include <optional>

#include "cbir/rerank.hh"
#include "cbir/shortlist.hh"
#include "core/cbir_deployment.hh"
#include "parallel/parallel.hh"
#include "workload/dataset.hh"

namespace reach::core
{

/** A functional CBIR engine at sampled scale. */
class CbirService
{
  public:
    struct Config
    {
        workload::DatasetConfig dataset{};
        cbir::KMeansConfig kmeans{};
        std::uint32_t nprobe = 8;
        std::uint32_t topK = 10;
        std::size_t maxCandidates = 4096;
        /**
         * Numeric format of the shortlist centroid scan. Fp16 streams
         * the index's packed half-precision centroids (half the scan
         * bytes, small recall cost); CoSimulation derives the timing
         * model's centroidBytesPerDim from this knob so the byte
         * model can never disagree with the functional path.
         */
        cbir::ShortlistPrecision shortlistPrecision =
            cbir::ShortlistPrecision::Fp32;
        /**
         * Product-quantized rerank: when enabled, the index stores
         * pq.m-byte codes per cluster and query() ranks candidates by
         * ADC, exact-refining the top pq.refine. Validated against
         * the dataset dimensionality at construction (sim::fatal).
         */
        cbir::PqConfig pq{};
        /**
         * Host-side thread budget and SIMD backend for the
         * functional kernels (index build, shortlist GEMM, rerank,
         * ground truth). Flows down into every kernel invocation; 1
         * thread reproduces the serial path and the default uses
         * every hardware core — results are identical either way for
         * a fixed backend. parallel.simd (or the REACH_SIMD env var)
         * pins scalar/avx2 for cross-host reproducibility.
         */
        parallel::ParallelConfig parallel{};
    };

    explicit CbirService(const Config &cfg);

    /** Answer a batch of queries (rows = query vectors). */
    cbir::RerankResults query(const cbir::Matrix &queries) const;

    /**
     * Recall@topK over @p num_queries perturbed dataset vectors,
     * against exhaustive ground truth.
     */
    double measureRecall(std::size_t num_queries, double noise,
                         std::uint64_t seed) const;

    const workload::Dataset &dataset() const { return data; }
    const cbir::InvertedFileIndex &index() const { return ivf; }
    const Config &config() const { return cfg; }

  private:
    Config cfg;
    workload::Dataset data;
    cbir::InvertedFileIndex ivf;
};

/** One co-simulated batch: answers plus simulated cost. */
struct CoSimBatch
{
    cbir::RerankResults results;
    /** Simulated submit-to-complete latency of the batch. */
    sim::Tick latency = 0;
    /** Simulated energy consumed by the machine over the batch. */
    double energyJoules = 0;
    /**
     * False when the simulated machine gave up on the batch (fault
     * recovery budget exhausted). The functional answers above are
     * still exact; a real deployment would have to re-issue the
     * batch, so charge `latency` as the time wasted discovering the
     * failure.
     */
    bool timingCompleted = true;
};

class CoSimulation
{
  public:
    /**
     * @param service_cfg  Functional engine (sampled scale).
     * @param timing_scale Billion-scale parameters for the timing
     *                     model; batchSize must match the batches
     *                     passed to processBatch. Its pq block is
     *                     overwritten with service_cfg.pq so the
     *                     timing traffic always matches the
     *                     functional mode.
     * @param mapping      Stage-to-level assignment.
     * @param system_cfg   Machine configuration for the timing layer
     *                     (fault plan, instance counts, ...). Its
     *                     aimUsesHbm flag is overwritten from
     *                     timing_scale.shortlistPlacement so the AIM
     *                     links match the modeled scan medium.
     *
     * timing_scale.centroidBytesPerDim is likewise overwritten from
     * service_cfg.shortlistPrecision, so the scan bytes the timing
     * layer streams always match the functional precision.
     */
    CoSimulation(const CbirService::Config &service_cfg,
                 const cbir::ScaleConfig &timing_scale,
                 Mapping mapping, const SystemConfig &system_cfg = {});

    /**
     * Answer @p queries functionally and charge one batch through
     * the simulated hierarchy.
     */
    CoSimBatch processBatch(const cbir::Matrix &queries);

    const CbirService &service() const { return svc; }
    ReachSystem &system() { return *sys; }
    std::uint32_t batchesProcessed() const { return batches; }

    /**
     * The effective timing scale after the service-config overrides
     * (pq block, centroidBytesPerDim) — what the byte model actually
     * streams, for tests asserting the two layers cannot drift.
     */
    const cbir::ScaleConfig &scale() const { return model.scale(); }

  private:
    CbirService svc;
    cbir::CbirWorkloadModel model;
    std::unique_ptr<ReachSystem> sys;
    std::unique_ptr<CbirDeployment> deployment;
    std::uint32_t batches = 0;
    double lastEnergy = 0;
};

} // namespace reach::core

#endif // REACH_CORE_COSIM_HH
