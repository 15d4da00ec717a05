#include "host.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <thread>

#include "cbir/index.hh"
#include "cbir/rerank.hh"
#include "checks.hh"
#include "core/cosim.hh"
#include "workload/dataset.hh"

namespace perfbench
{

namespace cbir = reach::cbir;

namespace
{

/** Rows [first, first + count) of @p m as their own matrix. */
cbir::Matrix
rows(const cbir::Matrix &m, std::size_t first, std::size_t count)
{
    cbir::Matrix out(count, m.cols());
    for (std::size_t r = 0; r < count; ++r) {
        auto src = m.row(first + r);
        std::copy(src.begin(), src.end(), out.row(r).begin());
    }
    return out;
}

std::vector<cbir::Matrix>
splitBatches(const cbir::Matrix &all, std::size_t batch)
{
    std::vector<cbir::Matrix> out;
    for (std::size_t r = 0; r + batch <= all.rows(); r += batch)
        out.push_back(rows(all, r, batch));
    return out;
}

/** Distinct timed queries, cycled in whole passes. */
constexpr std::size_t kPoolQueries = 4096;
/** Held-out queries scored against the double brute force. */
constexpr std::size_t kHeldOutQueries = 512;
/** Perturbation of the dataset vector each query starts from. */
constexpr double kQueryNoise = 0.1;
/** PQ pool batches (evenly spaced) checked at refine >= budget. */
constexpr std::size_t kRefineCheckBatches = 4;
constexpr unsigned kBruteForceThreads = 3;

struct BatchOut
{
    cbir::ShortLists lists;
    cbir::RerankResults results;
    double totalS = 0, shortlistS = 0, rerankS = 0;
};

} // namespace

HostSeeds
hostSeeds(std::uint64_t seed)
{
    return {deriveSeed(seed, 1), deriveSeed(seed, 2), deriveSeed(seed, 3),
            deriveSeed(seed, 4), deriveSeed(seed, 5)};
}

void
runHostPhase(const HostSpec &spec, const HostSeeds &seeds,
             double budget_s, Tracer &tracer, Tally &tally,
             std::vector<Metric> &e2e, std::vector<Metric> &layers)
{
    // The retrieval knobs a CbirService user gets by default; the
    // benchmark pins one thread and its own seeds.
    const reach::core::CbirService::Config defaults;
    const reach::parallel::ParallelConfig par{1};
    const std::size_t k = defaults.topK;
    const std::size_t nprobe = defaults.nprobe;
    const std::size_t budget = defaults.maxCandidates;

    reach::workload::DatasetConfig dc = defaults.dataset;
    dc.seed = seeds.dataset;
    dc.numVectors = static_cast<std::size_t>(
        static_cast<double>(dc.numVectors) * spec.indexFraction);
    Timed t_ds(tracer, "workload.Dataset", 0);
    reach::workload::Dataset ds(dc);
    const double dataset_s = t_ds.stop();

    cbir::KMeansConfig km = defaults.kmeans;
    km.seed = seeds.kmeans;
    km.parallel = par;
    km.clusters = static_cast<std::size_t>(
        static_cast<double>(km.clusters) * spec.indexFraction);
    Timed t_ix(tracer, "cbir.InvertedFileIndex", 0);
    cbir::InvertedFileIndex index(ds.vectors(), km);
    const double index_s = t_ix.stop();

    double pq_s = 0;
    if (spec.pq.enabled) {
        cbir::PqConfig pc = spec.pq;
        pc.seed = seeds.pq;
        Timed t_pq(tracer, "cbir.buildPq", 0);
        index.buildPq(ds.vectors(), pc, par);
        pq_s = t_pq.stop();
    }
    const cbir::Matrix &db = ds.vectors();

    auto draw = [&](std::size_t count, std::uint64_t seed) {
        return spec.zipfS > 0
                   ? ds.makeQueriesZipf(count, kQueryNoise, seed,
                                        spec.zipfS)
                   : ds.makeQueries(count, kQueryNoise, seed);
    };
    const std::vector<cbir::Matrix> pool =
        splitBatches(draw(kPoolQueries, seeds.queries), spec.batch);
    const std::vector<cbir::Matrix> held =
        splitBatches(draw(kHeldOutQueries, seeds.heldOut),
                     spec.batch);

    cbir::RerankConfig rc;
    rc.k = k;
    rc.maxCandidates = budget;
    rc.parallel = par;
    rc.usePq = spec.pq.enabled;
    rc.pqRefine = spec.pq.refine;
    rc.batchedScan = spec.batchedRerank;

    auto call = [&](const cbir::Matrix &qb, std::uint64_t id) {
        BatchOut out;
        Timed whole(tracer, "host.batch", id);
        Timed sl(tracer, "cbir.shortlistRetrieve", id, whole.span());
        out.lists = cbir::shortlistRetrieve(qb, index, nprobe, par,
                                            spec.precision);
        out.shortlistS = sl.stop();
        Timed rr(tracer, "cbir.rerank", id, whole.span());
        out.results = cbir::rerank(qb, db, index, out.lists, rc);
        out.rerankS = rr.stop();
        out.totalS = whole.stop();
        return out;
    };

    const double sl_tol = spec.precision == cbir::ShortlistPrecision::Fp16
                              ? kFp16Tol
                              : kDistTol;
    const std::size_t row_bytes = spec.pq.enabled
                                      ? index.pqCodebook().codeBytes()
                                      : db.cols() * sizeof(float);

    // Warm-up pass: every output checked against the benchmark's own
    // computations; the answers become the reference later passes must
    // reproduce bit for bit.
    const double warm_start = now();
    std::vector<BatchOut> ref;
    double candidates = 0, distinct = 0, code_bytes = 0;
    const std::size_t refine_every =
        std::max<std::size_t>(1, pool.size() / kRefineCheckBatches);
    for (std::size_t b = 0; b < pool.size(); ++b) {
        const cbir::Matrix &qb = pool[b];
        BatchOut out = call(qb, b);
        std::string problem;
        std::map<std::uint32_t, std::size_t> take;
        std::vector<std::vector<std::uint32_t>> cands(qb.rows());
        for (std::size_t q = 0; q < qb.rows() && problem.empty(); ++q) {
            cands[q] = rebuildCandidates(index, out.lists[q], budget);
            candidates += static_cast<double>(cands[q].size());
            std::size_t left = cands[q].size();
            for (std::uint32_t c : out.lists[q]) {
                std::size_t n = std::min(left, index.cluster(c).size());
                take[c] = std::max(take[c], n);
                left -= n;
            }
            problem = checkShortlist(out.lists[q], qb.row(q),
                                     index.centroids(), nprobe, sl_tol);
            if (problem.empty())
                problem = checkAnswer(out.results[q], qb.row(q), db, k);
            if (problem.empty() && !spec.pq.enabled)
                problem = checkExactTopK(out.results[q], qb.row(q), db,
                                         cands[q], k);
        }
        if (problem.empty() && spec.pq.enabled && b % refine_every == 0) {
            cbir::RerankConfig full = rc;
            full.pqRefine = budget;
            cbir::RerankResults exact =
                cbir::rerank(qb, db, index, out.lists, full);
            for (std::size_t q = 0; q < qb.rows() && problem.empty(); ++q)
                problem = checkExactTopK(exact[q], qb.row(q), db,
                                         cands[q], k);
            if (!problem.empty())
                problem = "refine >= budget: " + problem;
        }
        tally.record(problem.empty() ? ""
                                     : "batch " + std::to_string(b) +
                                           ": " + problem);
        distinct += static_cast<double>(take.size());
        for (const auto &[c, n] : take)
            code_bytes += static_cast<double>(n * row_bytes);
        ref.push_back(std::move(out));
    }
    const double pool_queries =
        static_cast<double>(pool.size() * spec.batch);

    // Timed passes: whole passes over the pool until the budget is
    // spent; each batch must reproduce its checked reference.
    const double warm_s = now() - warm_start;
    std::vector<double> total_ms, sl_ms, rr_ms, unacc_ms, pass_qps;
    double rerank_s = 0;
    std::size_t timed = 0;
    const double start = now();
    for (std::size_t pass = 1; pass == 1 || now() - start < budget_s;
         ++pass) {
        double pass_s = 0;
        for (std::size_t b = 0; b < pool.size(); ++b) {
            BatchOut out = call(pool[b], pass * pool.size() + b);
            bool same = out.lists == ref[b].lists &&
                        out.results == ref[b].results;
            tally.record(same ? ""
                              : "batch " + std::to_string(b) +
                                    " differs from its checked answer");
            total_ms.push_back(out.totalS * 1e3);
            sl_ms.push_back(out.shortlistS * 1e3);
            rr_ms.push_back(out.rerankS * 1e3);
            unacc_ms.push_back(
                (out.totalS - out.shortlistS - out.rerankS) * 1e3);
            pass_s += out.totalS;
            rerank_s += out.rerankS;
            ++timed;
        }
        pass_qps.push_back(pool_queries / pass_s);
    }

    const double timed_s = now() - start;

    // Held-out queries: recall against the double brute force, which
    // is check work and runs on a few threads of its own.
    const double held_start = now();
    std::vector<std::vector<std::uint32_t>> truth(held.size() *
                                                  spec.batch);
    {
        std::vector<std::thread> workers;
        for (unsigned t = 0; t < kBruteForceThreads; ++t) {
            workers.emplace_back([&, t] {
                for (std::size_t i = t; i < truth.size();
                     i += kBruteForceThreads)
                    truth[i] = bruteForceIds(
                        held[i / spec.batch].row(i % spec.batch), db, k);
            });
        }
        for (std::thread &w : workers)
            w.join();
    }
    double recall = 0;
    for (std::size_t b = 0; b < held.size(); ++b) {
        BatchOut out = call(held[b], ~std::uint64_t(0) - b);
        std::string problem;
        for (std::size_t q = 0; q < held[b].rows(); ++q) {
            if (problem.empty())
                problem = checkAnswer(out.results[q], held[b].row(q), db,
                                      k);
            recall += recallOf(out.results[q], truth[b * spec.batch + q]);
        }
        tally.record(problem.empty() ? ""
                                     : "held-out batch " +
                                           std::to_string(b) + ": " +
                                           problem);
    }
    recall /= static_cast<double>(held.size() * spec.batch);
    std::printf("# host phase: set-up %.2f s, checked warm pass %.2f s, "
                "timed passes %.2f s (%zu batches), held-out %.2f s\n",
                dataset_s + index_s + pq_s, warm_s, timed_s, timed,
                now() - held_start);

    const double timed_candidates =
        candidates * static_cast<double>(timed) /
        static_cast<double>(pool.size());
    const double cand_per_query = candidates / pool_queries;
    const double exact_rows =
        spec.pq.enabled
            ? std::min<double>(cand_per_query,
                               static_cast<double>(
                                   std::max<std::size_t>(k, spec.pq.refine)))
            : cand_per_query;

    // Median over whole passes: a pass that a neighbour on the host
    // slowed down does not move it.
    e2e.push_back({"qps", median(pass_qps), "1/s"});
    e2e.push_back({"batch_p50_ms", percentile(total_ms, 50), "ms"});
    e2e.push_back({"batch_p90_ms", percentile(total_ms, 90), "ms"});
    e2e.push_back({"recall_at_10", recall, "fraction"});
    e2e.push_back({"setup_s", dataset_s + index_s + pq_s, "s"});

    layers.push_back({"workload.dataset_s", dataset_s, "s"});
    layers.push_back({"cbir.index_build_s", index_s, "s"});
    layers.push_back({"cbir.pq_build_s", pq_s, "s"});
    layers.push_back({"cbir.shortlist_ms", median(sl_ms), "ms"});
    layers.push_back(
        {"cbir.scan_kb_per_query",
         static_cast<double>(index.numClusters() * db.cols() *
                             cbir::centroidBytesPerDim(spec.precision)) /
             1024.0,
         "KB"});
    layers.push_back({"cbir.rerank_ms", median(rr_ms), "ms"});
    layers.push_back({"cbir.candidates_per_query", cand_per_query, "count"});
    layers.push_back({"cbir.exact_rows_per_query", exact_rows, "count"});
    layers.push_back({"cbir.rerank_ns_per_candidate",
                      rerank_s / timed_candidates * 1e9, "ns"});
    layers.push_back({"cbir.distinct_clusters_per_batch",
                      distinct / static_cast<double>(pool.size()),
                      "count"});
    layers.push_back({"cbir.code_kb_per_batch",
                      code_bytes / static_cast<double>(pool.size()) /
                          1024.0,
                      "KB"});
    layers.push_back({"cbir.code_kb_per_batch_query_major",
                      cand_per_query * spec.batch *
                          static_cast<double>(row_bytes) / 1024.0,
                      "KB"});
    layers.push_back({"cbir.unaccounted_ms", median(unacc_ms), "ms"});
}

} // namespace perfbench
