#include "rerank.hh"

#include <algorithm>
#include <unordered_set>

#include "sim/logging.hh"
#include "simd/aligned.hh"
#include "simd/simd.hh"

namespace reach::cbir
{

namespace
{

/**
 * The K nearest of @p cands via a bounded max-heap scan: O(n log k)
 * instead of the O(n log n)-ish partial sort, and no mutation of the
 * candidate buffer. The (distSq, id) order is total, so the selected
 * set and its order are independent of the scan order.
 */
bool
better(const Neighbor &a, const Neighbor &b)
{
    if (a.distSq != b.distSq)
        return a.distSq < b.distSq;
    return a.id < b.id;
}

std::vector<Neighbor>
selectK(const std::vector<Neighbor> &cands, std::size_t k)
{
    k = std::min(k, cands.size());
    if (k == 0)
        return {};
    std::vector<Neighbor> heap(
        cands.begin(), cands.begin() + static_cast<std::ptrdiff_t>(k));
    std::make_heap(heap.begin(), heap.end(), better);
    for (std::size_t i = k; i < cands.size(); ++i) {
        if (better(cands[i], heap.front())) {
            std::pop_heap(heap.begin(), heap.end(), better);
            heap.back() = cands[i];
            std::push_heap(heap.begin(), heap.end(), better);
        }
    }
    std::sort_heap(heap.begin(), heap.end(), better);
    return heap;
}

/**
 * selectK over parallel (id, distance) arrays: same total order and
 * result bits, but the candidates are never materialised as Neighbor
 * records — the ADC hot path scans two flat 4-byte streams instead
 * of packing 4096 structs per query just to throw them away.
 */
std::vector<Neighbor>
selectKFlat(std::span<const std::uint32_t> ids,
            std::span<const float> dists, std::size_t k)
{
    k = std::min(k, ids.size());
    if (k == 0)
        return {};
    std::vector<Neighbor> heap;
    heap.reserve(k);
    for (std::size_t i = 0; i < k; ++i)
        heap.push_back({ids[i], dists[i]});
    std::make_heap(heap.begin(), heap.end(), better);
    for (std::size_t i = k; i < ids.size(); ++i) {
        Neighbor nb{ids[i], dists[i]};
        if (better(nb, heap.front())) {
            std::pop_heap(heap.begin(), heap.end(), better);
            heap.back() = nb;
            std::push_heap(heap.begin(), heap.end(), better);
        }
    }
    std::sort_heap(heap.begin(), heap.end(), better);
    return heap;
}

/** 64-byte aligned scratch vector (dot buffers). */
using AlignedFloats =
    std::vector<float, simd::AlignedAllocator<float, 64>>;

/**
 * Per-query batched distance evaluation: one dotIdx sweep reads the
 * scattered candidate rows in place (no gather copy), and distances
 * come from the norm decomposition
 * ||q - x||^2 = ||q||^2 + ||x||^2 - 2 q.x (clamped at zero against
 * cancellation). One kernel call per query instead of one strided
 * l2sq per candidate pair.
 */
void
scoreCandidates(const simd::Kernels &k, std::span<const float> query,
                const Matrix &database, std::span<const float> norms,
                const std::vector<std::uint32_t> &ids,
                AlignedFloats &dots, std::vector<Neighbor> &cands)
{
    const std::size_t d = database.cols();
    const std::size_t n = ids.size();
    dots.resize(n);
    k.dotIdx(query.data(), database.flat().data(), ids.data(), n, d,
             dots.data());
    float qn = k.normSq(query.data(), d);
    for (std::size_t r = 0; r < n; ++r) {
        float dist = qn + norms[ids[r]] - 2.0f * dots[r];
        cands.push_back({ids[r], std::max(dist, 0.0f)});
    }
}

/**
 * ||x||^2 per database row: reuse the index's precomputed norms when
 * they cover this database, otherwise one shared rowNormsSq pass.
 */
std::vector<float>
databaseNorms(const Matrix &database, const std::vector<float> *pre,
              const parallel::ParallelConfig &par)
{
    if (pre != nullptr && pre->size() == database.rows())
        return *pre;
    return rowNormsSq(database, par);
}

/**
 * Compressed scoring of one query: build the ADC table once, then
 * scan each short-listed cluster's contiguous code block with the
 * batched gather kernel — M table lookups per candidate instead of a
 * D-dim dot product, and M bytes read instead of a full row. The
 * candidate set (per-cluster prefixes up to the budget) is exactly
 * the one the exact path gathers. The table build is
 * backend-independent and adcBatch is bitwise cross-backend, so this
 * scoring returns identical bits on every backend.
 */
void
scoreCandidatesPq(const simd::Kernels &k, const PqCodebook &cb,
                  std::span<const float> query,
                  const InvertedFileIndex &index,
                  const std::vector<std::uint32_t> &clusters,
                  std::size_t max_candidates, float *lut,
                  std::vector<std::uint32_t> &ids,
                  AlignedFloats &dists)
{
    cb.adcTable(query, lut);
    const std::size_t m = cb.numSubspaces();
    const std::size_t stride = cb.lutStride();
    for (std::uint32_t cluster : clusters) {
        // Guard before the subtraction: once the budget is full the
        // unsigned `max_candidates - ids.size()` below would wrap.
        if (max_candidates && ids.size() >= max_candidates)
            break;
        const auto &members = index.cluster(cluster);
        std::size_t take = members.size();
        if (max_candidates)
            take = std::min(take, max_candidates - ids.size());
        if (take == 0)
            continue;
        const std::size_t base = ids.size();
        ids.insert(ids.end(), members.begin(),
                   members.begin() + static_cast<std::ptrdiff_t>(take));
        dists.resize(base + take);
        k.adcBatch(lut, stride, index.clusterCodes(cluster).data(),
                   take, m, dists.data() + base);
    }
}

/** 64-byte aligned u8 scratch (the register-resident shuffle LUT). */
using AlignedBytes =
    std::vector<std::uint8_t, simd::AlignedAllocator<std::uint8_t, 64>>;

/**
 * 4-bit sibling of scoreCandidatesPq: one u8-quantized table per
 * query, then each cluster's FastScan block stream is scored 32
 * candidates per shuffle sweep. The quantization and packing are
 * backend-independent and adcBatch4 is bitwise cross-backend (exact
 * integer sums, one fused multiply-add), so this path too returns
 * identical bits on every backend and thread count.
 */
void
scoreCandidatesPq4(const simd::Kernels &k, const PqCodebook &cb,
                   std::span<const float> query,
                   const InvertedFileIndex &index,
                   const std::vector<std::uint32_t> &clusters,
                   std::size_t max_candidates, std::uint8_t *lut4,
                   std::vector<std::uint32_t> &ids,
                   AlignedFloats &dists)
{
    const PqCodebook::AdcQuantParams qp = cb.adcTable4(query, lut4);
    const std::size_t m = cb.numSubspaces();
    for (std::uint32_t cluster : clusters) {
        // Same wrap guard as scoreCandidatesPq.
        if (max_candidates && ids.size() >= max_candidates)
            break;
        const auto &members = index.cluster(cluster);
        std::size_t take = members.size();
        if (max_candidates)
            take = std::min(take, max_candidates - ids.size());
        if (take == 0)
            continue;
        const std::size_t base = ids.size();
        ids.insert(ids.end(), members.begin(),
                   members.begin() + static_cast<std::ptrdiff_t>(take));
        dists.resize(base + take);
        k.adcBatch4(lut4, index.clusterPackedCodes(cluster).data(),
                    take, m, qp.scale, qp.bias, dists.data() + base);
    }
}

/** Per-query worker grain of the rerank parallel loop. */
constexpr std::size_t kQueryGrain = 4;

} // namespace

RerankResults
rerank(const Matrix &queries, const Matrix &database,
       const InvertedFileIndex &index, const ShortLists &lists,
       const RerankConfig &cfg)
{
    if (lists.size() != queries.rows())
        sim::panic("rerank: one short-list per query required");
    if (cfg.usePq && !index.hasPq()) {
        sim::panic("rerank: usePq requires an index with PQ codes "
                   "(InvertedFileIndex::buildPq)");
    }

    const simd::Kernels &k = simd::kernels(cfg.parallel.simd);
    // Pure-ADC runs never touch the float rows, so skip the norm
    // precompute (it is a full database pass when the index lacks
    // cached norms).
    const bool needs_exact = !cfg.usePq || cfg.pqRefine > 0;
    const std::vector<float> norms =
        needs_exact
            ? databaseNorms(database, &index.vectorNormsSq(),
                            cfg.parallel)
            : std::vector<float>{};

    RerankResults out(queries.rows());
    parallel::parallelFor(
        0, queries.rows(), kQueryGrain,
        [&](std::size_t qb, std::size_t qe) {
            std::vector<std::uint32_t> ids;
            std::vector<Neighbor> cands;
            AlignedFloats dots;
            AlignedFloats adc;
            AlignedFloats lut;
            AlignedBytes lut4;
            const bool pq4 =
                cfg.usePq && index.pqCodebook().codeBits() == 4;
            if (pq4) {
                lut4.resize(index.pqCodebook().numSubspaces() *
                            simd::kAdc4LutStride);
            } else if (cfg.usePq) {
                lut.resize(index.pqCodebook().lutFloats());
            }
            // Reserve only what the selected path touches: the ADC
            // scan fills ids + adc; the exact path fills ids + cands
            // (one Neighbor per candidate); the refine stage holds at
            // most max(k, pqRefine) survivors in cands.
            if (cfg.maxCandidates)
                ids.reserve(cfg.maxCandidates);
            if (cfg.usePq) {
                if (cfg.maxCandidates)
                    adc.reserve(cfg.maxCandidates);
                if (cfg.pqRefine > 0)
                    cands.reserve(std::max(cfg.k, cfg.pqRefine));
            } else if (cfg.maxCandidates) {
                cands.reserve(cfg.maxCandidates);
            }
            for (std::size_t q = qb; q < qe; ++q) {
                ids.clear();
                cands.clear();
                if (cfg.usePq) {
                    adc.clear();
                    if (pq4) {
                        scoreCandidatesPq4(k, index.pqCodebook(),
                                           queries.row(q), index,
                                           lists[q],
                                           cfg.maxCandidates,
                                           lut4.data(), ids, adc);
                    } else {
                        scoreCandidatesPq(k, index.pqCodebook(),
                                          queries.row(q), index,
                                          lists[q],
                                          cfg.maxCandidates,
                                          lut.data(), ids, adc);
                    }
                    if (cfg.pqRefine > 0) {
                        std::vector<Neighbor> top = selectKFlat(
                            ids, adc, std::max(cfg.k, cfg.pqRefine));
                        ids.clear();
                        for (const Neighbor &nb : top)
                            ids.push_back(nb.id);
                        scoreCandidates(k, queries.row(q), database,
                                        norms, ids, dots, cands);
                        out[q] = selectK(cands, cfg.k);
                    } else {
                        out[q] = selectKFlat(ids, adc, cfg.k);
                    }
                    continue;
                }
                // Ranged prefix copies, one per cluster, with the
                // truncation hoisted out of the member walk — the
                // same gather scoreCandidatesPq uses.
                for (std::uint32_t cluster : lists[q]) {
                    if (cfg.maxCandidates &&
                        ids.size() >= cfg.maxCandidates)
                        break;
                    const auto &members = index.cluster(cluster);
                    std::size_t take = members.size();
                    if (cfg.maxCandidates)
                        take = std::min(take, cfg.maxCandidates -
                                                  ids.size());
                    ids.insert(ids.end(), members.begin(),
                               members.begin() +
                                   static_cast<std::ptrdiff_t>(take));
                }
                scoreCandidates(k, queries.row(q), database, norms,
                                ids, dots, cands);
                out[q] = selectK(cands, cfg.k);
            }
        },
        cfg.parallel);
    return out;
}

RerankResults
bruteForce(const Matrix &queries, const Matrix &database, std::size_t k,
           const parallel::ParallelConfig &par)
{
    const simd::Kernels &kern = simd::kernels(par.simd);
    const std::vector<float> norms =
        databaseNorms(database, nullptr, par);
    const std::size_t d = database.cols();
    const std::size_t n = database.rows();

    RerankResults out(queries.rows());
    parallel::parallelFor(
        0, queries.rows(), 1,
        [&](std::size_t qb, std::size_t qe) {
            std::vector<Neighbor> cands;
            std::vector<float> dots(n);
            cands.reserve(n);
            for (std::size_t q = qb; q < qe; ++q) {
                cands.clear();
                // Database rows are already contiguous: one batched
                // dot sweep, no gather needed.
                kern.dotBatch(queries.row(q).data(),
                              database.flat().data(), n, d,
                              dots.data());
                float qn = kern.normSq(queries.row(q).data(), d);
                for (std::size_t i = 0; i < n; ++i) {
                    float dist = qn + norms[i] - 2.0f * dots[i];
                    cands.push_back({static_cast<std::uint32_t>(i),
                                     std::max(dist, 0.0f)});
                }
                out[q] = selectK(cands, k);
            }
        },
        par);
    return out;
}

double
recallAtK(const RerankResults &got, const RerankResults &truth,
          std::size_t k)
{
    if (got.size() != truth.size())
        sim::panic("recallAtK: result batch size mismatch");
    if (got.empty())
        return 0;

    double sum = 0;
    std::unordered_set<std::uint32_t> truth_ids;
    for (std::size_t q = 0; q < got.size(); ++q) {
        std::size_t kk = std::min({k, got[q].size(), truth[q].size()});
        if (kk == 0)
            continue;
        truth_ids.clear();
        truth_ids.reserve(kk);
        for (std::size_t i = 0; i < kk; ++i)
            truth_ids.insert(truth[q][i].id);
        std::size_t found = 0;
        for (std::size_t j = 0; j < kk; ++j)
            found += truth_ids.count(got[q][j].id);
        sum += static_cast<double>(found) / static_cast<double>(kk);
    }
    return sum / static_cast<double>(got.size());
}

} // namespace reach::cbir
