/**
 * @file
 * google-benchmark microbenchmarks of the functional CBIR kernels:
 * the GEMM, partial sort and distance primitives the FPGA engines
 * implement, plus k-means and the mini CNN; the discrete-event queue
 * hot path (schedule/run/deschedule mix); and the parallel
 * figure-sweep runner. These are host-CPU numbers (sanity and
 * regression tracking), not simulated-FPGA numbers.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>

#include "cbir/kmeans.hh"
#include "cbir/linalg.hh"
#include "cbir/mini_cnn.hh"
#include "cbir/pq.hh"
#include "cbir/rerank.hh"
#include "cbir/shortlist.hh"
#include "common.hh"
#include "parallel/parallel.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "simd/aligned.hh"
#include "simd/half.hh"
#include "simd/simd.hh"
#include "workload/dataset.hh"

using namespace reach;
using namespace reach::cbir;

namespace
{

Matrix
randomMatrix(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    sim::Rng rng(seed);
    Matrix m(rows, cols);
    for (auto &v : m.flat())
        v = static_cast<float>(rng.nextGaussian());
    return m;
}

void
BM_GemmNt(benchmark::State &state)
{
    std::size_t batch = 16, dim = 96;
    std::size_t centroids = static_cast<std::size_t>(state.range(0));
    Matrix q = randomMatrix(batch, dim, 1);
    Matrix c = randomMatrix(centroids, dim, 2);
    Matrix out(batch, centroids);
    for (auto _ : state) {
        gemmNt(q, c, out);
        benchmark::DoNotOptimize(out.flat().data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * batch *
        centroids * dim);
}
BENCHMARK(BM_GemmNt)->Arg(250)->Arg(1000)->Arg(4000);

void
BM_L2Distance(benchmark::State &state)
{
    std::size_t dim = static_cast<std::size_t>(state.range(0));
    Matrix a = randomMatrix(1, dim, 3);
    Matrix b = randomMatrix(1, dim, 4);
    for (auto _ : state) {
        float d = l2sq(a.row(0), b.row(0));
        benchmark::DoNotOptimize(d);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * dim);
}
BENCHMARK(BM_L2Distance)->Arg(96)->Arg(256)->Arg(1024);

void
BM_TopKMin(benchmark::State &state)
{
    std::size_t n = static_cast<std::size_t>(state.range(0));
    sim::Rng rng(5);
    std::vector<float> vals(n);
    for (auto &v : vals)
        v = static_cast<float>(rng.nextDouble());
    for (auto _ : state) {
        auto idx = topKMin(vals, 10);
        benchmark::DoNotOptimize(idx.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TopKMin)->Arg(1000)->Arg(4096)->Arg(100000);

void
BM_ShortlistRetrieve(benchmark::State &state)
{
    workload::DatasetConfig dc;
    dc.numVectors = 20'000;
    dc.dim = 96;
    workload::Dataset ds(dc);
    KMeansConfig kc;
    kc.clusters = static_cast<std::size_t>(state.range(0));
    kc.maxIterations = 4;
    InvertedFileIndex idx(ds.vectors(), kc);
    Matrix queries = ds.makeQueries(16, 0.05, 9);
    for (auto _ : state) {
        auto lists = shortlistRetrieve(queries, idx, 8);
        benchmark::DoNotOptimize(lists.data());
    }
}
BENCHMARK(BM_ShortlistRetrieve)->Arg(100)->Arg(1000);

void
BM_Rerank(benchmark::State &state)
{
    workload::DatasetConfig dc;
    dc.numVectors = 50'000;
    dc.dim = 96;
    workload::Dataset ds(dc);
    KMeansConfig kc;
    kc.clusters = 64;
    kc.maxIterations = 4;
    InvertedFileIndex idx(ds.vectors(), kc);
    Matrix queries = ds.makeQueries(16, 0.05, 9);
    auto lists = shortlistRetrieve(queries, idx, 8);
    RerankConfig rc;
    rc.k = 10;
    rc.maxCandidates =
        static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        auto res = rerank(queries, ds.vectors(), idx, lists, rc);
        benchmark::DoNotOptimize(res.data());
    }
}
BENCHMARK(BM_Rerank)->Arg(1024)->Arg(4096);

// Single- vs multi-thread variants of the three hot kernels the
// parallel execution layer targets (Arg = thread count). Sizes follow
// the paper's shortlist/rerank shape: 1000 centroids x D=96, 64
// queries, 4096 candidates per query.

void
BM_GemmNtThreads(benchmark::State &state)
{
    std::size_t batch = 64, dim = 96, centroids = 1000;
    Matrix q = randomMatrix(batch, dim, 1);
    Matrix c = randomMatrix(centroids, dim, 2);
    Matrix out(batch, centroids);
    parallel::ParallelConfig pc{
        static_cast<unsigned>(state.range(0))};
    for (auto _ : state) {
        gemmNt(q, c, out, pc);
        benchmark::DoNotOptimize(out.flat().data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * batch *
        centroids * dim);
}
BENCHMARK(BM_GemmNtThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void
BM_RerankThreads(benchmark::State &state)
{
    workload::DatasetConfig dc;
    dc.numVectors = 50'000;
    dc.dim = 96;
    workload::Dataset ds(dc);
    KMeansConfig kc;
    kc.clusters = 64;
    kc.maxIterations = 4;
    InvertedFileIndex idx(ds.vectors(), kc);
    Matrix queries = ds.makeQueries(64, 0.05, 9);
    auto lists = shortlistRetrieve(queries, idx, 8);
    RerankConfig rc;
    rc.k = 10;
    rc.maxCandidates = 4096;
    rc.parallel = parallel::ParallelConfig{
        static_cast<unsigned>(state.range(0))};
    for (auto _ : state) {
        auto res = rerank(queries, ds.vectors(), idx, lists, rc);
        benchmark::DoNotOptimize(res.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(queries.rows() * rc.maxCandidates));
}
BENCHMARK(BM_RerankThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void
BM_KMeansThreads(benchmark::State &state)
{
    workload::DatasetConfig dc;
    dc.numVectors = 20'000;
    dc.dim = 32;
    workload::Dataset ds(dc);
    KMeansConfig kc;
    kc.clusters = 32;
    kc.maxIterations = 2;
    kc.parallel = parallel::ParallelConfig{
        static_cast<unsigned>(state.range(0))};
    for (auto _ : state) {
        auto res = kMeans(ds.vectors(), kc);
        benchmark::DoNotOptimize(res.inertia);
    }
}
BENCHMARK(BM_KMeansThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// Backend-pinned kernel benchmarks at the paper's feature dimension
// (D=96), single thread. The scalar/avx2 pair for each benchmark
// measures the SIMD layer's speedup in isolation from threading;
// bench/run_micro.sh records the ratios in BENCH_micro.json. An avx2
// variant on a host without AVX2+FMA reports an error and is skipped.

bool
pinBackendOrSkip(benchmark::State &state, simd::Choice choice)
{
    if (choice == simd::Choice::avx2 &&
        !simd::supported(simd::Backend::avx2)) {
        state.SkipWithError("avx2 not supported on this host");
        return false;
    }
    return true;
}

void
BM_Dot(benchmark::State &state, simd::Choice choice)
{
    if (!pinBackendOrSkip(state, choice))
        return;
    const simd::Kernels &k = simd::kernels(choice);
    std::size_t dim = 96;
    Matrix a = randomMatrix(1, dim, 3);
    Matrix b = randomMatrix(1, dim, 4);
    for (auto _ : state) {
        float d = k.dot(a.row(0).data(), b.row(0).data(), dim);
        benchmark::DoNotOptimize(d);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * dim);
}
BENCHMARK_CAPTURE(BM_Dot, scalar, simd::Choice::scalar);
BENCHMARK_CAPTURE(BM_Dot, avx2, simd::Choice::avx2);

void
BM_L2sqBatch(benchmark::State &state, simd::Choice choice)
{
    if (!pinBackendOrSkip(state, choice))
        return;
    // One query against a contiguous 4096-row tile: the rerank
    // candidate-scoring shape.
    const simd::Kernels &k = simd::kernels(choice);
    std::size_t n = 4096, dim = 96;
    Matrix q = randomMatrix(1, dim, 5);
    Matrix rows = randomMatrix(n, dim, 6);
    std::vector<float> out(n);
    for (auto _ : state) {
        k.l2sqBatch(q.row(0).data(), rows.flat().data(), n, dim,
                    out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * n * dim);
}
BENCHMARK_CAPTURE(BM_L2sqBatch, scalar, simd::Choice::scalar);
BENCHMARK_CAPTURE(BM_L2sqBatch, avx2, simd::Choice::avx2);

void
BM_GemmNtBackend(benchmark::State &state, simd::Choice choice)
{
    if (!pinBackendOrSkip(state, choice))
        return;
    // The shortlist shape: 16 queries x 1000 centroids x D=96.
    std::size_t batch = 16, dim = 96, centroids = 1000;
    Matrix q = randomMatrix(batch, dim, 1);
    Matrix c = randomMatrix(centroids, dim, 2);
    Matrix out(batch, centroids);
    parallel::ParallelConfig pc = parallel::ParallelConfig::serial();
    pc.simd = choice;
    for (auto _ : state) {
        gemmNt(q, c, out, pc);
        benchmark::DoNotOptimize(out.flat().data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * batch *
        centroids * dim);
}
BENCHMARK_CAPTURE(BM_GemmNtBackend, scalar, simd::Choice::scalar);
BENCHMARK_CAPTURE(BM_GemmNtBackend, avx2, simd::Choice::avx2);

void
BM_RerankBackend(benchmark::State &state, simd::Choice choice)
{
    if (!pinBackendOrSkip(state, choice))
        return;
    // End-to-end rerank (gather + l2sqBatch + top-K) with the SIMD
    // backend pinned, single thread.
    workload::DatasetConfig dc;
    dc.numVectors = 50'000;
    dc.dim = 96;
    workload::Dataset ds(dc);
    KMeansConfig kc;
    kc.clusters = 64;
    kc.maxIterations = 4;
    InvertedFileIndex idx(ds.vectors(), kc);
    Matrix queries = ds.makeQueries(16, 0.05, 9);
    auto lists = shortlistRetrieve(queries, idx, 8);
    RerankConfig rc;
    rc.k = 10;
    rc.maxCandidates = 4096;
    rc.parallel = parallel::ParallelConfig::serial();
    rc.parallel.simd = choice;
    for (auto _ : state) {
        auto res = rerank(queries, ds.vectors(), idx, lists, rc);
        benchmark::DoNotOptimize(res.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(queries.rows() * rc.maxCandidates));
}
BENCHMARK_CAPTURE(BM_RerankBackend, scalar, simd::Choice::scalar);
BENCHMARK_CAPTURE(BM_RerankBackend, avx2, simd::Choice::avx2);

void
BM_AdcBatch(benchmark::State &state, simd::Choice choice)
{
    if (!pinBackendOrSkip(state, choice))
        return;
    // The compressed rerank inner loop: 4096 candidates at M=32
    // subspaces, scored from one query's ADC table.
    const simd::Kernels &k = simd::kernels(choice);
    const std::size_t n = 4096, m = 32;
    sim::Rng rng(11);
    std::vector<float, simd::AlignedAllocator<float, 64>> lut(
        m * simd::kAdcLutStride);
    for (auto &v : lut)
        v = static_cast<float>(rng.nextDouble());
    std::vector<std::uint8_t> codes(n * m);
    for (auto &c : codes)
        c = static_cast<std::uint8_t>(rng.nextUInt(256));
    std::vector<float> out(n);
    for (auto _ : state) {
        k.adcBatch(lut.data(), simd::kAdcLutStride, codes.data(), n,
                   m, out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * n * m);
}
BENCHMARK_CAPTURE(BM_AdcBatch, scalar, simd::Choice::scalar);
BENCHMARK_CAPTURE(BM_AdcBatch, avx2, simd::Choice::avx2);

void
BM_AdcShuffle(benchmark::State &state, simd::Choice choice)
{
    if (!pinBackendOrSkip(state, choice))
        return;
    // The 4-bit FastScan counterpart of BM_AdcBatch at the same
    // shape (4096 candidates, M=32): register-resident u8 tables,
    // 32 lookups per shuffle. run_micro.sh gates on the
    // avx2-shuffle / avx2-gather ratio.
    const simd::Kernels &k = simd::kernels(choice);
    const std::size_t n = 4096, m = 32;
    sim::Rng rng(11);
    std::vector<std::uint8_t, simd::AlignedAllocator<std::uint8_t, 64>>
        lut(m * simd::kAdc4LutStride);
    for (auto &v : lut)
        v = static_cast<std::uint8_t>(rng.nextUInt(256));
    std::vector<std::uint8_t> codes(n * simd::adc4CodeBytes(m));
    for (auto &c : codes)
        c = static_cast<std::uint8_t>(rng.nextUInt(256));
    std::vector<std::uint8_t, simd::AlignedAllocator<std::uint8_t, 64>>
        blocks(simd::adc4PackedBytes(n, m));
    simd::adc4Pack(codes.data(), n, m, blocks.data());
    std::vector<float> out(n);
    for (auto _ : state) {
        k.adcBatch4(lut.data(), blocks.data(), n, m, 0.03125f, 1.5f,
                    out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * n * m);
}
BENCHMARK_CAPTURE(BM_AdcShuffle, scalar, simd::Choice::scalar);
BENCHMARK_CAPTURE(BM_AdcShuffle, avx2, simd::Choice::avx2);

/**
 * DRAM-resident fixture for the fused shortlist-scan kernels: one
 * query streamed against 1M centroids at D=96. The fp32 stream is
 * 402 MB and the packed-half copy 201 MB — both far beyond any LLC,
 * so the benchmark measures the memory-bound regime the paper's scan
 * lives in and the fp16 win comes from the halved stream, exactly
 * the effect the timing model's centroidBytesPerDim=2 charges for.
 */
struct ShortlistScanFixture
{
    static constexpr std::size_t kM = 1u << 20;
    static constexpr std::size_t kD = 96;
    static constexpr std::size_t kBlock = 4096;

    Matrix query;
    Matrix cents;
    std::vector<std::uint16_t,
                simd::AlignedAllocator<std::uint16_t, 64>>
        centsH;
    std::vector<float> cnorm;
    std::vector<float> cnormH;
    float qn = 0;

    ShortlistScanFixture()
        : query(randomMatrix(1, kD, 21)),
          cents(randomMatrix(kM, kD, 22)),
          centsH(kM * kD),
          cnorm(rowNormsSq(cents)),
          cnormH(kM)
    {
        simd::halfFromFloats(cents.flat().data(),
                             cents.flat().size(), centsH.data());
        for (std::size_t c = 0; c < kM; ++c)
            cnormH[c] = simd::halfNormSq(centsH.data() + c * kD, kD);
        qn = normSq(query.row(0));
    }
};

const ShortlistScanFixture &
shortlistScanFixture()
{
    static ShortlistScanFixture f;
    return f;
}

/**
 * The blocked fused scan exactly as shortlistRetrieve runs it (one
 * kColBlock-wide shortlistScore call per block, distances landing in
 * a reused L2-sized tile), minus the top-K so the stream is the only
 * variable. run_micro.sh gates fp16_avx2 >= 1.5x fp32_avx2 — the
 * host-measurable counterpart of the modeled 2.13x scan speedup.
 */
void
BM_ShortlistScan(benchmark::State &state, simd::Choice choice,
                 ShortlistPrecision precision)
{
    if (!pinBackendOrSkip(state, choice))
        return;
    const ShortlistScanFixture &f = shortlistScanFixture();
    const simd::Kernels &k = simd::kernels(choice);
    const bool fp16 = precision == ShortlistPrecision::Fp16;
    std::vector<float, simd::AlignedAllocator<float, 64>> dist(
        ShortlistScanFixture::kBlock);
    for (auto _ : state) {
        for (std::size_t j0 = 0; j0 < ShortlistScanFixture::kM;
             j0 += ShortlistScanFixture::kBlock) {
            const std::size_t mb = std::min(
                ShortlistScanFixture::kBlock,
                ShortlistScanFixture::kM - j0);
            if (fp16) {
                k.shortlistScoreF16(
                    f.query.row(0).data(), &f.qn, 1,
                    f.centsH.data() + j0 * ShortlistScanFixture::kD,
                    f.cnormH.data() + j0, mb,
                    ShortlistScanFixture::kD, dist.data(),
                    ShortlistScanFixture::kBlock);
            } else {
                k.shortlistScore(
                    f.query.row(0).data(), &f.qn, 1,
                    f.cents.row(j0).data(), f.cnorm.data() + j0, mb,
                    ShortlistScanFixture::kD, dist.data(),
                    ShortlistScanFixture::kBlock);
            }
            benchmark::DoNotOptimize(dist.data());
        }
    }
    // Items = centroid dims scanned; the streamed bytes per item are
    // centroidBytesPerDim(precision).
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(ShortlistScanFixture::kM *
                                  ShortlistScanFixture::kD));
}
BENCHMARK_CAPTURE(BM_ShortlistScan, fp32_scalar, simd::Choice::scalar,
                  ShortlistPrecision::Fp32);
BENCHMARK_CAPTURE(BM_ShortlistScan, fp32_avx2, simd::Choice::avx2,
                  ShortlistPrecision::Fp32);
BENCHMARK_CAPTURE(BM_ShortlistScan, fp16_scalar, simd::Choice::scalar,
                  ShortlistPrecision::Fp16);
BENCHMARK_CAPTURE(BM_ShortlistScan, fp16_avx2, simd::Choice::avx2,
                  ShortlistPrecision::Fp16);

/**
 * Near-storage-scale fixture for the PQ-vs-exact rerank comparison:
 * the float database (800k x D=96 = 307 MB) deliberately exceeds
 * the LLC, so the exact path's candidate-row gathers go to DRAM —
 * the regime the paper's rerank stage lives in (Table I classifies
 * it storage-bandwidth-bound) — while ADC reads M=32 code bytes per
 * candidate against an L1-resident table. BM_RerankBackend keeps the
 * small cache-resident fixture for kernel-level tracking; codebooks
 * here train on a 64k-row sample to bound one-time setup cost.
 */
struct PqCompareFixture
{
    workload::Dataset ds;
    KMeansResult km;
    InvertedFileIndex idx;  // 8-bit codes
    InvertedFileIndex idx4; // 4-bit packed codes, same clustering
    Matrix queries;
    ShortLists lists;

    PqCompareFixture()
        : ds([] {
              workload::DatasetConfig dc;
              dc.numVectors = 1'000'000;
              dc.dim = 96;
              return dc;
          }()),
          km(kMeans(ds.vectors(),
                    [] {
                        KMeansConfig kc;
                        kc.clusters = 256;
                        kc.maxIterations = 2;
                        return kc;
                    }())),
          idx(km.centroids, km.assignment, ds.vectors()),
          idx4(std::move(km.centroids), std::move(km.assignment),
               ds.vectors()),
          queries(ds.makeQueries(256, 0.05, 9))
    {
        std::size_t sample_rows =
            std::min<std::size_t>(65'536, ds.size());
        Matrix sample(sample_rows, ds.vectors().cols());
        std::copy_n(ds.vectors().flat().data(),
                    sample_rows * ds.vectors().cols(),
                    sample.flat().data());
        PqConfig pc;
        pc.enabled = true;
        pc.m = 32;
        pc.trainIterations = 4;
        auto cb = std::make_shared<PqCodebook>(
            PqCodebook::train(sample, pc));
        idx.attachPq(cb, cb->encodeAll(ds.vectors()));
        pc.bits = 4;
        auto cb4 = std::make_shared<PqCodebook>(
            PqCodebook::train(sample, pc));
        idx4.attachPq(cb4, cb4->encodeAll(ds.vectors()));
        // Identical centroids -> identical shortlists for both.
        lists = shortlistRetrieve(queries, idx, 8);
    }
};

const PqCompareFixture &
pqCompareFixture()
{
    static PqCompareFixture f;
    return f;
}

/** PQ-vs-exact on the shared fixture; refine < 0 = exact rerank. */
void
rerankPqBench(benchmark::State &state, simd::Choice choice,
              std::ptrdiff_t refine, bool fourBit = false)
{
    if (!pinBackendOrSkip(state, choice))
        return;
    const PqCompareFixture &f = pqCompareFixture();
    const InvertedFileIndex &index = fourBit ? f.idx4 : f.idx;
    RerankConfig rc;
    rc.k = 10;
    rc.maxCandidates = 4096;
    rc.parallel = parallel::ParallelConfig::serial();
    rc.parallel.simd = choice;
    if (refine >= 0) {
        rc.usePq = true;
        rc.pqRefine = static_cast<std::size_t>(refine);
    }
    for (auto _ : state) {
        auto res = rerank(f.queries, f.ds.vectors(), index, f.lists,
                          rc);
        benchmark::DoNotOptimize(res.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(f.queries.rows() *
                                  rc.maxCandidates));
}

void
BM_RerankPqExact(benchmark::State &state, simd::Choice choice)
{
    rerankPqBench(state, choice, -1);
}
BENCHMARK_CAPTURE(BM_RerankPqExact, scalar, simd::Choice::scalar);
BENCHMARK_CAPTURE(BM_RerankPqExact, avx2, simd::Choice::avx2);

void
BM_RerankPq(benchmark::State &state, simd::Choice choice)
{
    rerankPqBench(state, choice, 0);
}
BENCHMARK_CAPTURE(BM_RerankPq, scalar, simd::Choice::scalar);
BENCHMARK_CAPTURE(BM_RerankPq, avx2, simd::Choice::avx2);

void
BM_RerankPq4(benchmark::State &state, simd::Choice choice)
{
    rerankPqBench(state, choice, 0, /*fourBit=*/true);
}
BENCHMARK_CAPTURE(BM_RerankPq4, scalar, simd::Choice::scalar);
BENCHMARK_CAPTURE(BM_RerankPq4, avx2, simd::Choice::avx2);

void
BM_RerankPqRefine(benchmark::State &state, simd::Choice choice)
{
    rerankPqBench(state, choice, 128);
}
BENCHMARK_CAPTURE(BM_RerankPqRefine, scalar, simd::Choice::scalar);
BENCHMARK_CAPTURE(BM_RerankPqRefine, avx2, simd::Choice::avx2);

void
BM_MiniCnnExtract(benchmark::State &state)
{
    MiniCnn cnn;
    Image img = makeSyntheticImage(1, 7);
    for (auto _ : state) {
        auto f = cnn.extract(img);
        benchmark::DoNotOptimize(f.data());
    }
}
BENCHMARK(BM_MiniCnnExtract);

/**
 * Schedule/run/deschedule mix modeled on GAM status polling: waves
 * of events are scheduled at pseudo-random future ticks, half of
 * each wave is cancelled and re-armed (a wrong runtime estimate),
 * then the queue drains. Items processed = events executed, so the
 * benchmark reports DES events/sec.
 */
void
BM_EventQueue(benchmark::State &state)
{
    const int pollers = 256;
    const int waves = 64;
    std::int64_t total_executed = 0;
    for (auto _ : state) {
        sim::EventQueue q;
        sim::Rng rng(42);
        std::uint64_t executed = 0;
        std::vector<std::uint64_t> ids;
        ids.reserve(pollers);
        for (int wave = 0; wave < waves; ++wave) {
            ids.clear();
            for (int p = 0; p < pollers; ++p) {
                ids.push_back(q.schedule(
                    q.now() + 1 + rng.nextUInt(1000),
                    [&executed] { ++executed; }));
            }
            for (int p = 0; p < pollers; p += 2) {
                if (q.deschedule(ids[p])) {
                    q.schedule(q.now() + 1 + rng.nextUInt(1000),
                               [&executed] { ++executed; });
                }
            }
            while (!q.empty())
                q.runOne();
        }
        benchmark::DoNotOptimize(executed);
        total_executed += static_cast<std::int64_t>(executed);
    }
    state.SetItemsProcessed(total_executed);
}
BENCHMARK(BM_EventQueue);

/**
 * The Figure-13 sweep (all four mapping options, latency +
 * throughput runs) through the parallel sweep runner at Arg(0)
 * concurrent jobs. Wall-clock vs --jobs for the figure benches;
 * items processed = simulators run.
 */
void
BM_Fig13SweepJobs(benchmark::State &state)
{
    sim::setQuiet(true);
    bench::SweepOptions opt;
    opt.jobs = static_cast<unsigned>(state.range(0));
    const core::Mapping mappings[4] = {core::Mapping::OnChipOnly,
                                       core::Mapping::NearMemOnly,
                                       core::Mapping::NearStorOnly,
                                       core::Mapping::Reach};
    for (auto _ : state) {
        auto makespans =
            bench::runSweep(8, opt, [&](std::size_t i) {
                cbir::CbirWorkloadModel model{cbir::ScaleConfig{}};
                core::ReachSystem sys{core::SystemConfig{}};
                core::CbirDeployment dep(sys, model, mappings[i / 2]);
                return dep.run(i % 2 == 0 ? 1 : 12).makespan;
            });
        benchmark::DoNotOptimize(makespans.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_Fig13SweepJobs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void
BM_KMeansIteration(benchmark::State &state)
{
    workload::DatasetConfig dc;
    dc.numVectors = 5'000;
    dc.dim = 32;
    workload::Dataset ds(dc);
    KMeansConfig kc;
    kc.clusters = static_cast<std::size_t>(state.range(0));
    kc.maxIterations = 1;
    for (auto _ : state) {
        auto res = kMeans(ds.vectors(), kc);
        benchmark::DoNotOptimize(res.inertia);
    }
}
BENCHMARK(BM_KMeansIteration)->Arg(16)->Arg(64);

} // namespace

BENCHMARK_MAIN();
