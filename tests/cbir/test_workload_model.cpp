/**
 * @file
 * Tests that the workload model reproduces Table I and produces
 * consistent, partition-scalable work units.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "cbir/workload_model.hh"
#include "sim/logging.hh"

using namespace reach;
using namespace reach::cbir;

namespace
{

ScaleConfig
paperScale()
{
    return ScaleConfig{}; // defaults = paper setup
}

} // namespace

TEST(WorkloadModel, TableOneFootprints)
{
    CbirWorkloadModel m(paperScale());
    // Model parameters: 11.3 MB compressed.
    EXPECT_EQ(m.modelParamBytes(), 11'300'000u);
    // Centroids + cell info: ~2.2 GB.
    EXPECT_NEAR(static_cast<double>(m.centroidAndCellBytes()) / 1e9,
                2.2, 0.1);
    // Feature database: ~384 GB decimal (355 GiB in Table I).
    EXPECT_NEAR(static_cast<double>(m.databaseBytes()) / 1e9, 384.0,
                1.0);
}

TEST(WorkloadModel, UncompressedModelIs552MB)
{
    ScaleConfig s = paperScale();
    s.compressedModel = false;
    CbirWorkloadModel m(s);
    EXPECT_NEAR(static_cast<double>(m.modelParamBytes()) / 1e6, 552.0,
                12.0);
}

TEST(WorkloadModel, FeatureExtractionBatchedVsSingle)
{
    CbirWorkloadModel m(paperScale());
    auto batch = m.featureExtractionBatch();
    auto single = m.featureExtractionSingle();

    EXPECT_NEAR(batch.ops, single.ops * 16, single.ops * 0.01);
    EXPECT_EQ(batch.bytesIn, single.bytesIn * 16);
    // Parameters are duplicated per instance, not split.
    EXPECT_EQ(batch.paramBytes, single.paramBytes);
    EXPECT_TRUE(batch.inputResident);
    EXPECT_FALSE(single.inputResident);
}

TEST(WorkloadModel, PrunedMacsScaleWithFraction)
{
    ScaleConfig dense = paperScale();
    dense.compressedModel = false;
    ScaleConfig pruned = paperScale();
    CbirWorkloadModel dm(dense), pm(pruned);
    EXPECT_NEAR(pm.featureExtractionSingle().ops,
                dm.featureExtractionSingle().ops *
                    pruned.prunedMacFraction,
                1e6);
}

TEST(WorkloadModel, ShortlistPartitionsDivideTraffic)
{
    CbirWorkloadModel m(paperScale());
    auto whole = m.shortlistBatch(1);
    auto quarter = m.shortlistBatch(4);
    EXPECT_NEAR(static_cast<double>(quarter.bytesIn),
                static_cast<double>(whole.bytesIn) / 4,
                static_cast<double>(whole.bytesIn) * 0.01);
    EXPECT_NEAR(quarter.ops, whole.ops / 4, whole.ops * 0.01);
}

TEST(WorkloadModel, ShortlistIsCellInfoDominated)
{
    CbirWorkloadModel m(paperScale());
    auto w = m.shortlistBatch(1);
    // Cell-info scan traffic dwarfs the centroid matrix (Table I's
    // "memory-bound" classification).
    std::uint64_t centroid_bytes = 1000ull * 96 * 4;
    EXPECT_GT(w.bytesIn, 100 * centroid_bytes);
}

TEST(WorkloadModel, RerankTrafficIsPageGranular)
{
    CbirWorkloadModel m(paperScale());
    auto w = m.rerankBatch(1);
    EXPECT_EQ(w.bytesIn,
              std::uint64_t(16) * 4096 * 4096); // B*cands*page
}

TEST(WorkloadModel, PqRerankBytesDropToCodeSize)
{
    ScaleConfig s = paperScale();
    s.pq.enabled = true;
    s.pq.m = 32;
    s.pq.refine = 0;
    CbirWorkloadModel m(s);
    auto w = m.rerankBatch(1);
    // No refine: the sequential code scan is the only storage read —
    // bytes drop from candidates * flashPage to candidates * m,
    // exactly proportional to the code size.
    std::uint64_t candidates = 16ull * 4096;
    EXPECT_EQ(w.bytesIn, candidates * 32);
    EXPECT_EQ(m.rerankCandidateBytes(), 32u);

    CbirWorkloadModel exact(paperScale());
    EXPECT_EQ(exact.rerankBatch(1).bytesIn / w.bytesIn,
              std::uint64_t(exact.rerankCandidateBytes()) / 32);
}

TEST(WorkloadModel, PqRefineAddsPageGranularGathers)
{
    ScaleConfig s = paperScale();
    s.pq.enabled = true;
    s.pq.m = 32;
    s.pq.refine = 128;
    CbirWorkloadModel m(s);
    auto w = m.rerankBatch(1);
    std::uint64_t candidates = 16ull * 4096;
    EXPECT_EQ(w.bytesIn, candidates * 32 + 16ull * 128 * 4096);
    // Even with refine, compressed traffic stays far below exact.
    CbirWorkloadModel exact(paperScale());
    EXPECT_LT(w.bytesIn, exact.rerankBatch(1).bytesIn / 10);
    // Compute: lookups + LUT build + refine MACs stay below the
    // exact path's D MACs per candidate.
    EXPECT_LT(w.ops, exact.rerankBatch(1).ops);
}

TEST(WorkloadModel, FourBitHalvesTheCodeScan)
{
    ScaleConfig s8 = paperScale();
    s8.pq.enabled = true;
    s8.pq.m = 32;
    s8.pq.refine = 0;
    ScaleConfig s4 = s8;
    s4.pq.bits = 4;
    CbirWorkloadModel m8(s8), m4(s4);
    // Packed codes: (m+1)/2 bytes per candidate instead of m.
    EXPECT_EQ(m4.rerankCandidateBytes(), 16u);
    EXPECT_EQ(m8.rerankBatch(1).bytesIn, 2 * m4.rerankBatch(1).bytesIn);
    // The per-query table build shrinks 16x (16 vs 256 entries per
    // subspace), so total rerank compute drops too.
    EXPECT_LT(m4.rerankBatch(1).ops, m8.rerankBatch(1).ops);
}

TEST(WorkloadModel, HalfPrecisionCentroidsShrinkTheScan)
{
    ScaleConfig fp32 = paperScale();
    ScaleConfig fp16 = paperScale();
    fp16.centroidBytesPerDim = 2;
    CbirWorkloadModel a(fp32), b(fp16);

    // The centroid matrix halves; the ||C||^2 tail and cell info are
    // unchanged.
    std::uint64_t cents32 = 1000ull * 96 * 4;
    std::uint64_t cents16 = 1000ull * 96 * 2;
    EXPECT_EQ(a.centroidAndCellBytes() - b.centroidAndCellBytes(),
              cents32 - cents16);
    EXPECT_EQ(a.shortlistBatch(1).bytesIn - b.shortlistBatch(1).bytesIn,
              cents32 - cents16);
    // Compute is unchanged: precision only affects storage traffic.
    EXPECT_EQ(a.shortlistBatch(1).ops, b.shortlistBatch(1).ops);

    ScaleConfig bad = paperScale();
    bad.centroidBytesPerDim = 3;
    EXPECT_THROW(CbirWorkloadModel{bad}, sim::SimFatal);
}

TEST(WorkloadModel, ShortlistPlacementDefaultsToDdr)
{
    ScaleConfig s = paperScale();
    EXPECT_EQ(s.shortlistPlacement, ScanPlacement::Ddr);
    s.shortlistPlacement = ScanPlacement::Hbm;
    // The knob lives on ScaleConfig so sweeps carry it alongside the
    // traffic model; the byte counts themselves do not change — only
    // the link the system charges them to.
    CbirWorkloadModel ddr(paperScale()), hbm(s);
    EXPECT_EQ(ddr.shortlistBatch(1).bytesIn, hbm.shortlistBatch(1).bytesIn);
    EXPECT_EQ(hbm.scale().shortlistPlacement, ScanPlacement::Hbm);
}

TEST(WorkloadModel, PqConfigValidatedAtConstruction)
{
    ScaleConfig s = paperScale();
    s.pq.enabled = true;
    s.pq.m = 7; // does not divide dim = 96
    EXPECT_THROW(CbirWorkloadModel{s}, sim::SimFatal);
    s.pq.enabled = false;
    CbirWorkloadModel ok{s}; // disabled blocks are not validated
    EXPECT_EQ(ok.rerankCandidateBytes(), 4096u);
}

TEST(WorkloadModel, RerankComputeLight)
{
    CbirWorkloadModel m(paperScale());
    auto rr = m.rerankBatch(1);
    auto fe = m.featureExtractionBatch();
    // Table I: rerank is "Low" compute, feature extraction "High".
    EXPECT_LT(rr.ops, fe.ops / 100);
}

TEST(WorkloadModel, ZeroPartitionsTreatedAsOne)
{
    CbirWorkloadModel m(paperScale());
    EXPECT_EQ(m.shortlistBatch(0).bytesIn, m.shortlistBatch(1).bytesIn);
    EXPECT_EQ(m.rerankBatch(0).bytesIn, m.rerankBatch(1).bytesIn);
}

TEST(WorkloadModel, ClusterSizeIsDatabaseOverCentroids)
{
    CbirWorkloadModel m(paperScale());
    EXPECT_EQ(m.clusterSizeIds(), 1'000'000'000u / 1000u);
}

TEST(WorkloadModel, ExpectedDistinctClustersProperties)
{
    // Degenerate inputs.
    EXPECT_EQ(expectedDistinctProbedClusters(0, 0, 16), 0.0);
    EXPECT_EQ(expectedDistinctProbedClusters(100, 0, 0), 0.0);
    // One probe hits exactly one cluster at any skew.
    EXPECT_NEAR(expectedDistinctProbedClusters(1000, 0, 1), 1.0, 1e-9);
    EXPECT_NEAR(expectedDistinctProbedClusters(1000, 1.0, 1), 1.0,
                1e-9);
    // Monotone in probes, bounded by both probes and cluster count.
    double prev = 0;
    for (double probes : {1.0, 8.0, 64.0, 512.0, 4096.0}) {
        double d = expectedDistinctProbedClusters(256, 0, probes);
        EXPECT_GT(d, prev) << "probes=" << probes;
        EXPECT_LE(d, std::min(probes, 256.0) + 1e-9);
        prev = d;
    }
    // Skew concentrates probes on hot clusters: fewer distinct hits.
    EXPECT_LT(expectedDistinctProbedClusters(256, 1.0, 128),
              expectedDistinctProbedClusters(256, 0, 128));
    // Saturation: far more probes than clusters reaches ~all of them.
    EXPECT_NEAR(expectedDistinctProbedClusters(64, 0, 1e5), 64.0,
                1e-6);
}

namespace
{

/**
 * A scale where the candidate budget spans all nprobe clusters (1000
 * ids per cluster, budget 8000), so the batched scan has real
 * cross-query block sharing to amortize.
 */
ScaleConfig
batchedScale()
{
    ScaleConfig s;
    s.databaseVectors = 1'000'000;
    s.numCentroids = 1000;
    s.batchSize = 32;
    s.nprobe = 8;
    s.rerankCandidates = 8000;
    s.pq.enabled = true;
    s.pq.m = 32;
    s.pq.bits = 4;
    s.pq.refine = 0;
    s.batchedRerank = true;
    s.probeZipfS = 1.0;
    return s;
}

} // namespace

TEST(WorkloadModel, BatchedRerankChargesDistinctClusterBytes)
{
    ScaleConfig s = batchedScale();
    CbirWorkloadModel m(s);
    auto w = m.rerankBatch(1);

    // Hand evaluation of the documented accounting: each query's
    // budget reaches all 8 probes, the batch draws 32 * 8 probes, and
    // every distinct cluster hit streams its 1000-id block once
    // (16 B/code at m = 32 x 4 bits) plus one 512 B u8 table per
    // query.
    const double distinct =
        expectedDistinctProbedClusters(1000, 1.0, 32.0 * 8.0);
    const auto code_bytes =
        static_cast<std::uint64_t>(distinct * 1000.0) * 16;
    const std::uint64_t lut_bytes = 32ull * 32 * 16;
    EXPECT_EQ(w.bytesIn, code_bytes + lut_bytes);

    // Only the traffic accounting moves; compute and outputs do not.
    ScaleConfig qs = s;
    qs.batchedRerank = false;
    CbirWorkloadModel q(qs);
    auto qw = q.rerankBatch(1);
    EXPECT_EQ(w.ops, qw.ops);
    EXPECT_EQ(w.bytesOut, qw.bytesOut);
    // Skewed probes overlap heavily, so the batched stream beats the
    // per-query scan (32 x 8000 codes) by a wide margin.
    EXPECT_EQ(qw.bytesIn, 32ull * 8000 * 16);
    EXPECT_LT(w.bytesIn, qw.bytesIn);
}

TEST(WorkloadModel, BatchedRerankSkewReducesTraffic)
{
    ScaleConfig skewed = batchedScale();
    ScaleConfig uniform = batchedScale();
    uniform.probeZipfS = 0;
    CbirWorkloadModel a(skewed), b(uniform);
    // Uniform probes rarely collide; Zipf probes share hot blocks.
    EXPECT_LT(a.rerankBatch(1).bytesIn, b.rerankBatch(1).bytesIn);
}

TEST(WorkloadModel, BatchedRerankIgnoredWithoutPq)
{
    ScaleConfig s = paperScale();
    s.batchedRerank = true;
    CbirWorkloadModel batched(s);
    CbirWorkloadModel exact(paperScale());
    // The exact pipeline has no code blocks to amortize: the flag is
    // inert.
    EXPECT_EQ(batched.rerankBatch(1).bytesIn,
              exact.rerankBatch(1).bytesIn);
    EXPECT_EQ(batched.rerankBatch(1).ops, exact.rerankBatch(1).ops);
}

/** Property: all work units scale sanely across partition counts. */
class WorkloadPartitions : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(WorkloadPartitions, ConservationAcrossPartitions)
{
    std::uint32_t p = GetParam();
    CbirWorkloadModel m(paperScale());

    auto sl = m.shortlistBatch(p);
    auto rr = m.rerankBatch(p);
    auto sl1 = m.shortlistBatch(1);
    auto rr1 = m.rerankBatch(1);

    EXPECT_NEAR(static_cast<double>(sl.bytesIn) * p,
                static_cast<double>(sl1.bytesIn),
                static_cast<double>(sl1.bytesIn) * 0.02);
    EXPECT_NEAR(static_cast<double>(rr.bytesIn) * p,
                static_cast<double>(rr1.bytesIn),
                static_cast<double>(rr1.bytesIn) * 0.02);

    ScaleConfig ps = paperScale();
    ps.pq.enabled = true;
    CbirWorkloadModel pm(ps);
    auto prr = pm.rerankBatch(p);
    auto prr1 = pm.rerankBatch(1);
    EXPECT_NEAR(static_cast<double>(prr.bytesIn) * p,
                static_cast<double>(prr1.bytesIn),
                static_cast<double>(prr1.bytesIn) * 0.02);

    CbirWorkloadModel bm(batchedScale());
    auto brr = bm.rerankBatch(p);
    auto brr1 = bm.rerankBatch(1);
    EXPECT_NEAR(static_cast<double>(brr.bytesIn) * p,
                static_cast<double>(brr1.bytesIn),
                static_cast<double>(brr1.bytesIn) * 0.02);
}

INSTANTIATE_TEST_SUITE_P(Partitions, WorkloadPartitions,
                         ::testing::Values(1, 2, 4, 8, 16));
