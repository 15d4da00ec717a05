/**
 * @file
 * Tests of the streaming-bandwidth calibration: the detailed DDR4
 * model should sustain a large fraction of pin bandwidth for
 * sequential streams, scale with channel count, and the calibration
 * result feeds the bulk-link model.
 */

#include <gtest/gtest.h>

#include "mem/calibration.hh"

using namespace reach;
using namespace reach::mem;

namespace
{

DramTimings
quietRefresh()
{
    DramTimings t;
    return t; // default DDR4-2400 including refresh
}

} // namespace

TEST(Calibration, SingleChannelSustainsMostOfPeak)
{
    auto cal = measureStreamingBandwidth(quietRefresh(), 1, 1,
                                         2 << 20);
    EXPECT_GT(cal.bandwidth, 0.70 * quietRefresh().peakBandwidth());
    EXPECT_LE(cal.bandwidth, quietRefresh().peakBandwidth());
    EXPECT_GT(cal.efficiency, 0.70);
    EXPECT_LE(cal.efficiency, 1.0);
}

TEST(Calibration, TwoChannelsRoughlyDouble)
{
    auto one = measureStreamingBandwidth(quietRefresh(), 1, 2,
                                         2 << 20);
    auto two = measureStreamingBandwidth(quietRefresh(), 2, 2,
                                         4 << 20);
    EXPECT_GT(two.bandwidth, 1.7 * one.bandwidth);
    EXPECT_LT(two.bandwidth, 2.2 * one.bandwidth);
}

TEST(Calibration, TileInterleaveStreamsAtChannelRate)
{
    // With 1 MiB tiles, a sequential stream has one tile (one DIMM,
    // one channel) in flight at a time — the controller's 64-entry
    // lookahead cannot span a tile boundary — so sustained bandwidth
    // approaches a single channel's rate, not the aggregate. This is
    // exactly why the GAM interleaves the *host* region at cache-line
    // granularity (paper §III-B).
    auto cal = measureStreamingBandwidth(quietRefresh(), 2, 2,
                                         4 << 20, 1 << 20);
    EXPECT_GT(cal.bandwidth, 0.80 * quietRefresh().peakBandwidth());
    EXPECT_LT(cal.bandwidth, 1.2 * quietRefresh().peakBandwidth());
}

TEST(Calibration, MatchesTableTwoExpectations)
{
    // Table II: DDR4 channels at ~19.2 GB/s pin rate; the calibrated
    // host stream across 2 channels should land in the low-30s GB/s,
    // which is what the paper's on-chip shortlist stage is bound by.
    auto cal =
        measureStreamingBandwidth(quietRefresh(), 2, 2, 8 << 20);
    EXPECT_GT(cal.bandwidth, 30e9);
    EXPECT_LT(cal.bandwidth, 38.4e9);
}

TEST(Calibration, MemoMatchesDirectMeasurement)
{
    // A non-default topology: 3 channels x 1 DIMM.
    auto direct = measureStreamingBandwidth(quietRefresh(), 3, 1);
    auto first = calibratedStreamingBandwidth(quietRefresh(), 3, 1);
    auto again = calibratedStreamingBandwidth(quietRefresh(), 3, 1);
    EXPECT_EQ(first.bandwidth, direct.bandwidth);
    EXPECT_EQ(first.efficiency, direct.efficiency);
    EXPECT_EQ(again.bandwidth, direct.bandwidth);
    EXPECT_EQ(again.efficiency, direct.efficiency);
}

TEST(Calibration, MemoKeyCoversTimings)
{
    // Same topology, one timing changed: the memo must measure again
    // rather than hand back the default-timing result.
    DramTimings slow = quietRefresh();
    slow.tCL += 10 * slow.tCK;
    auto base = calibratedStreamingBandwidth(quietRefresh(), 1, 2);
    auto changed = calibratedStreamingBandwidth(slow, 1, 2);
    EXPECT_NE(changed.bandwidth, base.bandwidth);
    EXPECT_EQ(changed.bandwidth,
              measureStreamingBandwidth(slow, 1, 2).bandwidth);
}
