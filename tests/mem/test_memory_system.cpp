/**
 * @file
 * Unit tests for the memory complex: region carving, interleaving
 * semantics, range transfers with backpressure, and capacity checks.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/logging.hh"
#include "mem/memory_system.hh"
#include "sim/simulator.hh"

using namespace reach;
using namespace reach::mem;

namespace
{

MemorySystemConfig
smallConfig()
{
    MemorySystemConfig cfg;
    cfg.numChannels = 2;
    cfg.dimmsPerChannel = 2;
    cfg.dimmTimings.tREFI = 1'000'000'000;
    return cfg;
}

} // namespace

TEST(MemorySystem, RegionsGetDisjointBases)
{
    sim::Simulator sim;
    MemorySystem mem(sim, "mem", smallConfig());
    Addr a = mem.addRegion("a", 1 << 20, {{0, 0}, {1, 0}}, 64);
    Addr b = mem.addRegion("b", 1 << 20, {{0, 1}, {1, 1}}, 1 << 20);
    EXPECT_NE(a, b);
    EXPECT_GE(b, a + (1 << 20));
}

TEST(MemorySystem, EmptyRegionRejected)
{
    sim::Simulator sim;
    MemorySystem mem(sim, "mem", smallConfig());
    EXPECT_THROW(mem.addRegion("x", 0, {{0, 0}}, 64), sim::SimFatal);
    EXPECT_THROW(mem.addRegion("x", 64, {}, 64), sim::SimFatal);
}

TEST(MemorySystem, OutOfRangeUnitRejected)
{
    sim::Simulator sim;
    MemorySystem mem(sim, "mem", smallConfig());
    EXPECT_THROW(mem.addRegion("x", 64, {{5, 0}}, 64), sim::SimFatal);
    EXPECT_THROW(mem.addRegion("x", 64, {{0, 9}}, 64), sim::SimFatal);
}

TEST(MemorySystem, CapacityOverflowRejected)
{
    sim::Simulator sim;
    auto cfg = smallConfig();
    cfg.dimmTimings.capacityBytes = 1 << 20; // 1 MiB DIMMs
    MemorySystem mem(sim, "mem", cfg);
    EXPECT_THROW(
        mem.addRegion("big", std::uint64_t(16) << 20, {{0, 0}}, 64),
        sim::SimFatal);
}

TEST(MemorySystem, AccessOutsideAnyRegionPanics)
{
    sim::Simulator sim;
    MemorySystem mem(sim, "mem", smallConfig());
    mem.addRegion("a", 1 << 20, {{0, 0}}, 64);
    MemRequest r;
    r.addr = std::uint64_t(10) << 20;
    EXPECT_THROW(mem.access(r), sim::SimPanic);
}

TEST(MemorySystem, LineInterleaveAlternatesChannels)
{
    sim::Simulator sim;
    MemorySystem mem(sim, "mem", smallConfig());
    Addr base = mem.addRegion("a", 1 << 20, {{0, 0}, {1, 0}}, 64);
    EXPECT_EQ(mem.locate(base).channel, 0u);
    EXPECT_EQ(mem.locate(base + 64).channel, 1u);
    EXPECT_EQ(mem.locate(base + 128).channel, 0u);
}

TEST(MemorySystem, TileInterleaveKeepsTileOnOneDimm)
{
    sim::Simulator sim;
    MemorySystem mem(sim, "mem", smallConfig());
    const std::uint64_t tile = 1 << 20;
    Addr base = mem.addRegion("t", 8 * tile,
                              {{0, 0}, {0, 1}, {1, 0}, {1, 1}}, tile);
    DimmRef first = mem.locate(base);
    DimmRef last = mem.locate(base + tile - 64);
    EXPECT_EQ(first.channel, last.channel);
    EXPECT_EQ(first.dimm, last.dimm);
}

TEST(MemorySystem, SingleAccessCompletes)
{
    sim::Simulator sim;
    MemorySystem mem(sim, "mem", smallConfig());
    Addr base = mem.addRegion("a", 1 << 20, {{0, 0}, {1, 0}}, 64);

    sim::Tick done = 0;
    MemRequest r;
    r.addr = base + 64;
    r.onComplete = [&](sim::Tick t) { done = t; };
    ASSERT_TRUE(mem.access(r));
    sim.run();
    EXPECT_GT(done, 0u);
}

TEST(MemorySystem, AccessRangeCompletesOnceForAllLines)
{
    sim::Simulator sim;
    MemorySystem mem(sim, "mem", smallConfig());
    Addr base =
        mem.addRegion("a", 4 << 20, {{0, 0}, {0, 1}, {1, 0}, {1, 1}},
                      64);

    int calls = 0;
    sim::Tick done = 0;
    mem.accessRange(base, 1 << 20, false, Requester::Dma,
                    [&](sim::Tick t) {
                        ++calls;
                        done = t;
                    });
    sim.run();
    EXPECT_EQ(calls, 1);
    EXPECT_GT(done, 0u);

    // All four DIMMs participated.
    for (std::uint32_t c = 0; c < 2; ++c)
        for (std::uint32_t d = 0; d < 2; ++d)
            EXPECT_GT(mem.dimmAt({c, d}).dynamicEnergyPj(), 0.0);
}

TEST(MemorySystem, AccessRangeZeroBytesCompletesImmediately)
{
    sim::Simulator sim;
    MemorySystem mem(sim, "mem", smallConfig());
    mem.addRegion("a", 1 << 20, {{0, 0}}, 64);
    bool called = false;
    mem.accessRange(0, 0, false, Requester::Dma,
                    [&](sim::Tick) { called = true; });
    EXPECT_TRUE(called);
}

TEST(MemorySystem, LargerRangeTakesLonger)
{
    sim::Simulator sim;
    MemorySystem mem(sim, "mem", smallConfig());
    Addr base =
        mem.addRegion("a", 8 << 20, {{0, 0}, {0, 1}, {1, 0}, {1, 1}},
                      64);

    sim::Tick small_done = 0, big_done = 0;
    mem.accessRange(base, 64 << 10, false, Requester::Dma,
                    [&](sim::Tick t) { small_done = t; });
    sim.run();
    sim::Tick mid = sim.now();
    mem.accessRange(base, 2 << 20, false, Requester::Dma,
                    [&](sim::Tick t) { big_done = t; });
    sim.run();
    EXPECT_GT(big_done - mid, small_done);
}

TEST(MemorySystem, DramEnergyAggregatesAcrossDimms)
{
    sim::Simulator sim;
    MemorySystem mem(sim, "mem", smallConfig());
    Addr base = mem.addRegion("a", 1 << 20, {{0, 0}, {1, 0}}, 64);
    EXPECT_DOUBLE_EQ(mem.dramDynamicEnergyPj(), 0.0);
    mem.accessRange(base, 16 << 10, true, Requester::Dma, nullptr);
    sim.run();
    EXPECT_GT(mem.dramDynamicEnergyPj(), 0.0);
}

TEST(MemorySystem, HostTrafficProceedsDuringAimOwnership)
{
    // Memory-space isolation (paper §III-B) on the Table II layout:
    // 4 host + 4 AIM DIMMs over 2 channels, slots filled channel-
    // round-robin. The host region interleaves lines across the host
    // DIMMs; each AIM region lives on its own DIMM. Host traffic
    // flows while every AIM module owns its DIMM.
    sim::Simulator sim;
    MemorySystemConfig cfg;
    cfg.numChannels = 2;
    cfg.dimmsPerChannel = 4;
    MemorySystem mem(sim, "mem", cfg);

    auto slot = [](std::uint32_t s) { return DimmRef{s % 2, s / 2}; };
    std::vector<DimmRef> host_units;
    for (std::uint32_t s = 0; s < 4; ++s)
        host_units.push_back(slot(s));
    Addr host = mem.addRegion("host", 16 << 20, host_units,
                              cacheLineBytes);
    std::vector<Addr> aim_bases;
    for (std::uint32_t s = 4; s < 8; ++s) {
        aim_bases.push_back(mem.addRegion(
            "aimRegion" + std::to_string(s - 4), 4 << 20, {slot(s)},
            1 << 20));
        mem.dimmAt(slot(s)).setAccOwned(true);
    }

    // 32 consecutive lines: eight on each host DIMM.
    int done = 0;
    for (int i = 0; i < 32; ++i) {
        MemRequest r;
        r.addr = host + static_cast<Addr>(i) * cacheLineBytes;
        r.onComplete = [&done](sim::Tick) { ++done; };
        ASSERT_TRUE(mem.access(r));
    }
    sim.run();
    EXPECT_EQ(done, 32);

    // The isolation is real: a host access into an owned AIM region
    // is refused.
    for (Addr base : aim_bases) {
        MemRequest r;
        r.addr = base;
        EXPECT_THROW(mem.access(r), sim::SimPanic);
    }
}
