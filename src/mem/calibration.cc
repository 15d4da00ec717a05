#include "calibration.hh"

#include <map>
#include <mutex>
#include <tuple>

#include "mem/memory_system.hh"
#include "sim/simulator.hh"

namespace reach::mem
{

namespace
{

/** Everything a default-size stream measurement depends on. */
auto
calibrationKey(const DramTimings &t, std::uint32_t channels,
               std::uint32_t dimms_per_channel)
{
    return std::make_tuple(
        t.tCK, t.tRCD, t.tRP, t.tCL, t.tCWL, t.tBL, t.tRAS, t.tRRD,
        t.tFAW, t.tWR, t.tREFI, t.tRFC, t.banksPerRank, t.ranksPerDimm,
        t.rowBytes, t.capacityBytes, t.actPreEnergyPj,
        t.readBurstEnergyPj, t.writeBurstEnergyPj, t.backgroundPowerW,
        channels, dimms_per_channel);
}

// A field added to DramTimings must join the key above; this trips
// when the struct grows.
static_assert(sizeof(DramTimings) == 12 * sizeof(sim::Tick) +
                                         2 * sizeof(std::uint32_t) +
                                         2 * sizeof(std::uint64_t) +
                                         4 * sizeof(double),
              "calibrationKey() must cover every DramTimings field");

using CalibrationKey = decltype(calibrationKey(DramTimings{}, 0, 0));

} // namespace

StreamCalibration
measureStreamingBandwidth(const DramTimings &timings,
                          std::uint32_t channels,
                          std::uint32_t dimms_per_channel,
                          std::uint64_t bytes,
                          std::uint64_t interleave_bytes)
{
    sim::Simulator sim;
    MemorySystemConfig cfg;
    cfg.numChannels = channels;
    cfg.dimmsPerChannel = dimms_per_channel;
    cfg.dimmTimings = timings;

    MemorySystem mem(sim, "calib", cfg);

    std::vector<DimmRef> units;
    for (std::uint32_t c = 0; c < channels; ++c)
        for (std::uint32_t d = 0; d < dimms_per_channel; ++d)
            units.push_back({c, d});

    Addr base = mem.addRegion("stream", bytes, units, interleave_bytes);

    sim::Tick finish = 0;
    mem.accessRange(base, bytes, false, Requester::Dma,
                    [&finish](sim::Tick t) { finish = t; });
    sim.run();

    StreamCalibration out;
    if (finish > 0) {
        out.bandwidth = static_cast<double>(bytes) /
                        sim::secondsFromTicks(finish);
        double peak =
            timings.peakBandwidth() * channels;
        out.efficiency = out.bandwidth / peak;
    }
    return out;
}

StreamCalibration
calibratedStreamingBandwidth(const DramTimings &timings,
                             std::uint32_t channels,
                             std::uint32_t dimms_per_channel)
{
    static std::mutex lock;
    static std::map<CalibrationKey, StreamCalibration> memo;

    // The lock is held across the measurement, so machines built
    // concurrently still simulate each topology once.
    std::lock_guard<std::mutex> guard(lock);
    CalibrationKey key =
        calibrationKey(timings, channels, dimms_per_channel);
    auto it = memo.find(key);
    if (it == memo.end()) {
        it = memo.emplace(key, measureStreamingBandwidth(
                                   timings, channels, dimms_per_channel))
                 .first;
    }
    return it->second;
}

} // namespace reach::mem
