/**
 * @file
 * Calibration of sustained DRAM streaming bandwidth.
 *
 * The system model resolves bulk accelerator traffic with link-level
 * reservations whose bandwidths must match what the detailed DDR4
 * model actually sustains. Instead of hard-coding a number, we run
 * the cycle-level controller/DIMM model on a streaming pattern and
 * measure it — the same calibrate-then-abstract methodology the
 * paper applies when it plugs synthesis-report numbers into PARADE.
 */

#ifndef REACH_MEM_CALIBRATION_HH
#define REACH_MEM_CALIBRATION_HH

#include <cstdint>

#include "mem/dram_timings.hh"

namespace reach::mem
{

struct StreamCalibration
{
    /** Sustained bytes/second measured on the detailed model. */
    double bandwidth = 0;
    /** Fraction of the pin-rate peak achieved. */
    double efficiency = 0;
};

/**
 * Stream @p bytes of sequential reads through a memory system with
 * the given channel/DIMM topology and measure sustained bandwidth.
 *
 * @param interleave_bytes Region interleave granularity.
 */
StreamCalibration measureStreamingBandwidth(
    const DramTimings &timings, std::uint32_t channels,
    std::uint32_t dimms_per_channel,
    std::uint64_t bytes = std::uint64_t(8) << 20,
    std::uint64_t interleave_bytes = 64);

/**
 * measureStreamingBandwidth() at its default stream size and
 * cache-line interleave, run once per distinct topology per process.
 *
 * The result depends only on @p timings, @p channels and
 * @p dimms_per_channel, so it is memoized on exactly those; later
 * calls return the first result bit for bit. Safe to call from
 * concurrent threads.
 */
StreamCalibration calibratedStreamingBandwidth(
    const DramTimings &timings, std::uint32_t channels,
    std::uint32_t dimms_per_channel);

} // namespace reach::mem

#endif // REACH_MEM_CALIBRATION_HH
