/**
 * @file
 * Flash-Cosmos SSD firmware (paper Section 6.3, "SSD changes").
 *
 * The firmware is the layer the host's fc_write / fc_read library
 * talks to. It
 *
 *  - translates host requests into Flash-Cosmos command sequences
 *    (delegating plan compilation to the drive's planner),
 *  - executes them *functionally* on the NAND dies (bit-exact data
 *    through the latch models), and
 *  - accounts every transfer and array operation on the event-driven
 *    timing simulator, so a request returns both its result and its
 *    completion time on the configured SSD.
 *
 * This closes the loop between the functional and timing models (see
 * README.md, "Unified execution path"): the command stream the timing
 * model charges for is exactly the stream the functional model
 * executed.
 */

#ifndef FCOS_CORE_FIRMWARE_H
#define FCOS_CORE_FIRMWARE_H

#include <cstdint>

#include "core/drive.h"
#include "ssd/ssd_sim.h"

namespace fcos::core {

class FcFirmware
{
  public:
    /**
     * @param drive  functional drive (owns the dies and the FTL)
     * @param cfg    timing configuration; geometry is taken from the
     *               drive, bandwidths/latencies from @p cfg. If the
     *               channel shape does not cover the drive's dies,
     *               all dies are placed on one channel.
     */
    FcFirmware(FlashCosmosDrive &drive, const ssd::SsdConfig &cfg);

    /** The timing simulator (for energy / busy-time inspection). */
    ssd::SsdSim &sim() { return sim_; }
    const ssd::SsdConfig &config() const { return cfg_; }

    struct WriteResult
    {
        VectorId id = 0;
        Time completedAt = 0;
    };

    /** Timed fc_write: host -> SSD -> die data-in, ESP programming. */
    WriteResult fcWrite(const BitVector &data,
                        const FlashCosmosDrive::WriteOptions &opts);

    struct ReadResult
    {
        BitVector data;
        Time completedAt = 0;
        FlashCosmosDrive::ReadStats stats;
    };

    /**
     * Timed fc_read: MWS command chains on the planes, result pages
     * over channel + external link.
     */
    ReadResult fcRead(const Expr &expr);

  private:
    static ssd::SsdConfig mergedConfig(FlashCosmosDrive &drive,
                                       ssd::SsdConfig cfg);

    /** Timing-simulator plane index of a physical page. */
    std::uint32_t planeIndex(const ssd::PhysPage &page) const;

    FlashCosmosDrive &drive_;
    ssd::SsdConfig cfg_;
    ssd::SsdSim sim_;
};

} // namespace fcos::core

#endif // FCOS_CORE_FIRMWARE_H
