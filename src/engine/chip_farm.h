/**
 * @file
 * A farm of functional NAND dies arranged as channels x dies — the
 * physical substrate of the multi-die compute engine.
 *
 * The farm owns one NandChip per die plus the channel topology the
 * scheduler books time on. It is purely structural: which die sits on
 * which channel, how (die, plane) columns are numbered, and where the
 * chips live. All timing lives in the scheduler; all data lives in the
 * chips.
 *
 * Column numbering matches the FTL's striping order so that page j of
 * a striped vector lands on column (j mod columnCount()):
 *
 *   column = die * planesPerDie + plane
 */

#ifndef FCOS_ENGINE_CHIP_FARM_H
#define FCOS_ENGINE_CHIP_FARM_H

#include <cstdint>
#include <memory>
#include <vector>

#include "nand/chip.h"
#include "nand/geometry.h"
#include "ssd/config.h"

namespace fcos::engine {

/** Shape and rates of the die farm (a Table 1 subset). */
struct FarmConfig
{
    std::uint32_t channels = 1;
    std::uint32_t diesPerChannel = 2;
    nand::Geometry geometry = nand::Geometry::tiny();
    nand::Timings timings{};

    /** Page-payload backend of every die. Sparse keeps descriptors
     *  instead of materialized pages, so Table-1 farms fit in tests;
     *  the two backends are bit-for-bit equivalent (page_store.h). */
    nand::PageStoreKind pageStore = nand::PageStoreKind::Sparse;

    /** I/O-rate/energy constants (ssd::SsdConfig::io via fromSsd). */
    ssd::IoParams io{};

    /** Host worker lanes sharding die functions during drain().
     *  0 = take the FCOS_WORKERS environment default, 1 = serial;
     *  any count yields bit-identical results (scheduler.h). */
    std::uint32_t workers = 0;

    std::uint32_t dieCount() const { return channels * diesPerChannel; }
    std::uint32_t columnCount() const
    {
        return dieCount() * geometry.planesPerDie;
    }

    /** The engine view of an SSD configuration — the one conversion
     *  point between the platforms layer and the chip farm. */
    static FarmConfig fromSsd(const ssd::SsdConfig &ssd)
    {
        FarmConfig fc;
        fc.channels = ssd.channels;
        fc.diesPerChannel = ssd.diesPerChannel;
        fc.geometry = ssd.geometry;
        fc.timings = ssd.timings;
        fc.pageStore = ssd.pageStore;
        fc.io = ssd.io;
        fc.workers = ssd.engineWorkers;
        return fc;
    }
};

class ChipFarm
{
  public:
    explicit ChipFarm(const FarmConfig &cfg);

    const FarmConfig &config() const { return cfg_; }
    const nand::Geometry &geometry() const { return cfg_.geometry; }

    std::uint32_t dieCount() const
    {
        return static_cast<std::uint32_t>(chips_.size());
    }
    std::uint32_t channelCount() const { return cfg_.channels; }

    /** Channel a die's I/O serializes on. */
    std::uint32_t channelOfDie(std::uint32_t die) const;

    nand::NandChip &chip(std::uint32_t die);
    const nand::NandChip &chip(std::uint32_t die) const;

    /** Attach/detach the error model on every die. */
    void setErrorInjector(nand::ErrorInjector *injector);

    // --- (die, plane) column numbering (matches ssd::Ftl striping) ---
    std::uint32_t columnCount() const { return cfg_.columnCount(); }
    std::uint32_t dieOfColumn(std::uint32_t column) const
    {
        return column / cfg_.geometry.planesPerDie;
    }
    std::uint32_t planeOfColumn(std::uint32_t column) const
    {
        return column % cfg_.geometry.planesPerDie;
    }

  private:
    FarmConfig cfg_;
    std::vector<std::unique_ptr<nand::NandChip>> chips_;
};

} // namespace fcos::engine

#endif // FCOS_ENGINE_CHIP_FARM_H
