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

class ChipFarm
{
  public:
    /** One die per (channel, die) of @p cfg. A die keeps a wide page
     *  as its descriptor until a sense materializes it, so Table-1
     *  farms fit in tests (nand/cell_array.h). */
    explicit ChipFarm(const ssd::SsdConfig &cfg);

    const ssd::SsdConfig &config() const { return cfg_; }
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
    ssd::SsdConfig cfg_;
    std::vector<std::unique_ptr<nand::NandChip>> chips_;
};

} // namespace fcos::engine

#endif // FCOS_ENGINE_CHIP_FARM_H
