/**
 * @file
 * Lowers compiled MwsPlans to concrete chip commands.
 *
 * The planner (core/planner.h) reasons over abstract vector ids; a
 * plan becomes executable once every literal is bound to a physical
 * wordline. That binding differs per consumer — FlashCosmosDrive binds
 * through its FTL placement per page column, the platform runner's
 * functional mode binds through its own batch layout — but the mapping
 * from PlanCommands / XOR chains to MWS command bytes, ISCM flags, OR
 * dumps and latch XORs is hardware semantics and must exist exactly
 * once. lowerPlan() is that one place, and LoweredStep::run() the one
 * executor of its steps: both execution paths feed it their address
 * resolver and run the resulting step list, so the figure workloads
 * and the fc_read library cannot drift apart in how they translate
 * plans to silicon.
 */

#ifndef FCOS_CORE_LOWERING_H
#define FCOS_CORE_LOWERING_H

#include <cstdint>
#include <functional>
#include <vector>

#include "core/plan.h"
#include "nand/chip.h"
#include "nand/command.h"

namespace fcos::core {

/** One die-local step of a lowered plan. */
struct LoweredStep
{
    enum class Kind : std::uint8_t
    {
        Sense,    ///< execute cmd (an MWS sense)
        LatchXor, ///< on-chip C := S XOR C
    };

    Kind kind = Kind::Sense;
    /** The MWS sense (Kind::Sense); for Kind::LatchXor only cmd.plane. */
    nand::MwsCommand cmd;
    /** Legacy cache-read OR transfer (Figure 6(c)) after the sense. */
    bool orMergeAfter = false;

    /** Execute this step on @p chip: the sense and its OR transfer, or
     *  the latch XOR. */
    nand::OpResult run(nand::NandChip &chip) const;
};

/** Physical binding of a plan's literals for one page column. */
struct LoweringContext
{
    /** Target plane of every lowered command. */
    std::uint32_t plane = 0;
    /** Wordline of a literal's stored page on this column. */
    std::function<nand::WordlineAddr(VectorId)> addrOf;
    /** Storage polarity (XOR plans fold it into the sensing mode). */
    std::function<bool(VectorId)> storedInverted;
    /** Reserved never-programmed wordline (senses all-'1'), required
     *  when the plan ends in a final NOT; may be null otherwise. */
    const nand::WordlineAddr *erasedRef = nullptr;
};

/**
 * Lower @p plan (Kind::Mws or Kind::Xor; fallback plans have no chip
 * execution) to an ordered step list against one plane's latch pair.
 */
std::vector<LoweredStep> lowerPlan(const MwsPlan &plan,
                                   const LoweringContext &ctx);

} // namespace fcos::core

#endif // FCOS_CORE_LOWERING_H
