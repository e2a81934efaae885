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
 * once. lowerPlan() is that one place: both execution paths feed it
 * their address resolver and schedule the engine::ColumnSteps it
 * returns, so the figure workloads and the fc_read library cannot
 * drift apart in how they translate plans to silicon.
 */

#ifndef FCOS_CORE_LOWERING_H
#define FCOS_CORE_LOWERING_H

#include <cstdint>
#include <functional>
#include <vector>

#include "core/plan.h"
#include "engine/scheduler.h"
#include "nand/chip.h"
#include "nand/command.h"

namespace fcos::core {

/** Physical binding of a plan's literals for one page column. */
struct LoweringContext
{
    /** Target plane of every lowered command. */
    std::uint32_t plane = 0;
    /** Wordline of a literal's stored page on this column. */
    std::function<nand::WordlineAddr(VectorId)> addrOf;
    /** Storage polarity (XOR plans fold it into the sensing mode). */
    std::function<bool(VectorId)> storedInverted;
    /** The column's die, whose shape prices every step
     *  (engine::ColumnStep::cost); only its cost functions are read. */
    const nand::NandChip *chip = nullptr;
};

/**
 * Lower @p plan (Kind::Mws or Kind::Xor; fallback plans have no chip
 * execution) to an ordered step list against one plane's latch pair:
 * StepKind::Sense steps (an MWS sense, followed by the legacy
 * cache-read OR transfer of Figure 6(c) for an OR merge) and
 * StepKind::LatchXor steps (on-chip C := S XOR C), each carrying its
 * cost.
 */
std::vector<engine::ColumnStep> lowerPlan(const MwsPlan &plan,
                                          const LoweringContext &ctx);

} // namespace fcos::core

#endif // FCOS_CORE_LOWERING_H
