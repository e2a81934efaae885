#include "core/lowering.h"

#include "util/log.h"

namespace fcos::core {

namespace {

/** A Sense step: execute @p cmd, then, for an OR merge, the legacy
 *  cache-read OR transfer (Figure 6(c)). */
engine::ColumnStep
sense(const LoweringContext &ctx, nand::MwsCommand cmd,
      bool or_merge_after = false)
{
    const nand::OpResult cost = ctx.chip->mwsCost(cmd);
    return {engine::StepKind::Sense,
            [cmd = std::move(cmd), or_merge_after](nand::NandChip &chip) {
                nand::OpResult r = chip.executeMws(cmd);
                if (or_merge_after)
                    chip.latches(cmd.plane).dumpOrMerge();
                return r;
            },
            0, 0, cost};
}

/** A LatchXor step on @p ctx's plane: C := S XOR C. */
engine::ColumnStep
latchXor(const LoweringContext &ctx)
{
    return {engine::StepKind::LatchXor,
            [plane = ctx.plane](nand::NandChip &chip) {
                return chip.executeXor(plane);
            },
            0, 0, ctx.chip->xorCost()};
}

std::vector<engine::ColumnStep>
lowerXor(const MwsPlan &plan, const LoweringContext &ctx)
{
    fcos_assert(plan.xorMembers.size() >= 2, "degenerate XOR plan");
    std::vector<engine::ColumnStep> steps;
    for (std::size_t i = 0; i < plan.xorMembers.size(); ++i) {
        const Literal &l = plan.xorMembers[i];
        bool first_op = (i == 0);
        bool last = (i + 1 == plan.xorMembers.size());
        const nand::WordlineAddr a = ctx.addrOf(l.id);
        bool stored_mismatch =
            ctx.storedInverted(l.id) != l.negated; // stored != literal
        nand::MwsCommand cmd;
        cmd.plane = ctx.plane;
        // The overall parity folds into the last member's sense.
        cmd.flags.inverseRead = stored_mismatch ^ (last && plan.xorInvert);
        cmd.flags.initSenseLatch = true;
        cmd.flags.initCacheLatch = first_op;
        cmd.flags.dumpToCache = first_op;
        cmd.selections.push_back(
            nand::WlSelection{a.block, a.subBlock, 1ULL << a.wordline});
        steps.push_back(sense(ctx, std::move(cmd)));
        if (i > 0)
            steps.push_back(latchXor(ctx));
    }
    return steps;
}

} // namespace

std::vector<engine::ColumnStep>
lowerPlan(const MwsPlan &plan, const LoweringContext &ctx)
{
    fcos_assert(ctx.addrOf != nullptr, "lowering without address binding");
    fcos_assert(ctx.chip != nullptr, "lowering without a die to price it");
    if (plan.kind == MwsPlan::Kind::Xor) {
        fcos_assert(ctx.storedInverted != nullptr,
                    "XOR lowering needs storage polarity");
        return lowerXor(plan, ctx);
    }
    fcos_assert(plan.kind == MwsPlan::Kind::Mws,
                "fallback plans have no chip lowering");

    std::vector<engine::ColumnStep> steps;
    for (const PlanCommand &pc : plan.commands) {
        nand::MwsCommand cmd;
        cmd.plane = ctx.plane;
        cmd.flags.inverseRead = pc.inverse;
        cmd.flags.initSenseLatch = true;
        bool or_merge_after = false;
        switch (pc.merge) {
          case MergeMode::Copy:
            cmd.flags.initCacheLatch = true;
            cmd.flags.dumpToCache = true;
            break;
          case MergeMode::And:
            cmd.flags.initCacheLatch = false;
            cmd.flags.dumpToCache = true;
            break;
          case MergeMode::Or:
            cmd.flags.initCacheLatch = false;
            cmd.flags.dumpToCache = false;
            or_merge_after = true;
            break;
        }
        for (const PlanString &str : pc.strings) {
            fcos_assert(!str.members.empty(), "empty plan string");
            const nand::WordlineAddr a0 = ctx.addrOf(str.members[0].id);
            nand::WlSelection sel{a0.block, a0.subBlock, 0};
            for (const Literal &m : str.members) {
                const nand::WordlineAddr a = ctx.addrOf(m.id);
                fcos_assert(a.block == sel.block &&
                                a.subBlock == sel.subBlock,
                            "string members not co-located "
                            "(planner/placement bug)");
                sel.wlMask |= 1ULL << a.wordline;
            }
            cmd.selections.push_back(sel);
        }
        steps.push_back(sense(ctx, std::move(cmd), or_merge_after));
    }

    return steps;
}

} // namespace fcos::core
