#include "core/lowering.h"

#include "util/log.h"

namespace fcos::core {

namespace {

LoweredStep
latchXor(std::uint32_t plane)
{
    LoweredStep s;
    s.kind = LoweredStep::Kind::LatchXor;
    s.cmd.plane = plane;
    return s;
}

std::vector<LoweredStep>
lowerXor(const MwsPlan &plan, const LoweringContext &ctx)
{
    fcos_assert(plan.xorMembers.size() >= 2, "degenerate XOR plan");
    std::vector<LoweredStep> steps;
    for (std::size_t i = 0; i < plan.xorMembers.size(); ++i) {
        const Literal &l = plan.xorMembers[i];
        bool first_op = (i == 0);
        bool last = (i + 1 == plan.xorMembers.size());
        const nand::WordlineAddr a = ctx.addrOf(l.id);
        bool stored_mismatch =
            ctx.storedInverted(l.id) != l.negated; // stored != literal
        LoweredStep s;
        s.cmd.plane = ctx.plane;
        // The overall parity folds into the last member's sense.
        s.cmd.flags.inverseRead =
            stored_mismatch ^ (last && plan.xorInvert);
        s.cmd.flags.initSenseLatch = true;
        s.cmd.flags.initCacheLatch = first_op;
        s.cmd.flags.dumpToCache = first_op;
        s.cmd.selections.push_back(
            nand::WlSelection{a.block, a.subBlock, 1ULL << a.wordline});
        steps.push_back(std::move(s));
        if (i > 0)
            steps.push_back(latchXor(ctx.plane));
    }
    return steps;
}

} // namespace

nand::OpResult
LoweredStep::run(nand::NandChip &chip) const
{
    if (kind == Kind::LatchXor)
        return chip.executeXor(cmd.plane);
    nand::OpResult r = chip.executeMws(cmd);
    if (orMergeAfter)
        chip.latches(cmd.plane).dumpOrMerge();
    return r;
}

std::vector<LoweredStep>
lowerPlan(const MwsPlan &plan, const LoweringContext &ctx)
{
    fcos_assert(ctx.addrOf != nullptr, "lowering without address binding");
    if (plan.kind == MwsPlan::Kind::Xor) {
        fcos_assert(ctx.storedInverted != nullptr,
                    "XOR lowering needs storage polarity");
        return lowerXor(plan, ctx);
    }
    fcos_assert(plan.kind == MwsPlan::Kind::Mws,
                "fallback plans have no chip lowering");

    std::vector<LoweredStep> steps;
    for (const PlanCommand &pc : plan.commands) {
        LoweredStep s;
        s.cmd.plane = ctx.plane;
        s.cmd.flags.inverseRead = pc.inverse;
        s.cmd.flags.initSenseLatch = true;
        switch (pc.merge) {
          case MergeMode::Copy:
            s.cmd.flags.initCacheLatch = true;
            s.cmd.flags.dumpToCache = true;
            break;
          case MergeMode::And:
            s.cmd.flags.initCacheLatch = false;
            s.cmd.flags.dumpToCache = true;
            break;
          case MergeMode::Or:
            s.cmd.flags.initCacheLatch = false;
            s.cmd.flags.dumpToCache = false;
            s.orMergeAfter = true;
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
            s.cmd.selections.push_back(sel);
        }
        steps.push_back(std::move(s));
    }

    if (plan.finalInvert) {
        // Sense the reserved erased wordline (reads all-'1'), then
        // XOR it into the cache latch: C := NOT C.
        fcos_assert(ctx.erasedRef != nullptr,
                    "final NOT requires an erased reference wordline");
        const nand::WordlineAddr &e = *ctx.erasedRef;
        LoweredStep s;
        s.cmd.plane = ctx.plane;
        s.cmd.flags.inverseRead = false;
        s.cmd.flags.initSenseLatch = true;
        s.cmd.flags.initCacheLatch = false;
        s.cmd.flags.dumpToCache = false;
        s.cmd.selections.push_back(
            nand::WlSelection{e.block, e.subBlock, 1ULL << e.wordline});
        steps.push_back(std::move(s));
        steps.push_back(latchXor(ctx.plane));
    }

    return steps;
}

} // namespace fcos::core
