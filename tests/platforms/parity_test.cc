/**
 * @file
 * Functional parity: runFcFunctional materializes operand pages on
 * the farm's chips, executes real MWS commands through the engine,
 * and must (i) reproduce the host-side reference fold bit-exactly and
 * (ii) land on the timing-only driver's makespan — one run certifies
 * that figure timelines and functional bits come from one execution.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/plan.h"
#include "platforms/runner.h"

namespace fcos::plat {
namespace {

/** A small SSD whose workloads materialize in memory. */
ssd::SsdConfig
smallSsd()
{
    ssd::SsdConfig cfg;
    cfg.channels = 2;
    cfg.dies = 2;
    cfg.geometry = nand::Geometry::tiny(); // 2 planes, 32-B pages
    return cfg;
}

/** Workload of one batch with @p rows result pages per plane column. */
wl::Workload
batchWorkload(std::uint64_t and_ops, std::uint64_t or_ops,
              std::uint64_t rows, const ssd::SsdConfig &cfg)
{
    wl::Workload w;
    w.name = and_ops ? (or_ops ? "MIX" : "AND") : "OR";
    w.paramName = "ops";
    w.paramValue = and_ops + or_ops;
    wl::OpBatch b;
    b.andOperands = and_ops;
    b.orOperands = or_ops;
    b.operandBytes =
        rows * cfg.geometry.pageBytes * cfg.columnCount();
    b.resultToHost = true;
    b.hostPostProcess = false;
    w.batches.push_back(b);
    return w;
}

wl::Workload
andWorkload(std::uint64_t operands, std::uint64_t rows,
            const ssd::SsdConfig &cfg)
{
    return batchWorkload(operands, 0, rows, cfg);
}

TEST(FunctionalParityTest, MaterializedRunIsBitExact)
{
    ssd::SsdConfig cfg = smallSsd();
    PlatformRunner runner(cfg);
    wl::Workload w = andWorkload(5, 2, cfg);

    PlatformRunner::FunctionalRun fr = runner.runFcFunctional(w, 11);
    ASSERT_EQ(fr.result.size(), fr.expected.size());
    EXPECT_GT(fr.result.size(), 0u);
    EXPECT_TRUE(fr.bitExact());

    // Same seed => same bits and same timeline; different seed =>
    // different bits (the check is not vacuous).
    PlatformRunner::FunctionalRun again = runner.runFcFunctional(w, 11);
    EXPECT_EQ(again.result, fr.result);
    EXPECT_EQ(again.timing.makespan, fr.timing.makespan);
    EXPECT_EQ(again.timing.energyJ, fr.timing.energyJ);
    PlatformRunner::FunctionalRun other = runner.runFcFunctional(w, 12);
    EXPECT_NE(other.result, fr.result);
}

TEST(FunctionalParityTest, MaterializedTimelineMatchesTimingDriver)
{
    // One result row per plane: the materialized chain (MWS ->
    // per-page readout -> external -> host) is event-for-event the
    // timing-only driver's chain, so the makespans must be *equal*.
    ssd::SsdConfig cfg = smallSsd();
    PlatformRunner runner(cfg);
    wl::Workload w = andWorkload(6, 1, cfg);

    PlatformRunner::FunctionalRun fr = runner.runFcFunctional(w, 3);
    EXPECT_TRUE(fr.bitExact());
    RunResult timing = runner.run(PlatformKind::FlashCosmos, w);
    EXPECT_EQ(fr.timing.makespan, timing.makespan);
    EXPECT_EQ(fr.timing.senseOps, timing.senseOps);

    // Multi-row columns chunk readout differently (per page vs per
    // chunk), so makespans may differ slightly — but stay within 2%.
    wl::Workload w2 = andWorkload(5, 2, cfg);
    PlatformRunner::FunctionalRun fr2 = runner.runFcFunctional(w2, 3);
    RunResult t2 = runner.run(PlatformKind::FlashCosmos, w2);
    EXPECT_EQ(fr2.timing.senseOps, t2.senseOps);
    double a = static_cast<double>(fr2.timing.makespan);
    double b = static_cast<double>(t2.makespan);
    EXPECT_LE(std::abs(a - b) / std::max(a, b), 0.02);
}

/** Certify one batch shape: bit-exact against the host reference and
 *  event-for-event on the timing driver's timeline (one row per
 *  plane => the chains are identical, so makespan and sense counts
 *  must be *equal*, not merely close). */
void
certifyFunctional(const ssd::SsdConfig &cfg, std::uint64_t and_ops,
                  std::uint64_t or_ops, std::uint64_t seed)
{
    PlatformRunner runner(cfg);
    wl::Workload w = batchWorkload(and_ops, or_ops, 1, cfg);
    PlatformRunner::FunctionalRun fr = runner.runFcFunctional(w, seed);
    ASSERT_GT(fr.result.size(), 0u);
    EXPECT_TRUE(fr.bitExact());
    RunResult timing = runner.run(PlatformKind::FlashCosmos, w);
    EXPECT_EQ(fr.timing.senseOps, timing.senseOps);
    EXPECT_EQ(fr.timing.makespan, timing.makespan);
}

TEST(FunctionalParityTest, OrBatchViaDeMorganIsBitExact)
{
    // The Figure 7 shape: pure OR of 3 vectors — operands stored
    // inverted, one inverse MWS per row (§6.1 De Morgan).
    certifyFunctional(smallSsd(), 0, 3, 21);
}

TEST(FunctionalParityTest, WideOrBatchChainsInverseCommands)
{
    // More OR operands than one string holds (tiny geometry: 8
    // wordlines/string): the planner must chain inverse commands with
    // OR-merge dumps, still matching fcSensesPerRow (= 2 here).
    certifyFunctional(smallSsd(), 0, 12, 22);
}

TEST(FunctionalParityTest, KcsFusionRowIsBitExact)
{
    // The KCS figure row: AND of k adjacency vectors with the clique
    // membership vector OR-ed in as an extra string — one MWS total.
    certifyFunctional(smallSsd(), 4, 1, 23);
    certifyFunctional(smallSsd(), 6, 3, 24);
}

TEST(FunctionalParityTest, WideMixedBatchSplitsOrCommands)
{
    // m = 5 OR operands exceed the KCS fusion's spare string slots
    // (kMaxStrings - 1 = 3): the planner must put the AND group in its
    // own command and split the OR operands into OR-merge commands of
    // up to kMaxStrings strings — 1 + ceil(5/4) = 3 commands per row,
    // exactly what fcSensesPerRow charges.
    ssd::SsdConfig cfg = smallSsd();
    EXPECT_EQ(PlatformRunner::fcSensesPerRow(
                  4, 5, cfg.maxIntraMwsWordlines(),
                  core::PlanCommand::kMaxStrings),
              3u);
    certifyFunctional(cfg, 4, 5, 25);
}

TEST(FunctionalParityTest, BmiRowSpansSubBlockChains)
{
    // A BMI-shaped row (AND of 30 daily vectors) at a geometry whose
    // strings hold 8 operands: the operands stack across 4 sub-block
    // chains and the planner emits 4 AND-merged commands per row.
    ssd::SsdConfig cfg = smallSsd();
    cfg.geometry.subBlocksPerBlock = 4;
    PlatformRunner runner(cfg);
    wl::Workload w = batchWorkload(30, 0, 1, cfg);
    PlatformRunner::FunctionalRun fr = runner.runFcFunctional(w, 31);
    EXPECT_TRUE(fr.bitExact());
    RunResult timing = runner.run(PlatformKind::FlashCosmos, w);
    // 30 operands / 8-wordline strings => 4 commands per row.
    EXPECT_EQ(fr.timing.senseOps, timing.senseOps);
    EXPECT_EQ(fr.timing.senseOps,
              4u * cfg.columnCount()); // 4 per plane column, whole SSD
    EXPECT_EQ(fr.timing.makespan, timing.makespan);
}

TEST(FunctionalParityTest, MixedBatchesAcrossOneWorkload)
{
    // Several certified shapes in one workload exercise the block
    // allocator across batches.
    ssd::SsdConfig cfg = smallSsd();
    PlatformRunner runner(cfg);
    wl::Workload w = batchWorkload(5, 0, 1, cfg);
    wl::Workload or3 = batchWorkload(0, 3, 1, cfg);
    wl::Workload kcs = batchWorkload(4, 2, 1, cfg);
    w.batches.push_back(or3.batches[0]);
    w.batches.push_back(kcs.batches[0]);
    PlatformRunner::FunctionalRun fr = runner.runFcFunctional(w, 41);
    EXPECT_TRUE(fr.bitExact());
    RunResult timing = runner.run(PlatformKind::FlashCosmos, w);
    EXPECT_EQ(fr.timing.senseOps, timing.senseOps);
    EXPECT_EQ(fr.timing.makespan, timing.makespan);
}

} // namespace
} // namespace fcos::plat
