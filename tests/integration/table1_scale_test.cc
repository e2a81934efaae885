/**
 * @file
 * The Table-1 scale tier: full-geometry drives executing real work
 * inside CTest (label: scale; seconds-fast).
 *
 * Two certifications, both impossible before the sparse page store:
 *
 *  1. A FlashCosmosDrive with the paper's full SSD shape (8 channels x
 *     8 dies of Table-1 geometry: 2048 blocks/plane, 16-KiB pages)
 *     stores procedurally described vectors, executes fc_read through
 *     engine::ComputeEngine, returns bit-exact results, and its
 *     makespan / sense-count / energy land on pinned goldens.
 *
 *  2. The platform runner's functional mode executes a reduced
 *     Figure-7-shaped workload (pure-OR De Morgan, deep AND chains
 *     spanning sub-blocks, and the KCS fusion) at the full Table-1
 *     SsdConfig, bit-exact, with sense accounting equal to the
 *     timing-only driver and the timeline pinned as a golden.
 */

#include <gtest/gtest.h>

#include "core/drive.h"
#include "obs/obs.h"
#include "platforms/runner.h"
#include "tests/support/golden.h"
#include "tests/support/trace_check.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/units.h"

namespace fcos {
namespace {

using core::Expr;
using core::FlashCosmosDrive;

TEST(Table1ScaleTest, DriveComputesBitExactAtFullGeometry)
{
    FlashCosmosDrive::Config cfg;
    cfg.channels = 8;
    cfg.dies = 8; // per channel: the full 64-die Table-1 SSD
    cfg.geometry = nand::Geometry::table1();
    FlashCosmosDrive drive(cfg);
    ASSERT_EQ(drive.dieCount(), 64u);

    const std::uint64_t page_bits = cfg.geometry.pageBits();
    const std::uint32_t columns =
        cfg.channels * cfg.dies * cfg.geometry.planesPerDie;
    const std::uint64_t pages = 2 * columns; // 2 rows per plane column

    auto gen = [](std::uint64_t vec) {
        return [vec](std::uint64_t j) {
            return nand::PageImage::random(Rng::mix(101 + vec, j));
        };
    };
    const std::uint64_t group = 7;
    core::VectorId a =
        drive.fcWritePages(gen(0), pages, {group, false});
    core::VectorId b =
        drive.fcWritePages(gen(1), pages, {group, false});
    core::VectorId c =
        drive.fcWritePages(gen(2), pages, {group, true}); // inverted

    // AND(a, b, c) with c stored inverted: the planner senses {a, b}
    // as one normal string and folds c through an AND-merged inverse
    // command, so the chain exercises both command polarities.
    FlashCosmosDrive::ReadStats st;
    BitVector out = drive.fcRead(
        Expr::And({Expr::leaf(a), Expr::leaf(b), Expr::leaf(c)}), &st);

    BitVector expected(pages * page_bits);
    for (std::uint64_t j = 0; j < pages; ++j) {
        BitVector ref = gen(0)(j).materialize(page_bits);
        ref &= gen(1)(j).materialize(page_bits);
        ref &= gen(2)(j).materialize(page_bits);
        expected.paste(j * page_bits, ref);
    }
    ASSERT_EQ(out.size(), expected.size());
    EXPECT_EQ(out, expected);
    EXPECT_EQ(st.planKind, core::MwsPlan::Kind::Mws);

    // Pin the engine-backed timeline and energy at real geometry.
    TablePrinter t("Table-1 drive scale run (AND3, 128 plane columns)");
    t.setHeader({"metric", "value"});
    t.addRow({"pages per vector", std::to_string(pages)});
    t.addRow({"MWS commands", std::to_string(st.mwsCommands)});
    t.addRow({"senses", std::to_string(st.senses)});
    t.addRow({"result pages", std::to_string(st.resultPages)});
    t.addRow({"fcRead makespan", formatTime(st.makespan)});
    t.addRow({"NAND busy time", formatTime(st.nandTime)});
    t.addRow({"NAND energy", formatEnergy(st.nandEnergyJ)});
    t.addRow({"engine energy", formatEnergy(drive.engine().totalEnergyJ())});
    EXPECT_TRUE(
        test::MatchesGolden(t.toString(), "golden/table1_drive.txt"));
}

TEST(Table1ScaleTest, TraceAtFullGeometryIsValidAndWorkerInvariant)
{
    // The ISSUE's acceptance gate: a full-geometry run under tracing
    // produces schema-valid Chrome trace JSON whose digest is
    // bit-identical at 1, 2, and 4 host workers.
    auto traced_run = [](std::uint32_t workers) {
        obs::ScopedCapture cap(/*trace=*/true, /*metrics=*/false);
        FlashCosmosDrive::Config cfg;
        cfg.channels = 8;
        cfg.dies = 8;
        cfg.geometry = nand::Geometry::table1();
        cfg.workers = workers;
        FlashCosmosDrive drive(cfg);
        const std::uint64_t pages =
            2 * cfg.channels * cfg.dies * cfg.geometry.planesPerDie;
        auto gen = [](std::uint64_t vec) {
            return [vec](std::uint64_t j) {
                return nand::PageImage::random(Rng::mix(101 + vec, j));
            };
        };
        core::VectorId a = drive.fcWritePages(gen(0), pages, {7, false});
        core::VectorId b = drive.fcWritePages(gen(1), pages, {7, false});
        drive.fcRead(Expr::And({Expr::leaf(a), Expr::leaf(b)}));
        return std::pair<std::uint64_t, std::string>(cap.traceDigest(),
                                                     cap.traceJson());
    };

    auto [serial_digest, serial_json] = traced_run(1);
    ASSERT_FALSE(serial_json.empty());
    EXPECT_TRUE(test::IsValidChromeTrace(serial_json));
    for (std::uint32_t workers : {2u, 4u}) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        auto [digest, json] = traced_run(workers);
        EXPECT_EQ(digest, serial_digest);
        EXPECT_EQ(json == serial_json, true) << "trace JSON diverged";
    }
}

TEST(Table1ScaleTest, FunctionalFigureWorkloadAtTable1Geometry)
{
    const ssd::SsdConfig cfg = ssd::SsdConfig::table1();
    const plat::PlatformRunner runner(cfg);

    // One result row per plane across the full 256-plane SSD; the
    // three batches exercise the OR/De-Morgan path, an AND chain that
    // spans two sub-blocks, and the KCS fusion.
    const std::uint64_t stripe =
        static_cast<std::uint64_t>(cfg.geometry.pageBytes) *
        cfg.columnCount();
    wl::Workload w;
    w.name = "table1";
    w.paramName = "-";
    auto batch = [&](std::uint64_t and_ops, std::uint64_t or_ops) {
        wl::OpBatch b;
        b.andOperands = and_ops;
        b.orOperands = or_ops;
        b.operandBytes = stripe;
        b.resultToHost = true;
        b.hostPostProcess = false;
        return b;
    };
    w.batches = {batch(0, 3), batch(60, 0), batch(4, 2)};

    plat::PlatformRunner::FunctionalRun fr = runner.runFcFunctional(w, 5);
    ASSERT_GT(fr.result.size(), 0u);
    EXPECT_TRUE(fr.bitExact());

    // Sense accounting must equal the timing-only driver's.
    plat::RunResult timing =
        runner.run(plat::PlatformKind::FlashCosmos, w);
    EXPECT_EQ(fr.timing.senseOps, timing.senseOps);
    EXPECT_EQ(fr.timing.makespan, timing.makespan);

    TablePrinter t("Table-1 functional figure run (OR3 / AND60 / KCS)");
    t.setHeader({"metric", "value"});
    t.addRow({"result bits", std::to_string(fr.result.size())});
    t.addRow({"sense ops", std::to_string(fr.timing.senseOps)});
    t.addRow({"makespan", formatTime(fr.timing.makespan)});
    t.addRow({"plane busy", formatTime(fr.timing.planeBusy)});
    t.addRow({"channel busy", formatTime(fr.timing.channelBusy)});
    t.addRow({"external busy", formatTime(fr.timing.externalBusy)});
    t.addRow({"energy", formatEnergy(fr.timing.energyJ)});
    EXPECT_TRUE(test::MatchesGolden(t.toString(),
                                    "golden/table1_functional.txt"));
}

} // namespace
} // namespace fcos
