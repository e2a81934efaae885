/**
 * @file
 * The beyond-DRAM scale tier (label: scale): Table-1 workloads whose
 * *dense result* would blow the test suite's 4-MiB footprint budget —
 * the regime the paper's full-capacity drive-level claims are about —
 * executed and verified entirely through the streamed ResultSink path.
 *
 * Two certifications:
 *
 *  1. A full Table-1 FlashCosmosDrive (8 channels x 8 dies) computes
 *     an 8-MiB AND result, verified page-by-page by the sparse
 *     comparator against the procedural PageImage fold while the
 *     re-ordering window (the read's only result-sized state) stays
 *     under the 4-MiB budget. Makespan / energy / stream digest are
 *     golden-pinned.
 *
 *  2. The platform runner's streamed functional mode executes a
 *     10-MiB-result figure workload (an AND batch plus a wide m=5
 *     mixed AND+OR batch — the planner-split shape) at the Table-1
 *     SsdConfig, verified by the same comparator fed from
 *     fcFunctionalExpectedPage, with the timeline pinned.
 */

#include <gtest/gtest.h>

#include "core/drive.h"
#include "core/result_sink.h"
#include "platforms/runner.h"
#include "tests/support/golden.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/units.h"

namespace fcos {
namespace {

using core::Expr;
using core::FlashCosmosDrive;

/** The suite's pinned memory budget (page_store_test pins the chip
 *  footprint against the same number). */
constexpr std::uint64_t kBudgetBytes = 4_MiB;

TEST(BeyondDramScaleTest, DriveStreamsAnEightMebibyteResult)
{
    FlashCosmosDrive::Config cfg;
    cfg.channels = 8;
    cfg.dies = 8;
    cfg.geometry = nand::Geometry::table1();
    FlashCosmosDrive drive(cfg);

    const std::uint32_t columns =
        cfg.channels * cfg.dies * cfg.geometry.planesPerDie;
    const std::uint64_t pages = 4 * columns; // 4 rows per plane column
    const std::uint64_t dense_bytes = pages * cfg.geometry.pageBytes;
    ASSERT_GT(dense_bytes, kBudgetBytes)
        << "the workload must not fit the dense budget";

    auto gen = [](std::uint64_t vec) {
        return [vec](std::uint64_t j) {
            return nand::PageImage::random(Rng::mix(7100 + vec, j));
        };
    };
    const std::uint64_t group = 3;
    core::VectorId a = drive.fcWritePages(gen(0), pages, {group, false});
    core::VectorId b = drive.fcWritePages(gen(1), pages, {group, false});
    core::VectorId c =
        drive.fcWritePages(gen(2), pages, {group, true}); // inverted

    // Streaming verification: the expected page is the procedural
    // image fold, materialized one page at a time — neither the result
    // nor the reference ever exists densely.
    core::SparseCompareSink cmp(
        [&gen](std::uint64_t j, std::uint64_t bits) {
            BitVector ref = gen(0)(j).materialize(bits);
            ref &= gen(1)(j).materialize(bits);
            ref &= gen(2)(j).materialize(bits);
            return ref;
        });
    core::DigestSink digest;
    core::TeeSink tee({&cmp, &digest});

    FlashCosmosDrive::ReadStats st;
    drive.fcRead(
        Expr::And({Expr::leaf(a), Expr::leaf(b), Expr::leaf(c)}), tee,
        &st);

    EXPECT_EQ(cmp.pagesChecked(), pages);
    EXPECT_EQ(cmp.mismatchedPages(), 0u);
    EXPECT_TRUE(cmp.allMatched());
    EXPECT_EQ(st.streamChunks, pages);
    EXPECT_EQ(st.planKind, core::MwsPlan::Kind::Mws);

    // The streamed read's peak result-side memory — the re-ordering
    // window plus the chunk in flight — stays under the budget the
    // dense result would have blown.
    const std::uint64_t peak_bytes =
        (st.streamPeakPages + 1) * cfg.geometry.pageBytes;
    EXPECT_LT(peak_bytes, kBudgetBytes)
        << st.streamPeakPages << " pages buffered";

    TablePrinter t("Beyond-DRAM drive read (AND3, 4 rows x 128 columns)");
    t.setHeader({"metric", "value"});
    t.addRow({"dense result size", formatBytes(dense_bytes)});
    t.addRow({"stream chunks", std::to_string(st.streamChunks)});
    t.addRow({"stream digest",
              std::to_string(digest.digest())});
    t.addRow({"MWS commands", std::to_string(st.mwsCommands)});
    t.addRow({"senses", std::to_string(st.senses)});
    t.addRow({"fcRead makespan", formatTime(st.makespan)});
    t.addRow({"NAND energy", formatEnergy(st.nandEnergyJ)});
    t.addRow(
        {"engine energy", formatEnergy(drive.engine().totalEnergyJ())});
    EXPECT_TRUE(
        test::MatchesGolden(t.toString(), "golden/beyond_dram_drive.txt"));
}

TEST(BeyondDramScaleTest, StreamedFunctionalWorkloadAtTable1Geometry)
{
    const ssd::SsdConfig cfg = ssd::SsdConfig::table1();
    const plat::PlatformRunner runner(cfg);

    // 20 result rows per plane: per channel slice that is 320 pages
    // (5 MiB) per batch — beyond the dense budget on its own. The
    // second batch is the wide mixed shape (m = 5 > the KCS fusion
    // budget) that exercises the planner's command splitting.
    const std::uint64_t stripe =
        static_cast<std::uint64_t>(cfg.geometry.pageBytes) *
        cfg.columnCount();
    wl::Workload w;
    w.name = "beyond-dram";
    w.paramName = "-";
    auto batch = [&](std::uint64_t and_ops, std::uint64_t or_ops) {
        wl::OpBatch b;
        b.andOperands = and_ops;
        b.orOperands = or_ops;
        b.operandBytes = 20 * stripe;
        b.resultToHost = true;
        b.hostPostProcess = false;
        return b;
    };
    w.batches = {batch(3, 0), batch(4, 5)};

    const std::uint64_t seed = 9;
    core::SparseCompareSink cmp(
        [&](std::uint64_t page, std::uint64_t bits) {
            BitVector ref = runner.fcFunctionalExpectedPage(w, seed, page);
            EXPECT_EQ(ref.size(), bits);
            return ref;
        });
    core::DigestSink digest;
    core::TeeSink tee({&cmp, &digest});

    plat::PlatformRunner::StreamStats ss;
    plat::RunResult timing = runner.runFcStreamed(w, seed, tee, &ss);

    const std::uint64_t dense_bytes =
        ss.chunks * cfg.geometry.pageBytes;
    EXPECT_GT(dense_bytes, kBudgetBytes);
    EXPECT_EQ(cmp.pagesChecked(), ss.chunks);
    EXPECT_EQ(cmp.mismatchedPages(), 0u);
    EXPECT_LT((ss.peakBufferedPages + 1) * cfg.geometry.pageBytes,
              kBudgetBytes);

    // The streamed run stays on the timing-only driver's sense count.
    plat::RunResult timing_only =
        runner.run(plat::PlatformKind::FlashCosmos, w);
    EXPECT_EQ(timing.senseOps, timing_only.senseOps);

    TablePrinter t("Beyond-DRAM streamed functional run (AND3 + m5 mix)");
    t.setHeader({"metric", "value"});
    t.addRow({"dense result size", formatBytes(dense_bytes)});
    t.addRow({"stream chunks", std::to_string(ss.chunks)});
    t.addRow({"stream digest", std::to_string(digest.digest())});
    t.addRow({"sense ops", std::to_string(timing.senseOps)});
    t.addRow({"makespan", formatTime(timing.makespan)});
    t.addRow({"plane busy", formatTime(timing.planeBusy)});
    t.addRow({"channel busy", formatTime(timing.channelBusy)});
    t.addRow({"external busy", formatTime(timing.externalBusy)});
    t.addRow({"energy", formatEnergy(timing.energyJ)});
    EXPECT_TRUE(test::MatchesGolden(
        t.toString(), "golden/beyond_dram_functional.txt"));
}

} // namespace
} // namespace fcos
