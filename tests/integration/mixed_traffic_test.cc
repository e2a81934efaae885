/**
 * @file
 * Mixed-traffic integration test: an open-loop stream of overlapped
 * read / write / compute requests through the admission queue, with
 * the resulting schedule pinned as a golden. The golden is the
 * determinism anchor for concurrent admission — this test also runs
 * in the threads/tsan tiers at 2 and 4 workers, where the identical
 * table proves the concurrent schedule is bit-identical at any worker
 * count.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/drive.h"
#include "obs/obs.h"
#include "sim/worker_pool.h"
#include "tests/support/golden.h"
#include "tests/support/random_fixture.h"

namespace fcos::core {
namespace {

struct MixedRun
{
    std::string table;
    std::vector<BitVector> read_payloads;
    std::vector<BitVector> expected;
};

/** Deterministic mixed workload: 4 stored vectors spread over home
 *  columns, then 12 requests (reads, a conflicting write burst, and a
 *  compute) arriving on a fixed schedule. @p workers 0 defers to
 *  FCOS_WORKERS. */
MixedRun
runMixedTraffic(std::uint32_t workers = 0)
{
    FlashCosmosDrive::Config cfg;
    cfg.channels = 2;
    cfg.dies = 2;
    cfg.workers = workers;
    cfg.admission.depth = 4;
    cfg.admission.weights = {2, 1, 1};
    FlashCosmosDrive drive(cfg);

    Rng rng = Rng::seeded(20260808);
    const std::uint32_t columns = 2 * 2 * 2; // channels * dies * planes

    // Operand pool: two co-located groups plus two independent
    // vectors on their own home columns.
    std::vector<BitVector> data;
    std::vector<VectorId> ids;
    for (int i = 0; i < 4; ++i) {
        data.push_back(test::randomVec(rng, 1000));
        FlashCosmosDrive::WriteOptions opts;
        opts.group = (i < 2) ? 1 : FlashCosmosDrive::kAutoGroup;
        opts.homeColumn = (i < 2) ? 0 : (i * 2) % columns;
        ids.push_back(drive.fcWrite(data[i], opts));
    }

    const Time t0 = drive.now();
    const Time tick = usToTime(20.0);
    MixedRun run;
    run.read_payloads.resize(6);
    std::vector<DenseCollectSink> sinks(6);
    std::vector<FlashCosmosDrive::ReadStats> stats(6);

    // 6 reads at staggered arrivals, round-robin over the pool.
    for (int i = 0; i < 6; ++i) {
        FlashCosmosDrive::RequestOptions ro;
        ro.arrival = t0 + tick * static_cast<std::uint64_t>(i);
        drive.submitReadVector(ids[i % 4], sinks[i], &stats[i], ro);
        run.expected.push_back(data[i % 4]);
    }
    // A write burst into group 1 (conflicts with the group-1 reads).
    std::vector<BitVector> fresh;
    for (int i = 0; i < 3; ++i) {
        fresh.push_back(test::randomVec(rng, 1000));
        FlashCosmosDrive::WriteOptions opts;
        opts.group = 1;
        FlashCosmosDrive::RequestOptions ro;
        ro.arrival = t0 + tick * static_cast<std::uint64_t>(i);
        drive.submitWrite(fresh[i], opts, ro);
    }
    // One compute over the (conflicted) group and one over the
    // independent vectors, plus a paced advance in between.
    FlashCosmosDrive::WriteOptions dst;
    dst.group = 1;
    FlashCosmosDrive::ReadStats cstats;
    FlashCosmosDrive::RequestOptions ro;
    ro.arrival = t0 + tick;
    FlashCosmosDrive::Submitted comp = drive.submitCompute(
        Expr::leaf(ids[0]) & Expr::leaf(ids[1]), dst, &cstats, ro);
    drive.advanceTo(t0 + tick * 3);
    drive.waitAll();

    // Verify every stream delivered its exact payload.
    for (int i = 0; i < 6; ++i)
        run.read_payloads[i] = sinks[i].take();
    BitVector and01 = drive.readVector(comp.vector);

    std::ostringstream os;
    os << "mixed traffic (2x2 dies, depth 4, qos 2:1:1)\n";
    os << "requests completed  " << drive.admission().completedCount()
       << "\n";
    os << "admitted read/write/compute  "
       << drive.admission().admittedCount(engine::RequestClass::Read)
       << "/"
       << drive.admission().admittedCount(engine::RequestClass::Write)
       << "/"
       << drive.admission().admittedCount(engine::RequestClass::Compute)
       << "\n";
    os << "clock end  " << drive.now() << "\n";
    os << "engine makespan  " << drive.engine().makespan() << "\n";
    char energy[32];
    std::snprintf(energy, sizeof energy, "%.6e",
                  drive.engine().totalEnergyJ());
    os << "energy J  " << energy << "\n";
    for (int i = 0; i < 6; ++i)
        os << "read[" << i << "] makespan  " << stats[i].makespan
           << "\n";
    os << "compute makespan  " << cstats.makespan << "\n";
    os << "and01 ok  " << (and01 == (data[0] & data[1]) ? 1 : 0)
       << "\n";
    run.table = os.str();
    return run;
}

TEST(MixedTrafficTest, PayloadsAreExactUnderConcurrency)
{
    MixedRun run = runMixedTraffic();
    ASSERT_EQ(run.read_payloads.size(), run.expected.size());
    for (std::size_t i = 0; i < run.expected.size(); ++i)
        EXPECT_EQ(run.read_payloads[i], run.expected[i])
            << "read " << i << " payload corrupted by concurrency";
}

TEST(MixedTrafficTest, ScheduleMatchesGolden)
{
    // Pins the full concurrent schedule: per-request makespans, the
    // end-of-run clock, and the energy ledger. Re-run at 2/4 workers
    // by the threads tier against the same golden.
    MixedRun run = runMixedTraffic();
    EXPECT_TRUE(
        test::MatchesGolden(run.table, "golden/mixed_traffic.txt"));
}

TEST(MixedTrafficTest, RunToRunEquality)
{
    MixedRun a = runMixedTraffic();
    MixedRun b = runMixedTraffic();
    EXPECT_EQ(a.table, b.table);
    for (std::size_t i = 0; i < a.read_payloads.size(); ++i)
        EXPECT_EQ(a.read_payloads[i], b.read_payloads[i]);
}

/** host.pool.dispatches recorded while @p run executes. */
template <typename Fn>
std::uint64_t
poolDispatches(Fn &&run)
{
    obs::ScopedCapture capture(/*trace=*/false, /*metrics=*/true);
    run();
    return obs::metrics().counter("host.pool.dispatches").value();
}

TEST(MixedTrafficTest, LanesTakeOnlyPagesThatOutweighTheHandoff)
{
    // At 4 workers, the tiny drive's 256-bit page ops cost less than a
    // cross-thread handoff: all of them run inline on the coordinator.
    const std::uint64_t tiny = poolDispatches([] { runMixedTraffic(4); });
    // A Table-1 AND's 16-KiB MWS ops are worth a lane.
    const std::uint64_t table1 = poolDispatches([] {
        FlashCosmosDrive::Config cfg;
        cfg.channels = 2;
        cfg.dies = 1;
        cfg.geometry = nand::Geometry::table1();
        cfg.workers = 4;
        FlashCosmosDrive drive(cfg);
        const std::uint64_t pages = drive.dieCount() *
                                    cfg.geometry.planesPerDie;
        std::vector<Expr> leaves;
        for (std::uint64_t v = 0; v < 2; ++v) {
            leaves.push_back(Expr::leaf(drive.fcWritePages(
                [v](std::uint64_t j) {
                    return nand::PageImage::random(Rng::mix(v, j));
                },
                pages, {1, false})));
        }
        drive.fcRead(Expr::And(leaves));
    });
    if (WorkerPool::forceThreads()) {
        EXPECT_GT(tiny, 0u);
        EXPECT_GT(table1, 0u);
    } else {
        EXPECT_EQ(tiny, 0u);
        if (std::thread::hardware_concurrency() > 1) {
            EXPECT_GT(table1, 0u);
        }
    }
}

TEST(MixedTrafficTest, AdvanceToTheEndOfTimeGivesOneClock)
{
    // Regression: advancing to kTimeMax left now() at the last event
    // on a multi-worker drive but at kTimeMax on a serial one.
    for (std::uint32_t workers : {1u, 4u}) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        FlashCosmosDrive::Config cfg;
        cfg.workers = workers;
        FlashCosmosDrive drive(cfg);
        Rng rng = Rng::seeded(5);
        const VectorId id = drive.fcWrite(test::randomVec(rng, 1000));
        DenseCollectSink sink;
        drive.submitReadVector(id, sink);
        EXPECT_EQ(drive.advanceTo(kTimeMax), kTimeMax);
        EXPECT_EQ(drive.now(), kTimeMax);
    }
}

} // namespace
} // namespace fcos::core
