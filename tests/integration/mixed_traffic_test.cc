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
 *  compute) arriving on a fixed schedule. */
MixedRun
runMixedTraffic()
{
    FlashCosmosDrive::Config cfg;
    cfg.channels = 2;
    cfg.dies = 2;
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

} // namespace
} // namespace fcos::core
