/**
 * @file
 * Drive-level workload integration: a miniature BMI query through the
 * full stack (fc_write with placement -> planner -> MWS chains on the
 * dies -> result readout on the engine's timeline), checking
 * functional results and timing-side invariants against each other.
 */

#include <gtest/gtest.h>

#include "core/drive.h"
#include "util/rng.h"

namespace fcos {
namespace {

using core::Expr;
using core::FlashCosmosDrive;

TEST(DriveWorkloadTest, MiniBitmapIndexEndToEnd)
{
    FlashCosmosDrive::Config drive_cfg;
    drive_cfg.dies = 4;
    drive_cfg.geometry.blocksPerPlane = 64;
    FlashCosmosDrive drive(drive_cfg);

    Rng rng = Rng::seeded(88);
    const std::size_t users = 4000;
    const int days = 16;

    FlashCosmosDrive::WriteOptions group;
    group.group = 1;

    std::vector<BitVector> activity;
    std::vector<Expr> leaves;
    Time writes_done = 0;
    for (int d = 0; d < days; ++d) {
        BitVector day(users);
        day.randomize(rng, 0.95);
        leaves.push_back(Expr::leaf(drive.fcWrite(day, group)));
        activity.push_back(std::move(day));
        EXPECT_GE(drive.now(), writes_done); // time moves forward
        writes_done = drive.now();
    }

    FlashCosmosDrive::ReadStats stats;
    BitVector result = drive.fcRead(Expr::And(leaves), &stats);

    // Functional correctness.
    BitVector expected = activity[0];
    for (int d = 1; d < days; ++d)
        expected &= activity[d];
    EXPECT_EQ(result, expected);

    // Timing-side invariants: the query completes after the writes,
    // the command count matches the placement (16 operands over
    // 8-wordline strings = 2 MWS per page), and energy was booked for
    // programs and MWS separately.
    EXPECT_GT(drive.now(), writes_done);
    EXPECT_EQ(stats.mwsCommands, 2 * stats.resultPages);
    const ssd::EnergyMeter &meter = drive.engine().energy();
    EXPECT_GT(meter.get(ssd::EnergyComponent::NandProgram),
              meter.get(ssd::EnergyComponent::NandMws));
    EXPECT_GT(meter.get(ssd::EnergyComponent::NandMws), 0.0);
}

TEST(DriveWorkloadTest, RepeatedQueriesReuseStoredOperands)
{
    FlashCosmosDrive::Config drive_cfg;
    drive_cfg.dies = 2;
    drive_cfg.geometry.blocksPerPlane = 32;
    FlashCosmosDrive drive(drive_cfg);

    Rng rng = Rng::seeded(89);
    FlashCosmosDrive::WriteOptions group;
    group.group = 1;
    BitVector a(1000), b(1000), c(1000);
    a.randomize(rng);
    b.randomize(rng);
    c.randomize(rng);
    const core::VectorId ia = drive.fcWrite(a, group);
    const core::VectorId ib = drive.fcWrite(b, group);
    const core::VectorId ic = drive.fcWrite(c, group);

    // Compute-many: different queries over the same stored vectors.
    BitVector r1 = drive.fcRead(Expr::And({Expr::leaf(ia), Expr::leaf(ib)}));
    const Time t1 = drive.now();
    BitVector r2 = drive.fcRead(
        Expr::And({Expr::leaf(ia), Expr::leaf(ib), Expr::leaf(ic)}));
    const Time t2 = drive.now();
    BitVector r3 =
        drive.fcRead(Expr::Nand({Expr::leaf(ib), Expr::leaf(ic)}));
    const Time t3 = drive.now();

    EXPECT_EQ(r1, a & b);
    EXPECT_EQ(r2, a & b & c);
    EXPECT_EQ(r3, ~(b & c));
    EXPECT_GT(t3, t2);
    EXPECT_GT(t2, t1);
}

} // namespace
} // namespace fcos
