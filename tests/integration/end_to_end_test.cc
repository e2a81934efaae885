/**
 * @file
 * Cross-module integration tests: the full Flash-Cosmos story on one
 * stack — application data written through fc_write with ESP, computed
 * in flash under the worst-case error model, compared against host
 * computation and the ISP baseline's fold of read-out pages.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/drive.h"
#include "platforms/runner.h"
#include "reliability/error_injector.h"
#include "util/rng.h"

namespace fcos {
namespace {

using core::Expr;
using core::FlashCosmosDrive;
using core::VectorId;

TEST(EndToEndTest, BitmapIndexQueryInFlash)
{
    // Miniature BMI: daily activity vectors for 2,000 users over 14
    // days; "active every day" = AND of all 14, then a bit-count.
    Rng rng = Rng::seeded(42);
    FlashCosmosDrive drive;
    FlashCosmosDrive::WriteOptions day_group;
    day_group.group = 1;

    const std::size_t users = 2000;
    std::vector<BitVector> days;
    std::vector<Expr> leaves;
    for (int d = 0; d < 14; ++d) {
        BitVector day(users);
        day.randomize(rng, 0.9); // users are mostly active
        leaves.push_back(
            Expr::leaf(drive.fcWrite(day, day_group)));
        days.push_back(std::move(day));
    }

    FlashCosmosDrive::ReadStats stats;
    BitVector active = drive.fcRead(Expr::And(leaves), &stats);

    BitVector expected = days[0];
    for (int d = 1; d < 14; ++d)
        expected &= days[d];
    EXPECT_EQ(active, expected);
    EXPECT_EQ(active.popcount(), expected.popcount());
    EXPECT_EQ(stats.planKind, core::MwsPlan::Kind::Mws);
    // 14 operands over 8-wordline strings: 2 commands per column.
    EXPECT_EQ(stats.mwsCommands, 2 * stats.resultPages);
}

TEST(EndToEndTest, KcliqueStarInFlash)
{
    // Miniature KCS: adjacency rows of clique members AND-ed, then
    // OR-ed with the clique-membership vector — one fused command.
    Rng rng = Rng::seeded(43);
    FlashCosmosDrive drive;
    const std::size_t vertices = 512;

    FlashCosmosDrive::WriteOptions adj_group, clique_group;
    adj_group.group = 1;
    clique_group.group = 2;

    std::vector<BitVector> adj;
    std::vector<Expr> members;
    for (int k = 0; k < 4; ++k) {
        BitVector row(vertices);
        row.randomize(rng, 0.3);
        members.push_back(Expr::leaf(drive.fcWrite(row, adj_group)));
        adj.push_back(std::move(row));
    }
    BitVector clique(vertices);
    for (std::size_t v = 100; v < 104; ++v)
        clique.set(v, true);
    Expr clique_leaf = Expr::leaf(drive.fcWrite(clique, clique_group));

    FlashCosmosDrive::ReadStats stats;
    BitVector star =
        drive.fcRead(Expr::Or({Expr::And(members), clique_leaf}),
                     &stats);

    BitVector expected = adj[0] & adj[1] & adj[2] & adj[3];
    expected |= clique;
    EXPECT_EQ(star, expected);
    // The fusion: one MWS command per column (two strings).
    EXPECT_EQ(stats.mwsCommands, stats.resultPages);
}

TEST(EndToEndTest, ImageSegmentationInFlash)
{
    // Miniature IMS: Y/U/V membership masks AND-ed per color.
    Rng rng = Rng::seeded(44);
    FlashCosmosDrive drive;
    const std::size_t pixels = 40 * 30;
    FlashCosmosDrive::WriteOptions group;
    group.group = 5;

    BitVector y(pixels), u(pixels), v(pixels);
    y.randomize(rng, 0.6);
    u.randomize(rng, 0.6);
    v.randomize(rng, 0.6);
    Expr ey = Expr::leaf(drive.fcWrite(y, group));
    Expr eu = Expr::leaf(drive.fcWrite(u, group));
    Expr ev = Expr::leaf(drive.fcWrite(v, group));

    BitVector seg = drive.fcRead(Expr::And({ey, eu, ev}));
    EXPECT_EQ(seg, y & u & v);
}

TEST(EndToEndTest, WorstCaseConditionsStillExact)
{
    // The headline reliability claim: with ESP storage, in-flash
    // results are bit-exact even at 10K P/E cycles, 1-year retention,
    // worst-case patterns — conditions under which regular SLC storage
    // visibly corrupts ParaBit-style computation.
    rel::VthModel model;
    rel::OperatingCondition worst{10000, 12.0, false};
    rel::VthErrorInjector injector(model, worst);

    FlashCosmosDrive::Config cfg;
    nand::Geometry geom = nand::Geometry::tiny();
    geom.pageBytes = 2048;
    cfg.geometry = geom;
    FlashCosmosDrive drive(cfg);
    drive.setErrorInjector(&injector);

    Rng rng = Rng::seeded(45);
    FlashCosmosDrive::WriteOptions group;
    group.group = 1;
    std::vector<BitVector> data;
    std::vector<Expr> leaves;
    for (int i = 0; i < 8; ++i) {
        BitVector v(64000);
        v.randomize(rng);
        leaves.push_back(Expr::leaf(drive.fcWrite(v, group)));
        data.push_back(std::move(v));
    }
    BitVector result = drive.fcRead(Expr::And(leaves));
    BitVector expected = data[0];
    for (int i = 1; i < 8; ++i)
        expected &= data[i];
    EXPECT_EQ(result, expected); // zero bit errors
    EXPECT_GT(injector.sensedBits(), 0u);
}

TEST(EndToEndTest, FlashResultMatchesIspAccelerator)
{
    // The ISP baseline's answer: the same AND folded over pages read
    // out of the drive.
    Rng rng = Rng::seeded(46);
    FlashCosmosDrive drive;
    FlashCosmosDrive::WriteOptions group;
    group.group = 3;
    std::vector<Expr> leaves;
    std::vector<VectorId> ids;
    for (int i = 0; i < 5; ++i) {
        BitVector v(3000);
        v.randomize(rng);
        ids.push_back(drive.fcWrite(v, group));
        leaves.push_back(Expr::leaf(ids.back()));
    }
    BitVector in_flash = drive.fcRead(Expr::And(leaves));

    BitVector streamed = drive.readVector(ids[0]);
    for (std::size_t i = 1; i < ids.size(); ++i)
        streamed &= drive.readVector(ids[i]);
    EXPECT_EQ(in_flash, streamed);
}

TEST(EndToEndTest, TimingAndFunctionalPathsAgreeOnSenseCounts)
{
    // The closed-form sense count the platform runner charges must
    // match what the functional drive actually issues.
    FlashCosmosDrive drive;
    FlashCosmosDrive::WriteOptions group;
    group.group = 1;
    Rng rng = Rng::seeded(47);
    std::vector<Expr> leaves;
    for (int i = 0; i < 20; ++i) {
        BitVector v(256);
        v.randomize(rng);
        leaves.push_back(Expr::leaf(drive.fcWrite(v, group)));
    }
    FlashCosmosDrive::ReadStats stats;
    drive.fcRead(Expr::And(leaves), &stats);

    std::uint64_t analytic = plat::PlatformRunner::fcSensesPerRow(
        20, 0, drive.chip(0).geometry().wordlinesPerSubBlock, 4);
    EXPECT_EQ(stats.mwsCommands / stats.resultPages, analytic);
}

} // namespace
} // namespace fcos
