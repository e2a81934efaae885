/**
 * @file
 * FlashCosmosDrive functional tests: fc_write / fc_read end to end on
 * the NAND model, validated against reference evaluation.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/drive.h"
#include "obs/obs.h"
#include "tests/support/random_fixture.h"

namespace fcos::core {
namespace {

class DriveTest : public test::RandomTest
{
};

TEST_F(DriveTest, WriteAndReadBackSingleVector)
{
    FlashCosmosDrive drive;
    BitVector data = randomVec(1000);
    VectorId id = drive.fcWrite(data);
    EXPECT_EQ(drive.readVector(id), data);
    EXPECT_EQ(drive.vectorBits(id), 1000u);
}

TEST_F(DriveTest, InvertedStorageReadsBackOriginal)
{
    FlashCosmosDrive drive;
    BitVector data = randomVec(500);
    FlashCosmosDrive::WriteOptions opts;
    opts.storeInverted = true;
    VectorId id = drive.fcWrite(data, opts);
    EXPECT_TRUE(drive.isStoredInverted(id));
    // readVector uses inverse-read mode to recover the logical value.
    EXPECT_EQ(drive.readVector(id), data);
}

TEST_F(DriveTest, AndOfGroupedVectorsIsOneMwsPerColumnChunk)
{
    FlashCosmosDrive drive;
    FlashCosmosDrive::WriteOptions opts;
    opts.group = 1;
    std::vector<BitVector> data;
    std::vector<Expr> leaves;
    for (int i = 0; i < 6; ++i) {
        data.push_back(randomVec(2000));
        leaves.push_back(Expr::leaf(drive.fcWrite(data.back(), opts)));
    }
    FlashCosmosDrive::ReadStats stats;
    BitVector result = drive.fcRead(Expr::And(leaves), &stats);

    BitVector expected = data[0];
    for (int i = 1; i < 6; ++i)
        expected &= data[i];
    EXPECT_EQ(result, expected);
    EXPECT_EQ(stats.planKind, MwsPlan::Kind::Mws);
    // 2000 bits over 32-byte pages = 8 pages; one MWS command each.
    EXPECT_EQ(stats.mwsCommands, stats.resultPages);
}

TEST_F(DriveTest, OrOfInverseStoredGroup)
{
    FlashCosmosDrive drive;
    FlashCosmosDrive::WriteOptions opts;
    opts.group = 2;
    opts.storeInverted = true;
    std::vector<BitVector> data;
    std::vector<Expr> leaves;
    for (int i = 0; i < 5; ++i) {
        data.push_back(randomVec(777));
        leaves.push_back(Expr::leaf(drive.fcWrite(data.back(), opts)));
    }
    FlashCosmosDrive::ReadStats stats;
    BitVector result = drive.fcRead(Expr::Or(leaves), &stats);

    BitVector expected = data[0];
    for (int i = 1; i < 5; ++i)
        expected |= data[i];
    EXPECT_EQ(result, expected);
    EXPECT_EQ(stats.planKind, MwsPlan::Kind::Mws);
}

TEST_F(DriveTest, NandAndNorWork)
{
    FlashCosmosDrive drive;
    FlashCosmosDrive::WriteOptions opts;
    opts.group = 3;
    BitVector a = randomVec(300), b = randomVec(300);
    VectorId ia = drive.fcWrite(a, opts);
    VectorId ib = drive.fcWrite(b, opts);

    EXPECT_EQ(drive.fcRead(Expr::Nand({Expr::leaf(ia), Expr::leaf(ib)})),
              ~(a & b));
    EXPECT_EQ(drive.fcRead(Expr::Nor({Expr::leaf(ia), Expr::leaf(ib)})),
              ~(a | b));
    EXPECT_EQ(drive.fcRead(Expr::Not(Expr::leaf(ia))), ~a);
}

TEST_F(DriveTest, XorAndXnorUseLatchXor)
{
    FlashCosmosDrive drive;
    BitVector a = randomVec(256), b = randomVec(256);
    // XOR needs no co-location: separate auto groups.
    VectorId ia = drive.fcWrite(a);
    VectorId ib = drive.fcWrite(b);

    FlashCosmosDrive::ReadStats stats;
    EXPECT_EQ(drive.fcRead(Expr::Xor(Expr::leaf(ia), Expr::leaf(ib)),
                           &stats),
              a ^ b);
    EXPECT_EQ(stats.planKind, MwsPlan::Kind::Xor);
    EXPECT_GT(stats.latchXors, 0u);

    EXPECT_EQ(drive.fcRead(Expr::Xnor(Expr::leaf(ia), Expr::leaf(ib))),
              ~(a ^ b));
}

TEST_F(DriveTest, Figure16CombinedExpression)
{
    FlashCosmosDrive drive;
    FlashCosmosDrive::WriteOptions plain_a, plain_b, inv_c, inv_d;
    plain_a.group = 10;
    plain_b.group = 11;
    inv_c.group = 12;
    inv_c.storeInverted = true;
    inv_d.group = 13;
    inv_d.storeInverted = true;

    BitVector A1 = randomVec(640);
    std::vector<BitVector> B, C, D;
    VectorId a1 = drive.fcWrite(A1, plain_a);
    std::vector<VectorId> bi, ci, di;
    for (int i = 0; i < 4; ++i) {
        B.push_back(randomVec(640));
        bi.push_back(drive.fcWrite(B.back(), plain_b));
        C.push_back(randomVec(640));
        ci.push_back(drive.fcWrite(C.back(), inv_c));
        D.push_back(randomVec(640));
        di.push_back(drive.fcWrite(D.back(), inv_d));
    }

    // {A1 + (B1 B2 B3 B4)} (C1 + C3) (D2 + D4)  (Equation 4)
    Expr expr = Expr::And(
        {Expr::Or({Expr::leaf(a1),
                   Expr::And({Expr::leaf(bi[0]), Expr::leaf(bi[1]),
                              Expr::leaf(bi[2]), Expr::leaf(bi[3])})}),
         Expr::Or({Expr::leaf(ci[0]), Expr::leaf(ci[2])}),
         Expr::Or({Expr::leaf(di[1]), Expr::leaf(di[3])})});

    BitVector expected =
        (A1 | (B[0] & B[1] & B[2] & B[3])) & (C[0] | C[2]) &
        (D[1] | D[3]);

    FlashCosmosDrive::ReadStats stats;
    BitVector result = drive.fcRead(expr, &stats);
    EXPECT_EQ(result, expected);
    EXPECT_EQ(stats.planKind, MwsPlan::Kind::Mws);
    // Two MWS commands per page column (Figure 16).
    EXPECT_EQ(stats.mwsCommands, 2 * stats.resultPages);
}

TEST_F(DriveTest, WideAndAccumulatesAcrossSubBlocks)
{
    // More operands than a NAND string holds (tiny geometry: 8 WLs per
    // sub-block) forces multi-command accumulation.
    FlashCosmosDrive drive;
    FlashCosmosDrive::WriteOptions opts;
    opts.group = 20;
    std::vector<BitVector> data;
    std::vector<Expr> leaves;
    for (int i = 0; i < 20; ++i) {
        data.push_back(randomVec(333));
        leaves.push_back(Expr::leaf(drive.fcWrite(data.back(), opts)));
    }
    FlashCosmosDrive::ReadStats stats;
    BitVector result = drive.fcRead(Expr::And(leaves), &stats);
    BitVector expected = data[0];
    for (int i = 1; i < 20; ++i)
        expected &= data[i];
    EXPECT_EQ(result, expected);
    // ceil(20 / 8) = 3 commands per column.
    EXPECT_EQ(stats.mwsCommands, 3 * stats.resultPages);
}

TEST_F(DriveTest, FallbackStillComputesCorrectly)
{
    setQuietWarnings(true);
    FlashCosmosDrive drive;
    // Two wide ANDs OR'd together: two deep chains -> fallback.
    FlashCosmosDrive::WriteOptions g1, g2;
    g1.group = 30;
    g2.group = 31;
    std::vector<BitVector> data;
    std::vector<Expr> a, b;
    for (int i = 0; i < 10; ++i) {
        data.push_back(randomVec(200));
        a.push_back(Expr::leaf(drive.fcWrite(data.back(), g1)));
    }
    for (int i = 0; i < 10; ++i) {
        data.push_back(randomVec(200));
        b.push_back(Expr::leaf(drive.fcWrite(data.back(), g2)));
    }
    Expr expr = Expr::Or({Expr::And(a), Expr::And(b)});
    FlashCosmosDrive::ReadStats stats;
    BitVector result = drive.fcRead(expr, &stats);

    BitVector ea = data[0];
    for (int i = 1; i < 10; ++i)
        ea &= data[i];
    BitVector eb = data[10];
    for (int i = 11; i < 20; ++i)
        eb &= data[i];
    EXPECT_EQ(result, ea | eb);
    EXPECT_EQ(stats.planKind, MwsPlan::Kind::Fallback);
    EXPECT_GT(stats.pageReads, 0u);
    setQuietWarnings(false);
}

TEST_F(DriveTest, FallbackComputePersistsTheControllerFold)
{
    setQuietWarnings(true);
    // Metrics on so the program count can be read off the registry.
    obs::ScopedCapture cap(/*trace=*/false, /*metrics=*/true);
    FlashCosmosDrive drive;
    // The expression of FallbackStillComputesCorrectly, over 3 pages.
    FlashCosmosDrive::WriteOptions g1, g2;
    g1.group = 30;
    g2.group = 31;
    const std::uint64_t pages = 3;
    const std::size_t bits =
        pages * FlashCosmosDrive::Config{}.geometry.pageBits();
    std::vector<BitVector> data;
    std::vector<Expr> a, b;
    for (int i = 0; i < 10; ++i) {
        data.push_back(randomVec(bits));
        a.push_back(Expr::leaf(drive.fcWrite(data.back(), g1)));
    }
    for (int i = 0; i < 10; ++i) {
        data.push_back(randomVec(bits));
        b.push_back(Expr::leaf(drive.fcWrite(data.back(), g2)));
    }
    Expr expr = Expr::Or({Expr::And(a), Expr::And(b)});
    obs::Histogram &programs =
        cap.metricsRegistry().histogram("engine.op_latency.nand.program");
    const std::uint64_t programs_before = programs.count();

    FlashCosmosDrive::ReadStats stats;
    VectorId out = drive.fcCompute(expr, {}, &stats);

    BitVector ea = data[0];
    for (int i = 1; i < 10; ++i)
        ea &= data[i];
    BitVector eb = data[10];
    for (int i = 11; i < 20; ++i)
        eb &= data[i];
    EXPECT_EQ(stats.planKind, MwsPlan::Kind::Fallback);
    EXPECT_EQ(stats.pageReads, 20 * pages);
    EXPECT_EQ(programs.count() - programs_before, pages);
    EXPECT_EQ(drive.readVector(out), ea | eb);
    setQuietWarnings(false);
}

TEST_F(DriveTest, WriteAndWritePagesOfOneVectorMatch)
{
    // fcWrite of a vector and fcWritePages of its dense page images
    // store the same bits on the same timeline and energy ledger.
    const std::uint64_t page_bits =
        FlashCosmosDrive::Config{}.geometry.pageBits();
    const std::uint64_t pages = 5;
    const BitVector v = randomVec(pages * page_bits);
    for (bool inverted : {false, true}) {
        FlashCosmosDrive::WriteOptions opts;
        opts.storeInverted = inverted;
        FlashCosmosDrive whole, paged;
        const VectorId iw = whole.fcWrite(v, opts);
        const VectorId ip = paged.fcWritePages(
            [&](std::uint64_t j) {
                return nand::PageImage::dense(v.slice(j * page_bits,
                                                      page_bits));
            },
            pages, opts);
        const BitVector bw = whole.readVector(iw);
        EXPECT_EQ(bw, v) << "inverted " << inverted;
        EXPECT_EQ(paged.readVector(ip), bw) << "inverted " << inverted;
        EXPECT_EQ(whole.engine().makespan(), paged.engine().makespan())
            << "inverted " << inverted;
        EXPECT_EQ(whole.engine().totalEnergyJ(),
                  paged.engine().totalEnergyJ())
            << "inverted " << inverted;
    }
}

TEST_F(DriveTest, GroupsRequireEqualSizes)
{
    FlashCosmosDrive drive;
    FlashCosmosDrive::WriteOptions opts;
    opts.group = 40;
    drive.fcWrite(randomVec(1000), opts);
    EXPECT_DEATH(drive.fcWrite(randomVec(5000), opts), "equal page");
}

TEST_F(DriveTest, MultiPageVectorsSpanDiesAndPlanes)
{
    FlashCosmosDrive::Config cfg;
    cfg.dies = 4;
    FlashCosmosDrive drive(cfg);
    FlashCosmosDrive::WriteOptions opts;
    opts.group = 50;
    // tiny geometry: 32-byte pages, 8 columns => 4096 bits = 16 pages.
    BitVector a = randomVec(4096), b = randomVec(4096);
    VectorId ia = drive.fcWrite(a, opts);
    VectorId ib = drive.fcWrite(b, opts);
    EXPECT_EQ(drive.fcRead(Expr::And({Expr::leaf(ia), Expr::leaf(ib)})),
              a & b);

    // Pages should spread across all 8 columns.
    const auto &pages = drive.vectorPages(ia);
    ASSERT_EQ(pages.size(), 16u);
    std::set<std::pair<std::uint32_t, std::uint32_t>> columns;
    for (const auto &p : pages)
        columns.insert({p.die, p.addr.plane});
    EXPECT_EQ(columns.size(), 8u);
}

} // namespace
} // namespace fcos::core
