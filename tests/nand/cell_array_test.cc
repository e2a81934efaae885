/**
 * @file
 * Cell-array tests: program/erase rules and the MWS conduction
 * primitive (AND within a string, OR across strings — Section 4.1).
 */

#include <gtest/gtest.h>

#include "nand/cell_array.h"
#include "util/rng.h"

namespace fcos::nand {
namespace {

class CellArrayTest : public ::testing::Test
{
  protected:
    CellArrayTest() : geom(Geometry::tiny()), cells(geom) {}

    BitVector page(const std::string &prefix)
    {
        BitVector v(geom.pageBits(), true);
        for (std::size_t i = 0; i < prefix.size(); ++i)
            v.set(i, prefix[i] == '1');
        return v;
    }

    Geometry geom;
    CellArray cells;
    PageMeta meta{};
};

TEST_F(CellArrayTest, ErasedPagesReadAllOnes)
{
    WordlineAddr a{0, 0, 0, 0};
    EXPECT_FALSE(cells.isProgrammed(a));
    BitVector v = cells.effectiveData(a, nullptr, 0);
    EXPECT_TRUE(v.allOnes());
}

TEST_F(CellArrayTest, ProgramThenReadBack)
{
    WordlineAddr a{0, 1, 0, 3};
    BitVector data = page("0101");
    cells.program(a, data, meta);
    EXPECT_TRUE(cells.isProgrammed(a));
    EXPECT_EQ(cells.effectiveData(a, nullptr, 0), data);
    ASSERT_NE(cells.pageMeta(a), nullptr);
    EXPECT_EQ(cells.pageData(a), data);
}

TEST_F(CellArrayTest, DoubleProgramWithoutEraseIsFatal)
{
    WordlineAddr a{0, 0, 0, 0};
    cells.program(a, page("1"), meta);
    EXPECT_EXIT(cells.program(a, page("0"), meta),
                ::testing::ExitedWithCode(1), "without erase");
}

TEST_F(CellArrayTest, EraseClearsAllSubBlocksAndBumpsPec)
{
    WordlineAddr a{0, 2, 0, 1};
    WordlineAddr b{0, 2, 1, 5};
    cells.program(a, page("0"), meta);
    cells.program(b, page("0"), meta);
    EXPECT_EQ(cells.blockPec(0, 2), 0u);
    cells.eraseBlock(0, 2);
    EXPECT_FALSE(cells.isProgrammed(a));
    EXPECT_FALSE(cells.isProgrammed(b));
    EXPECT_EQ(cells.blockPec(0, 2), 1u);
    cells.program(a, page("1"), meta); // reprogram after erase is legal
}

TEST_F(CellArrayTest, PecRecordedAtProgramTime)
{
    cells.setBlockPec(0, 3, 1000);
    WordlineAddr a{0, 3, 0, 0};
    cells.program(a, page("1"), meta);
    ASSERT_NE(cells.pageMeta(a), nullptr);
    EXPECT_EQ(cells.pageMeta(a)->pecAtProgram, 1000u);
}

TEST_F(CellArrayTest, IntraStringConductionIsAnd)
{
    // Two wordlines of the same sub-block: conduction = AND.
    WordlineAddr w0{0, 0, 0, 0}, w1{0, 0, 0, 1};
    cells.program(w0, page("1100"), meta);
    cells.program(w1, page("1010"), meta);
    WlSelection sel{0, 0, 0b11};
    BitVector c = cells.senseConduction(0, {sel}, nullptr, 0);
    EXPECT_TRUE(c.get(0));
    EXPECT_FALSE(c.get(1));
    EXPECT_FALSE(c.get(2));
    EXPECT_FALSE(c.get(3));
}

TEST_F(CellArrayTest, InterStringConductionIsOr)
{
    // Wordlines in different sub-blocks: conduction = OR.
    WordlineAddr w0{0, 0, 0, 0}, w1{0, 0, 1, 0};
    cells.program(w0, page("1100"), meta);
    cells.program(w1, page("1010"), meta);
    std::vector<WlSelection> sels{{0, 0, 0b1}, {0, 1, 0b1}};
    BitVector c = cells.senseConduction(0, sels, nullptr, 0);
    EXPECT_TRUE(c.get(0));
    EXPECT_TRUE(c.get(1));
    EXPECT_TRUE(c.get(2));
    EXPECT_FALSE(c.get(3));
}

TEST_F(CellArrayTest, CombinedConductionMatchesEquationOne)
{
    // (A1 . A2) + (B1 . B2) — Equation 1 of the paper.
    Rng rng = Rng::seeded(11);
    BitVector a1(geom.pageBits()), a2(geom.pageBits());
    BitVector b1(geom.pageBits()), b2(geom.pageBits());
    a1.randomize(rng);
    a2.randomize(rng);
    b1.randomize(rng);
    b2.randomize(rng);
    cells.program({0, 0, 0, 0}, a1, meta);
    cells.program({0, 0, 0, 1}, a2, meta);
    cells.program({0, 1, 1, 2}, b1, meta);
    cells.program({0, 1, 1, 3}, b2, meta);
    std::vector<WlSelection> sels{{0, 0, 0b11}, {1, 1, 0b1100}};
    BitVector c = cells.senseConduction(0, sels, nullptr, 0);
    EXPECT_EQ(c, (a1 & a2) | (b1 & b2));
}

TEST_F(CellArrayTest, NonTargetWordlinesDoNotAffectConduction)
{
    // V_PASS on non-target wordlines turns them on regardless of
    // state: programming neighbours must not change the result.
    WordlineAddr target{0, 0, 0, 2};
    cells.program(target, page("10"), meta);
    WlSelection sel{0, 0, 1ULL << 2};
    BitVector before = cells.senseConduction(0, {sel}, nullptr, 0);
    cells.program({0, 0, 0, 3}, page("00"), meta);
    cells.program({0, 0, 0, 4}, page("01"), meta);
    BitVector after = cells.senseConduction(0, {sel}, nullptr, 0);
    EXPECT_EQ(before, after);
}

TEST_F(CellArrayTest, FullStringSensing)
{
    // All wordlines of a sub-block participate (the paper's 48-operand
    // AND, scaled to the tiny geometry's 8).
    Rng rng = Rng::seeded(22);
    BitVector expected(geom.pageBits(), true);
    std::uint64_t mask = 0;
    for (std::uint32_t wl = 0; wl < geom.wordlinesPerSubBlock; ++wl) {
        BitVector v(geom.pageBits());
        v.randomize(rng);
        cells.program({0, 4, 0, wl}, v, meta);
        expected &= v;
        mask |= 1ULL << wl;
    }
    BitVector c =
        cells.senseConduction(0, {WlSelection{4, 0, mask}}, nullptr, 0);
    EXPECT_EQ(c, expected);
}

TEST_F(CellArrayTest, SelectionValidation)
{
    EXPECT_DEATH(cells.senseConduction(0, {}, nullptr, 0), "empty");
    EXPECT_DEATH(
        cells.senseConduction(0, {WlSelection{0, 0, 0}}, nullptr, 0),
        "empty wordline mask");
    EXPECT_DEATH(cells.senseConduction(
                     0, {WlSelection{0, 0, 1ULL << 60}}, nullptr, 0),
                 "beyond string length");
}

TEST_F(CellArrayTest, ProgrammedPageAccounting)
{
    EXPECT_EQ(cells.programmedPages(), 0u);
    cells.program({0, 0, 0, 0}, page("1"), meta);
    cells.program({1, 0, 0, 0}, page("1"), meta);
    EXPECT_EQ(cells.programmedPages(), 2u);
    cells.eraseBlock(0, 0);
    EXPECT_EQ(cells.programmedPages(), 1u);
}

TEST_F(CellArrayTest, ProceduralImagesSenseLikeTheirMaterialization)
{
    // A descriptor-programmed page must sense exactly as if its
    // materialized payload had been programmed densely.
    PageImage img = PageImage::random(Rng::mix(9, 4));
    BitVector expect = img.materialize(geom.pageBits());
    cells.program({0, 0, 0, 0}, img, meta);
    EXPECT_EQ(cells.effectiveData({0, 0, 0, 0}, nullptr, 0), expect);

    PageImage inv = img.inverted();
    cells.program({0, 0, 0, 1}, inv, meta);
    EXPECT_EQ(cells.effectiveData({0, 0, 0, 1}, nullptr, 0), ~expect);

    cells.program({0, 0, 1, 0}, PageImage::checkered(true), meta);
    BitVector checkered(geom.pageBits());
    checkered.fillCheckered(true);
    EXPECT_EQ(cells.pageData({0, 0, 1, 0}), checkered);
}

} // namespace
} // namespace fcos::nand
