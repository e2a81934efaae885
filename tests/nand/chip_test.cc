/**
 * @file
 * NAND chip tests: commands through the full die (array + latches +
 * timing + energy).
 */

#include <gtest/gtest.h>

#include "nand/chip.h"
#include "tests/support/random_fixture.h"

namespace fcos::nand {
namespace {

class ChipTest : public ::testing::Test
{
  protected:
    ChipTest() : chip(Geometry::tiny()) {}

    BitVector randomPage(Rng &rng)
    {
        return test::randomPage(rng, chip.geometry());
    }

    NandChip chip;
};

TEST_F(ChipTest, ProgramReadRoundTrip)
{
    Rng rng = Rng::seeded(1);
    BitVector data = randomPage(rng);
    WordlineAddr a{0, 0, 0, 0};
    OpResult w = chip.programPage(a, data);
    EXPECT_EQ(w.latency, usToTime(200.0));
    OpResult r = chip.readPage(a);
    EXPECT_EQ(r.latency, usToTime(22.5));
    EXPECT_EQ(chip.dataOut(0), data);
}

TEST_F(ChipTest, InverseReadReturnsComplement)
{
    Rng rng = Rng::seeded(2);
    BitVector data = randomPage(rng);
    WordlineAddr a{1, 3, 1, 2};
    chip.programPage(a, data);
    chip.readPage(a, true);
    EXPECT_EQ(chip.dataOut(1), ~data);
}

TEST_F(ChipTest, EspProgramUsesExtendedLatency)
{
    Rng rng = Rng::seeded(3);
    WordlineAddr a{0, 1, 0, 0};
    OpResult w = chip.programPageEsp(a, randomPage(rng),
                                     EspParams{2.0});
    EXPECT_EQ(w.latency, usToTime(400.0));
    const PageMeta *pm = chip.cells().pageMeta(a);
    ASSERT_NE(pm, nullptr);
    EXPECT_EQ(pm->mode, ProgramMode::SlcEsp);
    EXPECT_FALSE(pm->randomized);
}

TEST(ChipEspTest, EspModeProgramMatchesProgramPageEsp)
{
    // programPage(..., SlcEsp) and programPageEsp() are two entries to
    // one ESP program: same latency, same energy and the same recorded
    // context, so the error model charges both pages the ESP rate. tESP
    // follows tPROG(SLC): 400 us at Table 1's 200 us, 600 us at 300 us.
    for (double t_slc_us : {200.0, 300.0}) {
        Timings timings;
        timings.tProgSlc = usToTime(t_slc_us);
        NandChip chip(Geometry::tiny(), timings);
        Rng rng = Rng::seeded(7);
        const BitVector data = test::randomPage(rng, chip.geometry());
        const WordlineAddr a{0, 1, 0, 0}, b{0, 2, 0, 0};
        OpResult via_mode = chip.programPage(a, data, ProgramMode::SlcEsp);
        OpResult via_esp = chip.programPageEsp(b, data);
        EXPECT_EQ(via_mode.latency, usToTime(2.0 * t_slc_us));
        EXPECT_EQ(via_esp.latency, via_mode.latency);
        EXPECT_DOUBLE_EQ(via_esp.energyJ, via_mode.energyJ);

        const PageMeta *ma = chip.cells().pageMeta(a);
        const PageMeta *mb = chip.cells().pageMeta(b);
        ASSERT_NE(ma, nullptr);
        ASSERT_NE(mb, nullptr);
        EXPECT_EQ(ma->mode, mb->mode);
        EXPECT_EQ(ma->espFactor, mb->espFactor);
        EXPECT_EQ(ma->randomized, mb->randomized);
        EXPECT_EQ(ma->pecAtProgram, mb->pecAtProgram);
    }
}

TEST_F(ChipTest, IntraBlockMwsComputesAnd)
{
    Rng rng = Rng::seeded(4);
    BitVector a = randomPage(rng), b = randomPage(rng),
              c = randomPage(rng);
    chip.programPage({0, 0, 0, 0}, a);
    chip.programPage({0, 0, 0, 1}, b);
    chip.programPage({0, 0, 0, 2}, c);
    MwsCommand cmd;
    cmd.plane = 0;
    cmd.selections.push_back(WlSelection{0, 0, 0b111});
    OpResult r = chip.executeMws(cmd);
    EXPECT_EQ(chip.dataOut(0), a & b & c);
    // Intra-block MWS latency is tR x small factor (Fig. 12).
    EXPECT_GE(r.latency, usToTime(22.5));
    EXPECT_LE(r.latency, usToTime(23.3));
}

TEST_F(ChipTest, InterBlockMwsComputesOr)
{
    Rng rng = Rng::seeded(5);
    BitVector a = randomPage(rng), b = randomPage(rng);
    chip.programPage({0, 0, 0, 0}, a);
    chip.programPage({0, 1, 0, 0}, b);
    MwsCommand cmd;
    cmd.plane = 0;
    cmd.selections.push_back(WlSelection{0, 0, 1});
    cmd.selections.push_back(WlSelection{1, 0, 1});
    chip.executeMws(cmd);
    EXPECT_EQ(chip.dataOut(0), a | b);
}

TEST_F(ChipTest, InverseMwsComputesNandAndNor)
{
    Rng rng = Rng::seeded(6);
    BitVector a = randomPage(rng), b = randomPage(rng);
    chip.programPage({0, 2, 0, 0}, a);
    chip.programPage({0, 2, 0, 1}, b);
    MwsCommand nand_cmd;
    nand_cmd.plane = 0;
    nand_cmd.flags.inverseRead = true;
    nand_cmd.selections.push_back(WlSelection{2, 0, 0b11});
    chip.executeMws(nand_cmd);
    EXPECT_EQ(chip.dataOut(0), ~(a & b));

    chip.programPage({0, 3, 0, 0}, a);
    chip.programPage({0, 4, 0, 0}, b);
    MwsCommand nor_cmd;
    nor_cmd.plane = 0;
    nor_cmd.flags.inverseRead = true;
    nor_cmd.selections.push_back(WlSelection{3, 0, 1});
    nor_cmd.selections.push_back(WlSelection{4, 0, 1});
    chip.executeMws(nor_cmd);
    EXPECT_EQ(chip.dataOut(0), ~(a | b));
}

TEST_F(ChipTest, AccumulationAcrossMwsCommands)
{
    // Figure 16 mechanics: second command with both inits off
    // AND-accumulates into both latches.
    Rng rng = Rng::seeded(7);
    BitVector a = randomPage(rng), b = randomPage(rng);
    chip.programPage({0, 0, 0, 0}, a);
    chip.programPage({0, 1, 0, 0}, b);

    MwsCommand first;
    first.plane = 0;
    first.selections.push_back(WlSelection{0, 0, 1});
    chip.executeMws(first);

    MwsCommand second;
    second.plane = 0;
    second.flags.initCacheLatch = false;
    second.selections.push_back(WlSelection{1, 0, 1});
    chip.executeMws(second);

    EXPECT_EQ(chip.dataOut(0), a & b);
}

TEST_F(ChipTest, ExecuteMwsFromEncodedBytes)
{
    Rng rng = Rng::seeded(8);
    BitVector a = randomPage(rng), b = randomPage(rng);
    chip.programPage({0, 5, 0, 3}, a);
    chip.programPage({0, 5, 0, 4}, b);
    MwsCommand cmd;
    cmd.plane = 0;
    cmd.selections.push_back(WlSelection{5, 0, 0b11000});
    chip.executeMws(
        decodeMws(chip.geometry(), encodeMws(chip.geometry(), cmd)));
    EXPECT_EQ(chip.dataOut(0), a & b);
}

TEST_F(ChipTest, XorCommandCombinesLatches)
{
    Rng rng = Rng::seeded(9);
    BitVector a = randomPage(rng), b = randomPage(rng);
    chip.programPage({0, 6, 0, 0}, a);
    chip.programPage({0, 6, 0, 1}, b);
    chip.readPage({0, 6, 0, 0}); // C := a
    MwsCommand sense_b;
    sense_b.plane = 0;
    sense_b.flags.initCacheLatch = false;
    sense_b.flags.dumpToCache = false;
    sense_b.selections.push_back(WlSelection{6, 0, 0b10});
    chip.executeMws(sense_b); // S := b
    chip.executeXor(0);
    EXPECT_EQ(chip.dataOut(0), a ^ b);
}

TEST_F(ChipTest, EraseAllowsReprogram)
{
    Rng rng = Rng::seeded(10);
    BitVector a = randomPage(rng);
    chip.programPage({0, 7, 0, 0}, a);
    OpResult e = chip.eraseBlock(0, 7);
    EXPECT_EQ(e.latency, usToTime(3500.0));
    BitVector b = randomPage(rng);
    chip.programPage({0, 7, 0, 0}, b);
    chip.readPage({0, 7, 0, 0});
    EXPECT_EQ(chip.dataOut(0), b);
}

TEST_F(ChipTest, PlanesHaveIndependentLatches)
{
    Rng rng = Rng::seeded(11);
    BitVector a = randomPage(rng), b = randomPage(rng);
    chip.programPage({0, 0, 0, 0}, a);
    chip.programPage({1, 0, 0, 0}, b);
    chip.readPage({0, 0, 0, 0});
    chip.readPage({1, 0, 0, 0});
    EXPECT_EQ(chip.dataOut(0), a);
    EXPECT_EQ(chip.dataOut(1), b);
}

TEST_F(ChipTest, MwsEnergyScalesWithActivatedBlocks)
{
    Rng rng = Rng::seeded(12);
    for (std::uint32_t blk = 0; blk < 4; ++blk)
        chip.programPage({0, blk, 0, 0}, randomPage(rng));
    auto energy_for = [&](std::uint32_t blocks) {
        MwsCommand cmd;
        cmd.plane = 0;
        for (std::uint32_t b = 0; b < blocks; ++b)
            cmd.selections.push_back(WlSelection{b, 0, 1});
        return chip.executeMws(cmd).energyJ;
    };
    double e1 = energy_for(1), e4 = energy_for(4);
    EXPECT_GT(e4, 1.5 * e1); // Fig. 14: ~+80% power at 4 blocks
}

TEST_F(ChipTest, ProgramFromCachePersistsLatchContents)
{
    Rng rng = Rng::seeded(14);
    BitVector a = randomPage(rng), b = randomPage(rng);
    chip.programPage({0, 0, 0, 0}, a);
    chip.programPage({0, 0, 0, 1}, b);
    // Compute AND in the latches, then persist without data-out.
    MwsCommand cmd;
    cmd.plane = 0;
    cmd.selections.push_back(WlSelection{0, 0, 0b11});
    chip.executeMws(cmd);
    OpResult w = chip.programFromCache({0, 1, 0, 0});
    EXPECT_EQ(w.latency, usToTime(400.0)); // ESP by default
    chip.readPage({0, 1, 0, 0});
    EXPECT_EQ(chip.dataOut(0), a & b);
    const PageMeta *pm = chip.cells().pageMeta({0, 1, 0, 0});
    ASSERT_NE(pm, nullptr);
    EXPECT_EQ(pm->mode, ProgramMode::SlcEsp);
}

TEST_F(ChipTest, CopybackMovesDataWithinPlane)
{
    Rng rng = Rng::seeded(15);
    BitVector data = randomPage(rng);
    chip.programPage({0, 2, 0, 3}, data);
    OpResult r = chip.copyback({0, 2, 0, 3}, {0, 3, 0, 0});
    // Read + program, no channel transfer.
    EXPECT_EQ(r.latency, usToTime(22.5) + usToTime(200.0));
    chip.readPage({0, 3, 0, 0});
    EXPECT_EQ(chip.dataOut(0), data);
}

TEST_F(ChipTest, CopybackPreservesEspMode)
{
    Rng rng = Rng::seeded(16);
    BitVector data = randomPage(rng);
    chip.programPageEsp({0, 4, 0, 0}, data, EspParams{2.0});
    chip.copyback({0, 4, 0, 0}, {0, 5, 0, 0});
    const PageMeta *pm = chip.cells().pageMeta({0, 5, 0, 0});
    ASSERT_NE(pm, nullptr);
    EXPECT_EQ(pm->mode, ProgramMode::SlcEsp);
    EXPECT_DOUBLE_EQ(pm->espFactor, 2.0);
    chip.readPage({0, 5, 0, 0});
    EXPECT_EQ(chip.dataOut(0), data);
}

TEST_F(ChipTest, CopybackCannotCrossPlanes)
{
    EXPECT_DEATH(chip.copyback({0, 0, 0, 0}, {1, 0, 0, 0}),
                 "cross planes");
}

TEST_F(ChipTest, EraseVerifyDetectsProgrammedCells)
{
    Rng rng = Rng::seeded(17);
    EXPECT_TRUE(chip.eraseVerify(0, 6)); // never-programmed block
    BitVector data = randomPage(rng);
    data.set(0, false); // at least one programmed cell
    chip.programPage({0, 6, 1, 4}, data);
    OpResult cost;
    EXPECT_FALSE(chip.eraseVerify(0, 6, &cost));
    EXPECT_GT(cost.latency, 0u);
    chip.eraseBlock(0, 6);
    EXPECT_TRUE(chip.eraseVerify(0, 6));
}

TEST_F(ChipTest, SenseCounterAdvances)
{
    Rng rng = Rng::seeded(13);
    chip.programPage({0, 0, 0, 0}, randomPage(rng));
    std::uint64_t before = chip.senseCount();
    chip.readPage({0, 0, 0, 0});
    chip.readPage({0, 0, 0, 0});
    EXPECT_EQ(chip.senseCount(), before + 2);
}

} // namespace
} // namespace fcos::nand
