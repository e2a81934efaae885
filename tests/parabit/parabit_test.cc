/**
 * @file
 * ParaBit baseline tests: its Figure 6(b)/(c) serial AND and OR flows,
 * built from single-wordline ISCM-flagged MWS commands on one die, and
 * the Section 3.2 points the paper draws against it (one tR per
 * operand, raw-SLC errors that ESP avoids).
 */

#include <gtest/gtest.h>

#include "nand/chip.h"
#include "reliability/error_injector.h"
#include "tests/support/random_fixture.h"

namespace fcos::nand {
namespace {
WlSelection
oneWordline(const WordlineAddr &a)
{
    return WlSelection{a.block, a.subBlock, 1ULL << a.wordline};
}

/**
 * ParaBit's serial AND (Figure 6(b)) as single-wordline MWS commands:
 * only the first sense initializes S, so each later one accumulates
 * S := S AND N; only the last dumps S to the cache latch.
 */
OpResult
serialAnd(NandChip &chip, const std::vector<WordlineAddr> &ops)
{
    OpResult total;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const bool last = i + 1 == ops.size();
        MwsCommand cmd;
        cmd.plane = ops[i].plane;
        cmd.flags.initSenseLatch = i == 0;
        cmd.flags.initCacheLatch = last;
        cmd.flags.dumpToCache = last;
        cmd.selections.push_back(oneWordline(ops[i]));
        OpResult r = chip.executeMws(cmd);
        total.latency += r.latency;
        total.energyJ += r.energyJ;
    }
    return total;
}

/**
 * ParaBit's serial OR (Figure 6(c)): read the first operand into the
 * cache latch, then sense each other one with C-init and the dump off
 * and OR-merge S into C with the cache-read transfer.
 */
void
serialOr(NandChip &chip, const std::vector<WordlineAddr> &ops)
{
    chip.readPage(ops[0]);
    for (std::size_t i = 1; i < ops.size(); ++i) {
        MwsCommand cmd;
        cmd.plane = ops[i].plane;
        cmd.flags.initCacheLatch = false;
        cmd.flags.dumpToCache = false;
        cmd.selections.push_back(oneWordline(ops[i]));
        chip.executeMws(cmd);
        chip.latches(cmd.plane).dumpOrMerge();
    }
}

class ParaBitTest : public ::testing::Test
{
  protected:
    ParaBitTest() : chip(Geometry::tiny()) {}

    BitVector randomPage(Rng &rng)
    {
        return test::randomPage(rng, chip.geometry());
    }

    NandChip chip;
};

TEST_F(ParaBitTest, SerialAndMatchesFold)
{
    Rng rng = Rng::seeded(18);
    std::vector<WordlineAddr> ops;
    BitVector expected(chip.geometry().pageBits(), true);
    for (std::uint32_t i = 0; i < 6; ++i) {
        BitVector v = randomPage(rng);
        WordlineAddr a{0, i / 2, i % 2, i};
        chip.programPage(a, v);
        ops.push_back(a);
        expected &= v;
    }
    std::uint64_t before = chip.senseCount(0);
    serialAnd(chip, ops);
    EXPECT_EQ(chip.dataOut(0), expected);
    EXPECT_EQ(chip.senseCount(0), before + 6);
}

TEST_F(ParaBitTest, SerialOrMatchesFold)
{
    Rng rng = Rng::seeded(19);
    std::vector<WordlineAddr> ops;
    BitVector expected(chip.geometry().pageBits(), false);
    for (std::uint32_t i = 0; i < 5; ++i) {
        BitVector v = randomPage(rng);
        WordlineAddr a{1, i, 0, 0};
        chip.programPage(a, v);
        ops.push_back(a);
        expected |= v;
    }
    serialOr(chip, ops);
    EXPECT_EQ(chip.dataOut(1), expected);
}

TEST_F(ParaBitTest, PaysOneReadPerOperandUnlikeMws)
{
    // The Section 3.2 bottleneck: ParaBit's 8-operand AND costs 8 full
    // tR at read power; one intra-block MWS over the same 8 wordlines
    // needs ~1.008 tR (Figure 12, Section 8.1).
    Rng rng = Rng::seeded(20);
    std::vector<WordlineAddr> ops;
    for (std::uint32_t i = 0; i < 8; ++i) {
        WordlineAddr a{0, 0, 0, i};
        chip.programPage(a, randomPage(rng));
        ops.push_back(a);
    }
    OpResult serial = serialAnd(chip, ops);
    BitVector serial_result = chip.dataOut(0);
    EXPECT_EQ(serial.latency, 8 * usToTime(22.5));
    EXPECT_NEAR(serial.energyJ,
                8 * PowerModel::energy(PowerModel::kReadPower,
                                       usToTime(22.5)),
                1e-9 * serial.energyJ);

    MwsCommand cmd;
    cmd.plane = 0;
    cmd.selections.push_back(WlSelection{0, 0, 0xFF});
    Time mws_latency = chip.executeMws(cmd).latency;
    EXPECT_EQ(chip.dataOut(0), serial_result);
    EXPECT_GT(serial.latency, 7 * mws_latency);
}

TEST(ParaBitErrorTest, InheritsRawBitErrorsUnlikeEsp)
{
    // Section 3.2: ParaBit reads raw (regular-SLC) cells and cannot
    // use ECC, so multi-operand ANDs accumulate errors; the same data
    // stored with ESP computes without error.
    rel::VthModel model;
    rel::OperatingCondition worst{10000, 12.0, false};
    rel::VthErrorInjector inj(model, worst);
    Geometry geom = Geometry::tiny();
    geom.pageBytes = 8192;
    NandChip chip(geom, Timings{}, &inj);

    Rng rng = Rng::seeded(5);
    BitVector expected(geom.pageBits(), true);
    std::vector<WordlineAddr> slc_ops, esp_ops;
    for (std::uint32_t i = 0; i < 8; ++i) {
        BitVector v = test::randomPage(rng, geom);
        expected &= v;
        WordlineAddr slc_a{0, 0, 0, i};
        WordlineAddr esp_a{0, 1, 0, i};
        chip.programPage(slc_a, v, ProgramMode::SlcRegular);
        chip.programPageEsp(esp_a, v, EspParams{2.0});
        slc_ops.push_back(slc_a);
        esp_ops.push_back(esp_a);
    }
    serialAnd(chip, slc_ops);
    std::size_t slc_errors = chip.dataOut(0).hammingDistance(expected);
    serialAnd(chip, esp_ops);
    std::size_t esp_errors = chip.dataOut(0).hammingDistance(expected);
    EXPECT_GT(slc_errors, 0u);
    EXPECT_EQ(esp_errors, 0u);
}

} // namespace
} // namespace fcos::nand
