/**
 * @file
 * The ISA-dispatched kernels (util/isa.h) at every level the host
 * supports: each must give the bits of the baseline level, of
 * std::mt19937_64 and of per-bit Rng::bernoulli(). The tsan tier runs
 * it too, so a kernel resolver that ran before the sanitizer's runtime
 * (as target_clones/ifunc ones do) would crash CI at start-up.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "util/bitvector.h"
#include "util/isa.h"
#include "util/rng.h"

namespace fcos {
namespace {

std::vector<IsaLevel>
supportedLevels()
{
    std::vector<IsaLevel> levels;
    for (IsaLevel level : kIsaLevels) {
        if (isaLevelSupported(level))
            levels.push_back(level);
    }
    return levels;
}

// Smoke check: the dispatched kernels, called from four threads at
// once, run and agree on the active level.
TEST(IsaDispatchTest, ConcurrentCallsAgreeOnTheLevel)
{
    std::vector<IsaLevel> seen(4);
    std::vector<std::size_t> ones(4);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < seen.size(); ++t) {
        threads.emplace_back([&, t] {
            Rng rng(t);
            std::uint64_t words[40];
            rng.fillBernoulli(words, 40 * 64, 0.5 + 0.1 * t);
            ones[t] = popcountWords(words, 40);
            seen[t] = activeIsaLevel();
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (std::size_t t = 0; t < seen.size(); ++t) {
        EXPECT_EQ(seen[t], seen[0]);
        EXPECT_GT(ones[t], 0u);
    }
}

TEST(IsaDispatchTest, ActiveLevelIsTheHighestSupported)
{
    const IsaLevel active = activeIsaLevel();
    EXPECT_TRUE(isaLevelSupported(IsaLevel::Baseline));
    EXPECT_TRUE(isaLevelSupported(active));
    for (IsaLevel level : kIsaLevels) {
        if (level > active) {
            EXPECT_FALSE(isaLevelSupported(level)) << isaLevelName(level);
        }
    }
    EXPECT_EQ(activeIsaLevel(), active); // resolved once
    EXPECT_STREQ(isaLevelName(IsaLevel::Baseline), "baseline");
    EXPECT_STREQ(isaLevelName(IsaLevel::X86_64_V3), "x86-64-v3");
    EXPECT_STREQ(isaLevelName(IsaLevel::X86_64_V4), "x86-64-v4");
    // The default engine runs the active level's kernels.
    Mt19937_64 dflt(9), at_active(9, active);
    std::vector<std::uint64_t> a(700), b(700);
    dflt.fill(a.data(), a.size());
    at_active.fill(b.data(), b.size());
    EXPECT_EQ(a, b);
}

TEST(IsaDispatchTest, FillMatchesStdAcrossTwistBoundaries)
{
    // Runs of fill() and operator() of assorted lengths: most start
    // mid-block and many straddle one or more twists.
    const std::vector<std::size_t> runs = {1,   63, 64,  155, 156, 311,
                                           312, 1,  313, 0,   700, 2048,
                                           5,   2,  624, 3};
    for (IsaLevel level : supportedLevels()) {
        for (std::uint64_t seed :
             {0ULL, 1ULL, 5489ULL, 0x9E3779B97F4A7C15ULL, ~0ULL}) {
            Mt19937_64 eng(seed, level), base(seed, IsaLevel::Baseline);
            std::mt19937_64 ref(seed);
            std::vector<std::uint64_t> out, base_out;
            for (std::size_t run : runs) {
                for (std::size_t i = 0; i < run % 5; ++i) {
                    const std::uint64_t r = ref();
                    ASSERT_EQ(base(), r);
                    ASSERT_EQ(eng(), r) << isaLevelName(level);
                }
                out.assign(run, 0);
                base_out.assign(run, 0);
                eng.fill(out.data(), run);
                base.fill(base_out.data(), run);
                ASSERT_EQ(out, base_out)
                    << isaLevelName(level) << " seed=" << seed
                    << " run=" << run;
                for (std::size_t i = 0; i < run; ++i)
                    ASSERT_EQ(out[i], ref())
                        << isaLevelName(level) << " seed=" << seed
                        << " run=" << run << " i=" << i;
            }
            EXPECT_EQ(eng(), ref());
        }
    }
}

TEST(IsaDispatchTest, LessThanBitsMatchesPerBitBernoulli)
{
    const std::size_t sizes[] = {1, 63, 64, 65, 311, 312, 313, 131072};
    const std::size_t offsets[] = {0, 200};
    for (IsaLevel level : supportedLevels()) {
        for (double p : {0.02, 0.7, 0.98}) {
            const std::uint64_t t = Rng::bernoulliThreshold(p);
            for (std::size_t nbits : sizes) {
                for (std::size_t off : offsets) {
                    SCOPED_TRACE(testing::Message()
                                 << isaLevelName(level) << " p=" << p
                                 << " nbits=" << nbits << " off=" << off);
                    const std::uint64_t seed = nbits * 31 + off;
                    Mt19937_64 eng(seed, level),
                        base(seed, IsaLevel::Baseline);
                    Rng ref(seed);
                    for (std::size_t i = 0; i < off; ++i) {
                        eng();
                        base();
                        ref.nextU64();
                    }
                    const std::size_t words = (nbits + 63) / 64;
                    std::vector<std::uint64_t> out(words, ~0ULL),
                        base_out(words, ~0ULL), want(words, 0);
                    eng.lessThanBits(out.data(), nbits, t);
                    base.lessThanBits(base_out.data(), nbits, t);
                    for (std::size_t i = 0; i < nbits; ++i) {
                        if (ref.bernoulli(p))
                            want[i / 64] |= 1ULL << (i % 64);
                    }
                    ASSERT_EQ(out, want);
                    ASSERT_EQ(base_out, want);
                    // The engine ends where nbits draws leave it.
                    const std::uint64_t next = ref.nextU64();
                    EXPECT_EQ(eng(), next);
                    EXPECT_EQ(base(), next);
                }
            }
        }
    }
}

TEST(IsaDispatchTest, LessThanBitsAtTheExtremeThresholds)
{
    // Threshold 0 passes nothing; max() passes every draw but max()
    // itself. Bits are checked against the standard engine's draws.
    for (IsaLevel level : supportedLevels()) {
        for (std::uint64_t t : {std::uint64_t{0}, ~std::uint64_t{0}}) {
            for (std::size_t nbits : {65u, 313u, 4096u}) {
                Mt19937_64 eng(77, level);
                std::mt19937_64 ref(77);
                std::vector<std::uint64_t> out((nbits + 63) / 64, ~0ULL);
                eng.lessThanBits(out.data(), nbits, t);
                for (std::size_t i = 0; i < nbits; ++i)
                    ASSERT_EQ((out[i / 64] >> (i % 64)) & 1,
                              ref() < t ? 1u : 0u)
                        << isaLevelName(level) << " t=" << t
                        << " i=" << i;
                EXPECT_EQ(out.back() >> 1 >> ((nbits - 1) % 64), 0u);
                EXPECT_EQ(eng(), ref());
            }
        }
    }
}

TEST(IsaDispatchTest, PopcountWordsMatchesABitLoop)
{
    Rng rng(5);
    std::vector<std::size_t> lengths = {2048};
    for (std::size_t n = 0; n <= 9; ++n)
        lengths.push_back(n);
    for (IsaLevel level : supportedLevels()) {
        for (std::size_t n : lengths) {
            for (int fill : {0, 1, 2}) {
                std::vector<std::uint64_t> words(n);
                for (std::uint64_t &w : words)
                    w = fill == 0 ? 0 : fill == 1 ? ~0ULL : rng.nextU64();
                std::size_t want = 0;
                for (std::uint64_t w : words) {
                    for (int b = 0; b < 64; ++b)
                        want += (w >> b) & 1;
                }
                EXPECT_EQ(popcountWords(words.data(), n, level), want)
                    << isaLevelName(level) << " n=" << n
                    << " fill=" << fill;
                EXPECT_EQ(popcountWords(words.data(), n), want);
            }
        }
    }
}

} // namespace
} // namespace fcos
