/**
 * @file
 * Deterministic RNG tests.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "util/rng.h"

namespace fcos {
namespace {

constexpr std::size_t kBlock = Mt19937_64::kStateWords;

/** What uniform_real_distribution<double>(0, 1) makes of engine output
 *  @p u: the value bernoulli() compares against p. */
double
canonicalOf(std::uint64_t u)
{
    struct OneShot
    {
        using result_type = std::uint64_t;
        static constexpr result_type min() { return 0; }
        static constexpr result_type max() { return ~result_type{0}; }
        result_type operator()() { return u; }
        std::uint64_t u;
    } g{u};
    return std::uniform_real_distribution<double>(0.0, 1.0)(g);
}

TEST(RngTest, EngineMatchesStdMt19937_64AcrossTwists)
{
    for (std::uint64_t seed :
         {0ULL, 1ULL, 5489ULL, 0x9E3779B97F4A7C15ULL, ~0ULL}) {
        Mt19937_64 eng(seed);
        std::mt19937_64 ref(seed);
        for (std::size_t i = 0; i < 4 * kBlock + 17; ++i)
            ASSERT_EQ(eng(), ref()) << "seed=" << seed << " i=" << i;
    }
}

TEST(RngTest, EngineGivesTheStandardCheckValue)
{
    // [rand.predef]: the 10000th consecutive invocation of a
    // default-constructed mt19937_64 produces 9981545732273789042.
    Mt19937_64 eng;
    std::uint64_t v = 0;
    for (int i = 0; i < 10000; ++i)
        v = eng();
    EXPECT_EQ(v, 9981545732273789042ULL);
}

TEST(RngTest, FirstOutputsMatchStdMt19937_64)
{
    // The prefix path computes only the seed words the first twist
    // reads; up to its bound of kMaxFirstOutputs (= 156) outputs it must
    // equal the standard engine over many seeds.
    static_assert(Mt19937_64::kMaxFirstOutputs == 156);
    std::uint64_t out[Mt19937_64::kMaxFirstOutputs];
    for (std::size_t n : {1u, 4u, 155u, 156u}) {
        for (std::uint64_t i = 0; i < 1000; ++i) {
            const std::uint64_t seed = Rng::mix(n, i);
            Mt19937_64::firstOutputs(seed, out, n);
            std::mt19937_64 ref(seed);
            for (std::size_t k = 0; k < n; ++k)
                ASSERT_EQ(out[k], ref())
                    << "n=" << n << " seed=" << seed << " k=" << k;
        }
    }
}

TEST(RngTest, BulkAndScalarDrawsShareOneStream)
{
    // Runs of nextU64() and fillU64() of assorted lengths, most starting
    // mid-block and many straddling a twist, read one stream.
    Rng rng = Rng::seeded(11);
    std::mt19937_64 ref(11);
    std::vector<std::uint64_t> buf;
    for (std::size_t run : {1u, 200u, 311u, 1u, 0u, 312u, 313u, 625u, 64u,
                            5u, 1000u, 2u}) {
        for (std::size_t i = 0; i < run % 7; ++i)
            ASSERT_EQ(rng.nextU64(), ref());
        buf.assign(run, 0);
        rng.fillU64(buf.data(), run);
        for (std::size_t i = 0; i < run; ++i)
            ASSERT_EQ(buf[i], ref()) << "run=" << run << " i=" << i;
    }
    EXPECT_EQ(rng.nextU64(), ref());
}

TEST(RngTest, BulkBernoulliMatchesScalarAcrossTwists)
{
    Rng bulk = Rng::seeded(12), scalar = Rng::seeded(12);
    std::vector<std::uint64_t> words;
    for (std::size_t nbits : {7u, 64u, 311u, 1u, 640u, 313u}) {
        ASSERT_EQ(bulk.nextU64(), scalar.nextU64());
        words.assign((nbits + 63) / 64, ~0ULL);
        bulk.fillBernoulli(words.data(), nbits, 0.7);
        for (std::size_t i = 0; i < nbits; ++i)
            ASSERT_EQ((words[i / 64] >> (i % 64)) & 1, scalar.bernoulli(0.7))
                << "nbits=" << nbits << " i=" << i;
        if (nbits % 64) {
            EXPECT_EQ(words.back() >> (nbits % 64), 0u) << "nbits=" << nbits;
        }
    }
    EXPECT_EQ(bulk.nextU64(), scalar.nextU64());
}

TEST(RngTest, LessThanBitsIsStrictAtTheThreshold)
{
    // A draw equal to the threshold fails; one below it passes.
    Mt19937_64 probe(21);
    std::uint64_t draws[3];
    for (std::uint64_t &d : draws)
        d = probe();
    for (int i = 0; i < 3; ++i) {
        for (std::uint64_t t : {draws[i], draws[i] + 1}) {
            Mt19937_64 eng(21);
            std::uint64_t w = 0;
            eng.lessThanBits(&w, 3, t);
            EXPECT_EQ((w >> i) & 1, t > draws[i] ? 1u : 0u) << "i=" << i;
        }
    }
}

TEST(RngTest, BernoulliThresholdSitsOnTheCanonicalBoundary)
{
    // T is the first engine output whose canonical double reaches p:
    // canonical(T - 1) < p <= canonical(T).
    std::vector<double> ps = {0.98, 0.2, 0.5, 1e-12, 1.0 - 0x1p-53,
                              0x1p-64, 0x1p-54, 1e-300, 0.75};
    Rng pick = Rng::seeded(13);
    for (int i = 0; i < 32; ++i)
        ps.push_back(pick.nextDouble());
    for (double p : ps) {
        if (p <= 0.0)
            continue;
        const std::uint64_t t = Rng::bernoulliThreshold(p);
        EXPECT_LE(p, canonicalOf(t)) << "p=" << p;
        if (t > 0) {
            EXPECT_LT(canonicalOf(t - 1), p) << "p=" << p;
        }
    }
    // A NaN p never succeeds, like bernoulli(NaN).
    EXPECT_EQ(Rng::bernoulliThreshold(std::nan("")), 0u);
}

TEST(RngTest, SeededStreamsReproduce)
{
    Rng a = Rng::seeded(42), b = Rng::seeded(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a = Rng::seeded(1), b = Rng::seeded(2);
    int same = 0;
    for (int i = 0; i < 50; ++i) {
        if (a.nextU64() == b.nextU64())
            ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(RngTest, ForkIsDeterministicAndDecorrelated)
{
    Rng parent = Rng::seeded(7);
    Rng c1 = parent.fork(0);
    Rng c2 = parent.fork(1);
    Rng c1_again = Rng::seeded(7).fork(0);
    EXPECT_EQ(c1.nextU64(), c1_again.nextU64());
    EXPECT_NE(c1.nextU64(), c2.nextU64());
}

TEST(RngTest, BoundedStaysInRange)
{
    Rng rng = Rng::seeded(3);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(RngTest, BernoulliEdgeCases)
{
    Rng rng = Rng::seeded(4);
    for (int i = 0; i < 20; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(RngTest, BinomialMatchesMean)
{
    Rng rng = Rng::seeded(5);
    double total = 0.0;
    for (int i = 0; i < 200; ++i)
        total += static_cast<double>(rng.binomial(1000, 0.1));
    EXPECT_NEAR(total / 200.0, 100.0, 5.0);
    EXPECT_EQ(rng.binomial(0, 0.5), 0u);
    EXPECT_EQ(rng.binomial(10, 0.0), 0u);
    EXPECT_EQ(rng.binomial(10, 1.0), 10u);
}

TEST(RngTest, PoissonMatchesMean)
{
    Rng rng = Rng::seeded(6);
    double total = 0.0;
    for (int i = 0; i < 500; ++i)
        total += static_cast<double>(rng.poisson(4.0));
    EXPECT_NEAR(total / 500.0, 4.0, 0.5);
    EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(RngTest, GaussianMoments)
{
    Rng rng = Rng::seeded(8);
    double sum = 0.0, sq = 0.0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        double x = rng.gaussian(2.0, 3.0);
        sum += x;
        sq += x * x;
    }
    double mean = sum / n;
    double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 2.0, 0.2);
    EXPECT_NEAR(var, 9.0, 1.0);
}

} // namespace
} // namespace fcos
