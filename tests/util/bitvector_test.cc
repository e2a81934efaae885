/**
 * @file
 * BitVector unit tests.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "util/bitvector.h"
#include "util/rng.h"

namespace fcos {
namespace {

TEST(BitVectorTest, ConstructionAndSize)
{
    BitVector v;
    EXPECT_TRUE(v.empty());
    BitVector w(100);
    EXPECT_EQ(w.size(), 100u);
    EXPECT_TRUE(w.allZeros());
    BitVector x(100, true);
    EXPECT_TRUE(x.allOnes());
    EXPECT_EQ(x.popcount(), 100u);
}

TEST(BitVectorTest, SetGetRoundTrip)
{
    BitVector v(130);
    v.set(0, true);
    v.set(64, true);
    v.set(129, true);
    EXPECT_TRUE(v.get(0));
    EXPECT_FALSE(v.get(1));
    EXPECT_TRUE(v.get(64));
    EXPECT_TRUE(v.get(129));
    EXPECT_EQ(v.popcount(), 3u);
    v.set(64, false);
    EXPECT_FALSE(v.get(64));
    EXPECT_EQ(v.popcount(), 2u);
}

TEST(BitVectorTest, FromStringAndToString)
{
    BitVector v = BitVector::fromString("10110");
    EXPECT_EQ(v.size(), 5u);
    EXPECT_TRUE(v.get(0));
    EXPECT_FALSE(v.get(1));
    EXPECT_EQ(v.toString(), "10110");
}

TEST(BitVectorTest, BitwiseOperators)
{
    BitVector a = BitVector::fromString("1100");
    BitVector b = BitVector::fromString("1010");
    EXPECT_EQ((a & b).toString(), "1000");
    EXPECT_EQ((a | b).toString(), "1110");
    EXPECT_EQ((a ^ b).toString(), "0110");
    EXPECT_EQ((~a).toString(), "0011");
}

TEST(BitVectorTest, TailBitsStayClean)
{
    // Inversion must not set bits beyond size(); popcount would
    // otherwise leak ghost bits from the last partial word.
    BitVector v(70);
    v.invert();
    EXPECT_EQ(v.popcount(), 70u);
    EXPECT_TRUE(v.allOnes());
    v.fill(true);
    EXPECT_EQ(v.popcount(), 70u);
}

TEST(BitVectorTest, InPlaceOperatorsMatchOutOfPlace)
{
    Rng rng = Rng::seeded(5);
    BitVector a(200), b(200);
    a.randomize(rng);
    b.randomize(rng);
    BitVector c = a;
    c &= b;
    EXPECT_EQ(c, a & b);
    c = a;
    c |= b;
    EXPECT_EQ(c, a | b);
    c = a;
    c ^= b;
    EXPECT_EQ(c, a ^ b);
}

TEST(BitVectorTest, VectorizedFoldsMatchBitwiseReferenceAtAllAlignments)
{
    // The AND/OR/XOR folds run 4 words per SIMD lane with a scalar
    // tail; sweep sizes through every lane/tail split (0..5 words,
    // every 64-bit alignment in between) against a bit-at-a-time
    // reference so no remainder shape goes untested.
    Rng rng = Rng::seeded(11);
    for (std::size_t bits : {1u,   63u,  64u,  65u,  127u, 128u, 191u,
                             192u, 255u, 256u, 257u, 320u, 351u}) {
        BitVector a(bits), b(bits);
        a.randomize(rng);
        b.randomize(rng);
        BitVector and_ref(bits), or_ref(bits), xor_ref(bits);
        for (std::size_t i = 0; i < bits; ++i) {
            and_ref.set(i, a.get(i) && b.get(i));
            or_ref.set(i, a.get(i) || b.get(i));
            xor_ref.set(i, a.get(i) != b.get(i));
        }
        BitVector c = a;
        c &= b;
        EXPECT_EQ(c, and_ref) << "AND at " << bits << " bits";
        c = a;
        c |= b;
        EXPECT_EQ(c, or_ref) << "OR at " << bits << " bits";
        c = a;
        c ^= b;
        EXPECT_EQ(c, xor_ref) << "XOR at " << bits << " bits";
    }
}

TEST(BitVectorTest, HammingDistance)
{
    BitVector a = BitVector::fromString("110010");
    BitVector b = BitVector::fromString("101010");
    EXPECT_EQ(a.hammingDistance(b), 2u);
    EXPECT_EQ(a.hammingDistance(a), 0u);
}

TEST(BitVectorTest, SliceAndPaste)
{
    BitVector v = BitVector::fromString("0011010111");
    BitVector s = v.slice(2, 5);
    EXPECT_EQ(s.toString(), "11010");
    BitVector w(10);
    w.paste(3, s);
    EXPECT_EQ(w.toString(), "0001101000");
}

TEST(BitVectorTest, ResizePreservesAndExtends)
{
    BitVector v = BitVector::fromString("101");
    v.resize(6, true);
    EXPECT_EQ(v.toString(), "101111");
    v.resize(2);
    EXPECT_EQ(v.toString(), "10");
}

TEST(BitVectorTest, ResizeAcrossWordBoundaryWithOnes)
{
    BitVector v(60, false);
    v.resize(130, true);
    EXPECT_EQ(v.popcount(), 70u);
    for (std::size_t i = 0; i < 60; ++i)
        EXPECT_FALSE(v.get(i));
    for (std::size_t i = 60; i < 130; ++i)
        EXPECT_TRUE(v.get(i));
}

TEST(BitVectorTest, CheckeredPattern)
{
    BitVector v(10);
    v.fillCheckered(true);
    EXPECT_EQ(v.toString(), "1010101010");
    v.fillCheckered(false);
    EXPECT_EQ(v.toString(), "0101010101");
}

TEST(BitVectorTest, RandomizeIsSeedDeterministic)
{
    Rng r1 = Rng::seeded(9), r2 = Rng::seeded(9);
    BitVector a(500), b(500);
    a.randomize(r1);
    b.randomize(r2);
    EXPECT_EQ(a, b);
    // Roughly half ones.
    EXPECT_NEAR(static_cast<double>(a.popcount()), 250.0, 60.0);
}

TEST(BitVectorTest, RandomizeBiased)
{
    Rng rng = Rng::seeded(10);
    BitVector v(2000);
    v.randomize(rng, 0.1);
    EXPECT_LT(v.popcount(), 400u);
    EXPECT_GT(v.popcount(), 50u);
}

// ---------------------------------------------------------------------
// Property tests pinning the word-at-a-time slice/paste/randomize
// kernels to bit-at-a-time scalar references, across word-alignment
// boundaries, sub-word spans, and ragged tails.
// ---------------------------------------------------------------------

BitVector
sliceReference(const BitVector &v, std::size_t begin, std::size_t len)
{
    BitVector out(len);
    for (std::size_t i = 0; i < len; ++i)
        out.set(i, v.get(begin + i));
    return out;
}

void
pasteReference(BitVector &dst, std::size_t begin, const BitVector &src)
{
    for (std::size_t i = 0; i < src.size(); ++i)
        dst.set(begin + i, src.get(i));
}

TEST(BitVectorPropertyTest, SliceMatchesScalarReference)
{
    Rng rng = Rng::seeded(77);
    BitVector v(4 * 64 + 17);
    v.randomize(rng);
    // Every offset alignment crossed with lengths around every word
    // boundary, plus empty and full-span slices.
    for (std::size_t begin :
         {0u, 1u, 7u, 63u, 64u, 65u, 127u, 128u, 200u}) {
        for (std::size_t len :
             {0u, 1u, 5u, 63u, 64u, 65u, 70u, 128u, 273u - 200u}) {
            if (begin + len > v.size())
                continue;
            BitVector got = v.slice(begin, len);
            BitVector want = sliceReference(v, begin, len);
            EXPECT_EQ(got, want) << "begin=" << begin << " len=" << len;
            // Tail words beyond size() must be zero (the invariant
            // paste and bulk operators rely on).
            if (!got.words().empty() && (len & 63)) {
                EXPECT_EQ(got.words().back() >> (len & 63), 0u);
            }
        }
    }
    EXPECT_EQ(v.slice(0, v.size()), v);
}

TEST(BitVectorPropertyTest, PasteMatchesScalarReference)
{
    Rng rng = Rng::seeded(78);
    for (std::size_t begin :
         {0u, 1u, 9u, 63u, 64u, 65u, 127u, 128u, 190u}) {
        for (std::size_t len : {0u, 1u, 6u, 63u, 64u, 65u, 90u, 128u}) {
            BitVector dst(64 * 5 + 3);
            dst.randomize(rng);
            if (begin + len > dst.size())
                continue;
            BitVector src(len);
            src.randomize(rng);
            BitVector want = dst;
            pasteReference(want, begin, src);
            BitVector got = dst;
            got.paste(begin, src);
            EXPECT_EQ(got, want) << "begin=" << begin << " len=" << len;
        }
    }
}

TEST(BitVectorPropertyTest, SlicePasteRandomizedRoundTrips)
{
    Rng rng = Rng::seeded(79);
    for (int iter = 0; iter < 200; ++iter) {
        const std::size_t n = 1 + rng.nextBounded(500);
        BitVector v(static_cast<std::size_t>(n));
        v.randomize(rng);
        const std::size_t begin = rng.nextBounded(n);
        const std::size_t len = rng.nextBounded(n - begin + 1);
        // slice agrees with the reference...
        BitVector s = v.slice(begin, len);
        EXPECT_EQ(s, sliceReference(v, begin, len));
        // ...and pasting it back is the identity.
        BitVector w = v;
        w.paste(begin, s);
        EXPECT_EQ(w, v);
        // Pasting fresh random content agrees with the reference.
        BitVector r(len);
        r.randomize(rng, 0.3);
        BitVector got = v, want = v;
        got.paste(begin, r);
        pasteReference(want, begin, r);
        EXPECT_EQ(got, want);
    }
}

TEST(BitVectorPropertyTest, BiasedRandomizeDrawStreamIsStable)
{
    // The block-generated biased randomize must consume the Rng exactly
    // like the historical bit-loop: one bernoulli per bit, in ascending
    // order, none at all for p <= 0 or p >= 1. Goldens seed pages
    // through this path. Sizes straddle words and twist blocks (312
    // draws); the Rng starts at several offsets into a block.
    const double nan = std::nan("");
    for (std::size_t n :
         {1u, 63u, 64u, 65u, 311u, 312u, 313u, 625u, 131072u}) {
        for (double p : {0.98, 0.2, 1e-12, 1.0 - 0x1p-53, 0.0, 1.0, nan}) {
            for (std::size_t k : {0u, 1u, 200u, 311u}) {
                Rng r1 = Rng::seeded(5), r2 = Rng::seeded(5);
                for (std::size_t i = 0; i < k; ++i) {
                    r1.nextU64();
                    r2.nextU64();
                }
                BitVector fast(n);
                fast.randomize(r1, p);
                BitVector ref(n);
                for (std::size_t i = 0; i < n; ++i)
                    ref.set(i, r2.bernoulli(p));
                EXPECT_EQ(fast, ref) << "n=" << n << " p=" << p
                                     << " k=" << k;
                // Both rngs must land in the same state.
                EXPECT_EQ(r1.nextU64(), r2.nextU64())
                    << "n=" << n << " p=" << p << " k=" << k;
            }
        }
    }
}

TEST(BitVectorPropertyTest, NanDensityRandomizeDrawsAndStaysZero)
{
    // bernoulli(NaN) draws and fails, so a NaN density consumes one
    // draw per bit and yields all zeros.
    Rng r1 = Rng::seeded(6), r2 = Rng::seeded(6);
    BitVector v(1000, true);
    v.randomize(r1, std::nan(""));
    EXPECT_EQ(v.popcount(), 0u);
    for (int i = 0; i < 1000; ++i)
        r2.nextU64();
    EXPECT_EQ(r1.nextU64(), r2.nextU64());
}

TEST(BitVectorPropertyTest, UniformRandomizeTakesOneWordPerDraw)
{
    for (std::size_t n : {1u, 64u, 65u, 312u * 64u + 1u, 131072u}) {
        Rng r1 = Rng::seeded(7), r2 = Rng::seeded(7);
        r1.nextU64();
        r2.nextU64();
        BitVector v(n);
        v.randomize(r1, 0.5);
        for (std::size_t w = 0; w < v.words().size(); ++w) {
            std::uint64_t want = r2.nextU64();
            if (w + 1 == v.words().size() && (n & 63))
                want &= (1ULL << (n & 63)) - 1;
            ASSERT_EQ(v.words()[w], want) << "n=" << n << " w=" << w;
        }
        EXPECT_EQ(r1.nextU64(), r2.nextU64()) << "n=" << n;
    }
}

TEST(BitVectorPropertyTest, PopcountMatchesScalarReference)
{
    Rng rng = Rng::seeded(80);
    for (std::size_t n : {0u, 1u, 64u, 65u, 255u, 256u, 257u, 1024u}) {
        BitVector v(n);
        v.randomize(rng, 0.4);
        std::size_t want = 0;
        for (std::size_t i = 0; i < n; ++i)
            want += v.get(i) ? 1u : 0u;
        EXPECT_EQ(v.popcount(), want) << "n=" << n;
    }
}

TEST(BitVectorTest, EqualityRequiresSameSize)
{
    BitVector a(10), b(11);
    EXPECT_NE(a, b);
}

TEST(BitVectorTest, DeathOnOutOfRange)
{
    BitVector v(8);
    EXPECT_DEATH(v.get(8), "out of range");
    EXPECT_DEATH(v.set(9, true), "out of range");
    BitVector w(4);
    EXPECT_DEATH(v.hammingDistance(w), "size mismatch");
}

} // namespace
} // namespace fcos
