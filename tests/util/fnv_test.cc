/**
 * @file
 * The one digest (util/fnv.h): the lane loop and the streaming form
 * against a plainly written reference of the definition
 * (tests/support/fnv_reference.h), what changes it, and two pinned
 * values.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tests/support/fnv_reference.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace fcos {
namespace {

std::vector<std::uint64_t>
randomWords(Rng &rng, std::size_t n)
{
    std::vector<std::uint64_t> words(n);
    rng.fillU64(words.data(), n);
    return words;
}

std::string
randomBytes(Rng &rng, std::size_t n)
{
    std::string bytes(n, '\0');
    for (char &b : bytes)
        b = static_cast<char>(rng.nextU64());
    return bytes;
}

/** A random page width ending in word @p n: a whole word, or a random
 *  number of valid bits in it. */
std::uint64_t
randomBits(Rng &rng, std::size_t n)
{
    if (n == 0 || rng.nextU64() % 4 == 0)
        return 64 * n;
    return 64 * (n - 1) + 1 + rng.nextU64() % 63;
}

TEST(FnvTest, PageDigestMatchesTheReference)
{
    // Each buffer ends at the page's last word, so a read past it is an
    // out-of-bounds read under AddressSanitizer; the bits past the valid
    // ones are random, so an unmasked tail word shows.
    Rng rng(31);
    for (std::size_t n = 0; n <= 100; ++n) {
        for (int rep = 0; rep < 4; ++rep) {
            const std::vector<std::uint64_t> words = randomWords(rng, n);
            const std::uint64_t bits = randomBits(rng, n);
            ASSERT_EQ(fnvDigestBits(words.data(), bits),
                      test::fnvReference(test::fnvPageWords(words, bits),
                                         bits))
                << "n=" << n << " bits=" << bits;
        }
    }
    for (int rep = 0; rep < 8; ++rep) {
        const std::vector<std::uint64_t> words = randomWords(rng, 2048);
        const std::uint64_t bits = randomBits(rng, 2048);
        ASSERT_EQ(fnvDigestBits(words.data(), bits),
                  test::fnvReference(test::fnvPageWords(words, bits), bits))
            << "16-KiB page, bits=" << bits;
    }
}

TEST(FnvTest, AnyChunkingGivesTheOneShotDigest)
{
    Rng rng(32);
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                          std::size_t{8}, std::size_t{255}, std::size_t{256},
                          std::size_t{257}, (std::size_t{1} << 20) + 3}) {
        const std::string bytes = randomBytes(rng, n);
        const std::uint64_t want = fnvDigestBytes(bytes);
        ASSERT_EQ(want, test::fnvReferenceBytes(bytes)) << "n=" << n;
        for (int rep = 0; rep < 6; ++rep) {
            // Chunks of 1 .. 600 bytes, or up to a quarter of the string.
            const std::size_t most =
                rep % 2 ? 600 : std::max<std::size_t>(n / 4, 1);
            FnvStream s;
            for (std::size_t at = 0; at < n;) {
                const std::size_t take =
                    std::min<std::size_t>(n - at, 1 + rng.nextU64() % most);
                s.append(bytes.data() + at, take);
                at += take;
            }
            ASSERT_EQ(s.digest(), want) << "n=" << n << " rep=" << rep;
        }
        // A digest mid-stream is the digest of the prefix, and leaves
        // the stream unchanged.
        FnvStream s;
        s.append(bytes.data(), n / 2);
        ASSERT_EQ(s.digest(), fnvDigestBytes(bytes.substr(0, n / 2)));
        s.append(bytes.data() + n / 2, n - n / 2);
        ASSERT_EQ(s.digest(), want) << "n=" << n;
    }
}

TEST(FnvTest, EveryEditChangesTheDigest)
{
    Rng rng(33);
    // Pages with no lanes, one run and a tail, and a whole 16-KiB page.
    for (std::size_t n : {4, 100, 2048}) {
        std::vector<std::uint64_t> words = randomWords(rng, n);
        const std::uint64_t bits = 64 * n;
        const std::uint64_t base = fnvDigestBits(words.data(), bits);
        for (int rep = 0; rep < 64; ++rep) {
            const std::uint64_t bit = rng.nextU64() % bits;
            words[bit / 64] ^= std::uint64_t{1} << (bit % 64);
            EXPECT_NE(fnvDigestBits(words.data(), bits), base)
                << "n=" << n << " flipped bit " << bit;
            words[bit / 64] ^= std::uint64_t{1} << (bit % 64);
        }
        // Swaps: neighbours (different lanes, or tail words), and words
        // 32 apart (the same lane, once there are two runs).
        for (std::size_t gap : {std::size_t{1}, std::size_t{32}}) {
            if (gap >= n)
                continue;
            std::swap(words[1], words[1 + gap]);
            EXPECT_NE(fnvDigestBits(words.data(), bits), base)
                << "n=" << n << " swapped words 1 and " << 1 + gap;
            std::swap(words[1], words[1 + gap]);
        }
        words.push_back(0);
        EXPECT_NE(fnvDigestBits(words.data(), bits + 64), base)
            << "n=" << n << " appended a zero word";
        words.pop_back();
    }
    for (std::size_t n : {0, 5, 255, 4096}) {
        const std::string bytes = randomBytes(rng, n);
        EXPECT_NE(fnvDigestBytes(bytes + '\0'), fnvDigestBytes(bytes))
            << "n=" << n << " appended a zero byte";
    }
}

TEST(FnvTest, PinnedValues)
{
    // A change to the definition fails here, not only in the goldens.
    // Both values were also computed by an independent script of the
    // definition.
    EXPECT_EQ(fnvDigestBytes("foobar"), 0xa1a073430586a9edULL);
    std::vector<std::uint64_t> words(100);
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] = i * kFnvPrime;
    EXPECT_EQ(fnvDigestBits(words.data(), 64 * 100 - 5),
              0x6422e28d07007702ULL);
}

} // namespace
} // namespace fcos
