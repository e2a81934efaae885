#include "util/bitvector.h"

#include <algorithm>
#include <bit>

#include "util/log.h"
#include "util/rng.h"

namespace fcos {

namespace {

// ---------------------------------------------------------------------
// Explicitly vectorized dense folds.
//
// The AND/OR/XOR folds are the controller-side hot loop of every
// fallback evaluation and host-baseline run, so they must not depend on
// the optimizer's mood: with GCC/Clang vector extensions each iteration
// processes a 256-bit lane (4 x u64 — one AVX2 register, two SSE/NEON
// ops after legalization) through unaligned loads, with a scalar tail.
// The property tests drive every 64-bit alignment against bit-at-a-time
// references, so the lane split is covered at all sizes.
// ---------------------------------------------------------------------
#if defined(__GNUC__) || defined(__clang__)
#define FCOS_BITVECTOR_SIMD 1
typedef std::uint64_t V4u64 __attribute__((vector_size(32), aligned(8)));

template <typename WordOp>
inline void
foldWords(std::uint64_t *dst, const std::uint64_t *src, std::size_t n,
          WordOp op)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        V4u64 a, b;
        __builtin_memcpy(&a, dst + i, sizeof(a));
        __builtin_memcpy(&b, src + i, sizeof(b));
        op(a, b);
        __builtin_memcpy(dst + i, &a, sizeof(a));
    }
    for (; i < n; ++i)
        op(dst[i], src[i]);
}
#else
template <typename WordOp>
inline void
foldWords(std::uint64_t *dst, const std::uint64_t *src, std::size_t n,
          WordOp op)
{
    for (std::size_t i = 0; i < n; ++i)
        op(dst[i], src[i]);
}
#endif

// ---------------------------------------------------------------------
// popcountWords, written once and compiled per ISA level (util/isa.h).
// The baseline x86-64 target has no popcnt instruction, so there
// std::popcount is a libgcc call per word; x86-64-v3 counts a word in
// one popcnt. x86-64-v4 runs the v3 build: its feature set has no
// AVX512-VPOPCNTDQ, so it would count with the same scalar popcnt.
// ---------------------------------------------------------------------
FCOS_KERNEL_BODY std::size_t
popcountBody(const std::uint64_t *p, std::size_t n)
{
    // Four accumulators keep the adds off one dependency chain.
    std::size_t a = 0, b = 0, c = 0, d = 0;
    for (; n >= 4; n -= 4, p += 4) {
        a += static_cast<std::size_t>(std::popcount(p[0]));
        b += static_cast<std::size_t>(std::popcount(p[1]));
        c += static_cast<std::size_t>(std::popcount(p[2]));
        d += static_cast<std::size_t>(std::popcount(p[3]));
    }
    for (std::size_t i = 0; i < n; ++i)
        a += static_cast<std::size_t>(std::popcount(p[i]));
    return a + b + c + d;
}

using PopcountFn = std::size_t (*)(const std::uint64_t *, std::size_t);

std::size_t
popcountBaseline(const std::uint64_t *p, std::size_t n)
{
    return popcountBody(p, n);
}

#if FCOS_ISA_DISPATCH
FCOS_TARGET_V3 std::size_t
popcountV3(const std::uint64_t *p, std::size_t n)
{
    return popcountBody(p, n);
}
#endif

PopcountFn
popcountAt(IsaLevel level)
{
    fcos_assert(isaLevelSupported(level), "ISA level %s not supported here",
                isaLevelName(level));
    switch (level) {
#if FCOS_ISA_DISPATCH
    case IsaLevel::X86_64_V4: // no VPOPCNTDQ: v3's popcnt is as fast
    case IsaLevel::X86_64_V3:
        return popcountV3;
#endif
    default:
        return popcountBaseline;
    }
}

} // namespace

std::size_t
popcountWords(const std::uint64_t *words, std::size_t n)
{
    static const PopcountFn active = popcountAt(activeIsaLevel());
    return active(words, n);
}

std::size_t
popcountWords(const std::uint64_t *words, std::size_t n, IsaLevel level)
{
    return popcountAt(level)(words, n);
}

BitVector::BitVector(std::size_t n, bool value)
    : nbits_(n), words_(wordsFor(n), value ? ~0ULL : 0ULL)
{
    clearTail();
}

BitVector
BitVector::fromString(const std::string &bits)
{
    BitVector v(bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
        fcos_assert(bits[i] == '0' || bits[i] == '1',
                    "bad bit char '%c'", bits[i]);
        v.set(i, bits[i] == '1');
    }
    return v;
}

bool
BitVector::get(std::size_t i) const
{
    fcos_assert(i < nbits_, "bit index %zu out of range %zu", i, nbits_);
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
}

void
BitVector::set(std::size_t i, bool value)
{
    fcos_assert(i < nbits_, "bit index %zu out of range %zu", i, nbits_);
    std::uint64_t mask = 1ULL << (i & 63);
    if (value)
        words_[i >> 6] |= mask;
    else
        words_[i >> 6] &= ~mask;
}

void
BitVector::fill(bool value)
{
    for (auto &w : words_)
        w = value ? ~0ULL : 0ULL;
    clearTail();
}

void
BitVector::resize(std::size_t n, bool value)
{
    std::size_t old_bits = nbits_;
    nbits_ = n;
    words_.resize(wordsFor(n), value ? ~0ULL : 0ULL);
    if (value && old_bits < n && (old_bits & 63)) {
        // Fill the partial old tail word's new bits.
        std::uint64_t mask = ~0ULL << (old_bits & 63);
        words_[old_bits >> 6] |= mask;
    }
    clearTail();
}

std::size_t
BitVector::popcount() const
{
    return popcountWords(words_.data(), words_.size());
}

bool
BitVector::allOnes() const
{
    if (nbits_ == 0)
        return true;
    std::size_t full = nbits_ / 64;
    for (std::size_t i = 0; i < full; ++i) {
        if (words_[i] != ~0ULL)
            return false;
    }
    if (nbits_ & 63) {
        std::uint64_t mask = (~0ULL) >> (64 - (nbits_ & 63));
        if ((words_[full] & mask) != mask)
            return false;
    }
    return true;
}

BitVector &
BitVector::operator&=(const BitVector &o)
{
    fcos_assert(nbits_ == o.nbits_, "size mismatch %zu vs %zu", nbits_,
                o.nbits_);
    foldWords(words_.data(), o.words_.data(), words_.size(),
              [](auto &a, const auto &b) { a &= b; });
    return *this;
}

BitVector &
BitVector::operator|=(const BitVector &o)
{
    fcos_assert(nbits_ == o.nbits_, "size mismatch %zu vs %zu", nbits_,
                o.nbits_);
    foldWords(words_.data(), o.words_.data(), words_.size(),
              [](auto &a, const auto &b) { a |= b; });
    return *this;
}

BitVector &
BitVector::operator^=(const BitVector &o)
{
    fcos_assert(nbits_ == o.nbits_, "size mismatch %zu vs %zu", nbits_,
                o.nbits_);
    foldWords(words_.data(), o.words_.data(), words_.size(),
              [](auto &a, const auto &b) { a ^= b; });
    return *this;
}

void
BitVector::invert()
{
    for (auto &w : words_)
        w = ~w;
    clearTail();
}

BitVector
BitVector::operator~() const
{
    BitVector v = *this;
    v.invert();
    return v;
}

bool
BitVector::operator==(const BitVector &o) const
{
    return nbits_ == o.nbits_ && words_ == o.words_;
}

std::size_t
BitVector::hammingDistance(const BitVector &o) const
{
    fcos_assert(nbits_ == o.nbits_, "size mismatch %zu vs %zu", nbits_,
                o.nbits_);
    // Count the xor a stack block at a time.
    constexpr std::size_t kBlock = 256;
    std::uint64_t diff[kBlock];
    std::size_t n = 0;
    for (std::size_t i = 0; i < words_.size(); i += kBlock) {
        const std::size_t k = std::min(kBlock, words_.size() - i);
        for (std::size_t j = 0; j < k; ++j)
            diff[j] = words_[i + j] ^ o.words_[i + j];
        n += popcountWords(diff, k);
    }
    return n;
}

void
BitVector::randomize(Rng &rng, double p_one)
{
    // The draw stream is part of the reproducibility contract (goldens
    // seed pages through here): p = 0.5 takes one nextU64() per word,
    // any other p one bernoulli() per bit in ascending order. Rng
    // generates both a state block at a time.
    if (p_one == 0.5)
        rng.fillU64(words_.data(), words_.size());
    else
        rng.fillBernoulli(words_.data(), nbits_, p_one);
    clearTail();
}

void
BitVector::fillCheckered(bool first)
{
    // 0101.. pattern: even bits take `first`.
    std::uint64_t even = 0x5555555555555555ULL;
    std::uint64_t w = first ? even : ~even;
    for (auto &word : words_)
        word = w;
    clearTail();
}

BitVector
BitVector::slice(std::size_t begin, std::size_t len) const
{
    fcos_assert(begin + len <= nbits_, "slice [%zu,+%zu) out of %zu bits",
                begin, len, nbits_);
    BitVector v(len);
    if (len == 0)
        return v;
    const std::size_t w0 = begin >> 6;
    const unsigned off = begin & 63;
    const std::size_t out_words = v.words_.size();
    if (off == 0) {
        for (std::size_t i = 0; i < out_words; ++i)
            v.words_[i] = words_[w0 + i];
    } else {
        // Funnel shift: each output word is the tail of one source
        // word joined with the head of the next. The last source word
        // may not exist when the slice ends inside words_[w0 + i].
        for (std::size_t i = 0; i < out_words; ++i) {
            std::uint64_t w = words_[w0 + i] >> off;
            if (w0 + i + 1 < words_.size())
                w |= words_[w0 + i + 1] << (64 - off);
            v.words_[i] = w;
        }
    }
    v.clearTail();
    return v;
}

void
BitVector::paste(std::size_t begin, const BitVector &src)
{
    fcos_assert(begin + src.size() <= nbits_,
                "paste [%zu,+%zu) out of %zu bits", begin, src.size(),
                nbits_);
    const std::size_t n = src.size();
    if (n == 0)
        return;
    const std::size_t w = begin >> 6;
    const unsigned off = begin & 63;
    if (off == 0) {
        const std::size_t full = n >> 6;
        for (std::size_t i = 0; i < full; ++i)
            words_[w + i] = src.words_[i];
        const unsigned tail = n & 63;
        if (tail) {
            const std::uint64_t mask = (~0ULL) >> (64 - tail);
            words_[w + full] =
                (words_[w + full] & ~mask) | (src.words_[full] & mask);
        }
        return;
    }
    // Each source word lands as a masked merge into one or two
    // destination words. c is the bit count this source word carries;
    // src's tail bits beyond n are zero by invariant, so the shifted
    // payload never strays outside its mask.
    for (std::size_t i = 0, sw = src.words_.size(); i < sw; ++i) {
        const std::size_t c = std::min<std::size_t>(64, n - 64 * i);
        const std::uint64_t si = src.words_[i];
        const std::uint64_t lo_mask = (c + off >= 64)
                                          ? (~0ULL << off)
                                          : (((1ULL << c) - 1) << off);
        words_[w + i] = (words_[w + i] & ~lo_mask) | (si << off);
        if (c + off > 64) {
            const unsigned hi_bits = static_cast<unsigned>(c + off - 64);
            const std::uint64_t hi_mask = (1ULL << hi_bits) - 1;
            words_[w + i + 1] =
                (words_[w + i + 1] & ~hi_mask) | (si >> (64 - off));
        }
    }
}

std::string
BitVector::toString() const
{
    std::string s(nbits_, '0');
    for (std::size_t i = 0; i < nbits_; ++i) {
        if (get(i))
            s[i] = '1';
    }
    return s;
}

void
BitVector::clearTail()
{
    if (nbits_ & 63)
        words_[nbits_ >> 6] &= (~0ULL) >> (64 - (nbits_ & 63));
}

} // namespace fcos
