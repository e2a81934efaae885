#include "util/fnv.h"

#include <algorithm>

#include "util/log.h"

#if FCOS_ISA_DISPATCH
#include <immintrin.h>
#endif

// GCC 12 reports the _mm*_undefined_*() placeholders inside its own
// AVX-512 intrinsics as maybe-uninitialized once they are inlined into
// the kernel below (a false positive); this file alone turns it off.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace fcos {

namespace {

using FnvBytesFn = std::uint64_t (*)(std::uint64_t, const unsigned char *,
                                     std::size_t);

/** The reference: one dependent xor-multiply per byte. */
std::uint64_t
fnvBytesBaseline(std::uint64_t h, const unsigned char *p, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        h = fnvStep(h, p[i]);
    return h;
}

#if FCOS_ISA_DISPATCH
// ---------------------------------------------------------------------
// x86-64-v4: the identity of util/fnv.h over 512-byte blocks. Bit k of
// a block's bytes is one 512-bit plane (lane L, bit j = byte 64L + j),
// so a level of the low-byte automaton is a prefix-XOR along a vector,
// and the block's sum of d_j * P^(512 - j) is a dot product with a
// fixed table. Blocks go in runs of up to eight, level by level, so the
// only serial link between the blocks of a run is one carry bit per
// level.
// ---------------------------------------------------------------------
constexpr std::size_t kBlock = 512;
constexpr std::size_t kRunBlocks = 8;

struct FnvPowers
{
    /** digit[q][j]: signed 16-bit digit q of P^(kBlock - j), so that
     *  P^(kBlock - j) = sum over q of digit[q][j] * 2^(16 q) (mod 2^64):
     *  vpmaddwd multiplies them with the 16-bit d_j. */
    alignas(64) std::int16_t digit[4][kBlock];
    /** P^kBlock: one Horner step from block to block. */
    std::uint64_t block;
};

constexpr FnvPowers
makeFnvPowers()
{
    FnvPowers t{};
    std::uint64_t power = 1;
    for (std::size_t j = kBlock; j-- > 0;) {
        power *= kFnvPrime;
        std::uint64_t rest = power;
        for (int q = 0; q < 4; ++q) {
            const auto low = static_cast<std::int64_t>(rest & 0xFFFF);
            const std::int64_t d = low >= 0x8000 ? low - 0x10000 : low;
            t.digit[q][j] = static_cast<std::int16_t>(d);
            rest = (rest - static_cast<std::uint64_t>(d)) >> 16;
        }
    }
    t.block = power;
    return t;
}

constexpr FnvPowers kFnvPowers = makeFnvPowers();

/** One block's bit planes, as masks and as vectors. */
struct BlockPlanes
{
    std::uint64_t b[8][8]; ///< b[k][L]: bit k of bytes 64L .. 64L + 63
    __m512i x[8];          ///< x = l ^ b, where l is the automaton state
    __m512i c0, c1;        ///< carry into the next column, 0 .. 3
};

#define FCOS_V4_BODY FCOS_TARGET_V4 FCOS_KERNEL_BODY

/** Adds plane @p a to the bit-sliced counter (n0, n1, n2). */
FCOS_V4_BODY void
countPlane(__m512i &n0, __m512i &n1, __m512i &n2, __m512i a)
{
    const __m512i c0 = _mm512_and_si512(n0, a);
    n0 = _mm512_xor_si512(n0, a);
    const __m512i c1 = _mm512_and_si512(n1, c0);
    n1 = _mm512_xor_si512(n1, c0);
    n2 = _mm512_xor_si512(n2, c1);
}

/**
 * Level @p k of the automaton over one block: fills r.x[k] from
 * r.x[0 .. k - 1]; @p carry is bit k of the state entering the block
 * and becomes bit k of the state leaving it. Bit k of x * 0xb3 is x[k]
 * xor the parity of the column's other terms, x[k - 1], x[k - 4],
 * x[k - 5] and x[k - 7], and the carry out of column k - 1, which
 * never exceeds 3; so l[k] steps by t = b[k] ^ (that parity) from byte
 * to byte and is an exclusive prefix-XOR of t.
 */
FCOS_V4_BODY void
automatonLevel(BlockPlanes &r, int k, unsigned &carry)
{
    __m512i n0 = r.c0, n1 = r.c1, n2 = _mm512_setzero_si512();
#pragma GCC unroll 4
    for (int s : {1, 4, 5, 7}) {
        if (k >= s)
            countPlane(n0, n1, n2, r.x[k - s]);
    }
    const __m512i t = _mm512_xor_si512(_mm512_loadu_si512(r.b[k]), n0);
    __m512i scan = t; // inclusive prefix-XOR within each lane
#pragma GCC unroll 6
    for (int sh = 1; sh < 64; sh *= 2)
        scan = _mm512_xor_si512(scan, _mm512_slli_epi64(scan, sh));
    // Across lanes: lane L also takes every lane below it, exclusive.
    const unsigned lanes = _mm512_movepi64_mask(scan);
    unsigned below = lanes << 1;
    below ^= below << 1;
    below ^= below << 2;
    below ^= below << 4;
    const unsigned whole = ((below ^ lanes) >> 7) & 1;
    below ^= 0U - carry;
    carry ^= whole;
    // x[k] = l[k] ^ b[k] = (scan ^ t ^ carries) ^ b[k].
    r.x[k] = _mm512_xor_si512(
        _mm512_xor_si512(scan, n0),
        _mm512_movm_epi64(static_cast<__mmask8>(below)));
    countPlane(n0, n1, n2, r.x[k]);
    r.c0 = n1;
    r.c1 = n2;
}

/** The block's sum of d_j * P^(512 - j), d = 2 (b & x) - b. */
FCOS_V4_BODY std::uint64_t
blockSum(const BlockPlanes &r, const unsigned char *p)
{
    // Un-transpose e = b & x into bytes.
    alignas(64) std::uint64_t e_planes[8][8];
    alignas(64) unsigned char e_bytes[kBlock];
#pragma GCC unroll 8
    for (int k = 0; k < 8; ++k)
        _mm512_store_si512(e_planes[k],
                           _mm512_and_si512(_mm512_loadu_si512(r.b[k]),
                                            r.x[k]));
#pragma GCC unroll 8
    for (int l = 0; l < 8; ++l) {
        __m512i e = _mm512_setzero_si512();
#pragma GCC unroll 8
        for (int k = 0; k < 8; ++k)
            e = _mm512_mask_add_epi8(
                e, _load_mask64(reinterpret_cast<__mmask64 *>(
                       &e_planes[k][l])),
                e, _mm512_set1_epi8(static_cast<char>(1 << k)));
        _mm512_store_si512(e_bytes + 64 * l, e);
    }
    // 16-bit d times 16-bit digits, pairs summed into 32-bit lanes:
    // |d| <= 255, so a lane stays below 2^28 over a block.
    __m512i acc[4];
#pragma GCC unroll 4
    for (int q = 0; q < 4; ++q)
        acc[q] = _mm512_setzero_si512();
    for (std::size_t j = 0; j < kBlock; j += 32) {
        const __m512i e16 = _mm512_cvtepu8_epi16(_mm256_load_si256(
            reinterpret_cast<const __m256i *>(e_bytes + j)));
        const __m512i b16 = _mm512_cvtepu8_epi16(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p + j)));
        const __m512i d16 =
            _mm512_sub_epi16(_mm512_add_epi16(e16, e16), b16);
#pragma GCC unroll 4
        for (int q = 0; q < 4; ++q)
            acc[q] = _mm512_add_epi32(
                acc[q], _mm512_madd_epi16(d16, _mm512_load_si512(
                                                   kFnvPowers.digit[q] + j)));
    }
    __m512i sum = _mm512_setzero_si512();
#pragma GCC unroll 4
    for (int q = 0; q < 4; ++q) {
        const __m512i wide = _mm512_add_epi64(
            _mm512_cvtepi32_epi64(_mm512_castsi512_si256(acc[q])),
            _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(acc[q], 1)));
        sum = _mm512_add_epi64(sum, _mm512_slli_epi64(wide, 16 * q));
    }
    // Summed in unsigned words: _mm512_reduce_add_epi64 adds signed.
    alignas(64) std::uint64_t lanes[8];
    _mm512_store_si512(lanes, sum);
    std::uint64_t total = 0;
    for (std::uint64_t lane : lanes)
        total += lane;
    return total;
}

FCOS_TARGET_V4 std::uint64_t
fnvBytesV4(std::uint64_t h, const unsigned char *p, std::size_t n)
{
    unsigned state = h & 0xFF; // the automaton, ahead of h
    BlockPlanes run[kRunBlocks];
    for (std::size_t blocks = n / kBlock; blocks > 0;) {
        const std::size_t nb = std::min(blocks, kRunBlocks);
        blocks -= nb;
        for (std::size_t i = 0; i < nb; ++i) {
#pragma GCC unroll 8
            for (int l = 0; l < 8; ++l) {
                const __m512i bytes =
                    _mm512_loadu_si512(p + i * kBlock + 64 * l);
#pragma GCC unroll 8
                for (int k = 0; k < 8; ++k)
                    run[i].b[k][l] = _mm512_test_epi8_mask(
                        bytes, _mm512_set1_epi8(static_cast<char>(1 << k)));
            }
            run[i].c0 = run[i].c1 = _mm512_setzero_si512();
        }
#pragma GCC unroll 8
        for (int k = 0; k < 8; ++k) {
            unsigned carry = (state >> k) & 1;
            for (std::size_t i = 0; i < nb; ++i)
                automatonLevel(run[i], k, carry);
            state ^= (((state >> k) & 1) ^ carry) << k;
        }
        for (std::size_t i = 0; i < nb; ++i, p += kBlock)
            h = h * kFnvPowers.block + blockSum(run[i], p);
    }
    fcos_assert((h & 0xFF) == state, "FNV automaton out of step");
    return fnvBytesBaseline(h, p, n % kBlock);
}
#undef FCOS_V4_BODY
#endif

FnvBytesFn
fnvBytesAt(IsaLevel level)
{
    fcos_assert(isaLevelSupported(level), "ISA level %s not supported here",
                isaLevelName(level));
    switch (level) {
#if FCOS_ISA_DISPATCH
    case IsaLevel::X86_64_V4:
        return fnvBytesV4;
#endif
    default:
        return fnvBytesBaseline;
    }
}

} // namespace

std::uint64_t
fnvBytes(std::uint64_t h, const void *bytes, std::size_t n)
{
    static const FnvBytesFn active = fnvBytesAt(activeIsaLevel());
    return active(h, static_cast<const unsigned char *>(bytes), n);
}

std::uint64_t
fnvBytes(std::uint64_t h, const void *bytes, std::size_t n, IsaLevel level)
{
    return fnvBytesAt(level)(h, static_cast<const unsigned char *>(bytes),
                             n);
}

} // namespace fcos
