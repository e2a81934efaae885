/**
 * @file
 * 64-bit FNV-1a: the one hash behind the library's digests (result
 * streams, traffic runs, the trace certificate).
 *
 * fnvBytes() computes the byte-wise hash at the host's vector width
 * (util/isa.h) from an identity. With P the FNV prime and l = h mod
 * 256, one step is h' = (h ^ b) * P = (h + d) * P with
 * d = (l ^ b) - l = 2 (b & x) - b, where x = l ^ b, because b < 256.
 * Over n bytes, h_n = h_0 * P^n + sum of d_i * P^(n - i) (mod 2^64).
 * The d_i depend only on the low byte, an 8-bit automaton
 * l' = (x * 0xb3) mod 256 (0xb3 = P mod 256). As 0xb3 is odd, bit k of
 * l' is x[k] xor a function of x's lower bits, so over a run of bytes
 * each bit level is a prefix-XOR of a sequence known once the levels
 * below are done, and the sum is a dot product with powers of P.
 */

#ifndef FCOS_UTIL_FNV_H
#define FCOS_UTIL_FNV_H

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "util/isa.h"

namespace fcos {

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/** One FNV-1a round: xor @p v into @p h, then multiply. Textbook FNV-1a
 *  feeds it bytes; the traffic digests feed it whole 64-bit digests. */
constexpr std::uint64_t
fnvStep(std::uint64_t h, std::uint64_t v)
{
    return (h ^ v) * kFnvPrime;
}

/** Fold the 8 bytes of @p word into @p h, least significant first. */
constexpr std::uint64_t
fnvWord(std::uint64_t h, std::uint64_t word)
{
    for (int i = 0; i < 8; ++i)
        h = fnvStep(h, (word >> (8 * i)) & 0xFF);
    return h;
}

/**
 * Fold @p n bytes at @p bytes into @p h in memory order: the result of
 * fnvStep() byte by byte, run at activeIsaLevel(). The library's one
 * byte-wise FNV-1a kernel.
 */
std::uint64_t fnvBytes(std::uint64_t h, const void *bytes, std::size_t n);

/** The same kernel at @p level, which must be supported (tests). */
std::uint64_t fnvBytes(std::uint64_t h, const void *bytes, std::size_t n,
                       IsaLevel level);

/** FNV-1a over a byte string. */
inline std::uint64_t
fnv1a(std::string_view bytes)
{
    return fnvBytes(kFnvOffset, bytes.data(), bytes.size());
}

} // namespace fcos

#endif // FCOS_UTIL_FNV_H
