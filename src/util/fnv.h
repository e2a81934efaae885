/**
 * @file
 * 64-bit FNV-1a: the one hash behind the library's digests (result
 * streams, traffic runs, the trace certificate).
 */

#ifndef FCOS_UTIL_FNV_H
#define FCOS_UTIL_FNV_H

#include <cstdint>
#include <string_view>

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

/** FNV-1a over a byte string. */
constexpr std::uint64_t
fnv1a(std::string_view bytes)
{
    std::uint64_t h = kFnvOffset;
    for (unsigned char c : bytes)
        h = fnvStep(h, c);
    return h;
}

} // namespace fcos

#endif // FCOS_UTIL_FNV_H
