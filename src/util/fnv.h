/**
 * @file
 * The library's one digest (result pages and streams, traffic runs, the
 * trace): FNV-1a rounds (fnvStep) fed 64-bit words over 32 lanes. One
 * xor-multiply chain waits on every multiply, while 32 independent
 * chains keep the multiplier busy from a plain loop, with no intrinsics
 * and no ISA dispatch. Fed words, a page's digest does not depend on the
 * host's byte order.
 *
 * Input: a page is its n = ceil(bits / 64) words, the last masked to the
 * valid bits, and L = bits; a byte string is n words packed
 * little-endian, the last zero-padded, and L = its byte count.
 *
 * Digest: h starts at kFnvOffset. With G = n / 32, if G > 0, lane l
 * (0 .. 31) starts at kFnvOffset and folds w[32 g + l] for every g < G,
 * then h folds the 32 lane values in lane order. Next h folds the tail
 * words w[32 G .. n) in order, and last h = fnvStep(h, L). A page under
 * 32 words builds no lane state.
 */

#ifndef FCOS_UTIL_FNV_H
#define FCOS_UTIL_FNV_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace fcos {

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
inline constexpr std::size_t kFnvLanes = 32;

/** One FNV-1a round; stream and traffic digests fold one digest each. */
constexpr std::uint64_t
fnvStep(std::uint64_t h, std::uint64_t v)
{
    return (h ^ v) * kFnvPrime;
}

/** The digest of the first @p bits bits of @p words. */
std::uint64_t fnvDigestBits(const std::uint64_t *words, std::uint64_t bits);

/** The digest of a byte string appended in chunks of any size. */
class FnvStream
{
  public:
    FnvStream();
    FnvStream &append(const void *bytes, std::size_t n);
    std::uint64_t digest() const;

  private:
    std::uint64_t lanes_[kFnvLanes];    ///< one chain each, from kFnvOffset
    std::uint64_t run_[kFnvLanes] = {}; ///< the next run, zero-padded
    std::uint64_t length_ = 0;          ///< bytes; run_ holds length_ % 256
};

/** The digest of @p bytes in one call. */
inline std::uint64_t
fnvDigestBytes(std::string_view bytes)
{
    return FnvStream().append(bytes.data(), bytes.size()).digest();
}

} // namespace fcos

#endif // FCOS_UTIL_FNV_H
