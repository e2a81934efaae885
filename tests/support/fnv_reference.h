/**
 * @file
 * The digest of util/fnv.h written out plainly from its definition, for
 * tests to check the library's lane loop and its streaming form
 * against.
 */

#ifndef FCOS_TESTS_SUPPORT_FNV_REFERENCE_H
#define FCOS_TESTS_SUPPORT_FNV_REFERENCE_H

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/fnv.h"

namespace fcos::test {

/** The digest of @p words (already masked and padded) and length
 *  @p length: 32 lanes over the whole groups of 32 words, folded in
 *  lane order, then the tail words one by one, then the length. */
inline std::uint64_t
fnvReference(const std::vector<std::uint64_t> &words, std::uint64_t length)
{
    const std::size_t groups = words.size() / 32;
    std::uint64_t h = kFnvOffset;
    if (groups > 0) {
        std::vector<std::uint64_t> lane(32, kFnvOffset);
        for (std::size_t g = 0; g < groups; ++g) {
            for (std::size_t l = 0; l < 32; ++l)
                lane[l] = fnvStep(lane[l], words[32 * g + l]);
        }
        for (std::uint64_t v : lane)
            h = fnvStep(h, v);
    }
    for (std::size_t i = 32 * groups; i < words.size(); ++i)
        h = fnvStep(h, words[i]);
    return fnvStep(h, length);
}

/** The first @p bits bits of @p words as the digest's page input. */
inline std::vector<std::uint64_t>
fnvPageWords(const std::vector<std::uint64_t> &words, std::uint64_t bits)
{
    std::vector<std::uint64_t> page(words.begin(),
                                    words.begin() + (bits + 63) / 64);
    if (bits % 64)
        page.back() &= (std::uint64_t{1} << (bits % 64)) - 1;
    return page;
}

/** The reference digest of a byte string: its bytes packed
 *  little-endian into words, the last zero-padded, with its byte count
 *  as the length. */
inline std::uint64_t
fnvReferenceBytes(std::string_view bytes)
{
    std::vector<std::uint64_t> words((bytes.size() + 7) / 8, 0);
    for (std::size_t i = 0; i < bytes.size(); ++i)
        words[i / 8] |= std::uint64_t{static_cast<unsigned char>(bytes[i])}
                        << (8 * (i % 8));
    return fnvReference(words, bytes.size());
}

} // namespace fcos::test

#endif // FCOS_TESTS_SUPPORT_FNV_REFERENCE_H
