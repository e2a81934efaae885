#include "reliability/randomizer.h"

#include "util/rng.h"

namespace fcos::rel {

std::uint64_t
Randomizer::keystreamWord(std::uint64_t page_key, std::size_t idx) const
{
    // Rng::mix(z, 0) is splitmix64 of z.
    return Rng::mix(device_seed_ ^ Rng::mix(page_key, 0) ^
                        (0xA5A5A5A5A5A5A5A5ULL * (idx + 1)),
                    0);
}

void
Randomizer::apply(BitVector &page, std::uint64_t page_key) const
{
    auto &words = page.words();
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] ^= keystreamWord(page_key, i);
    // Keep the tail invariant: re-zero bits beyond size().
    if (page.size() & 63)
        words.back() &= (~0ULL) >> (64 - (page.size() & 63));
}

} // namespace fcos::rel
