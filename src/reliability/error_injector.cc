#include "reliability/error_injector.h"

#include <unordered_set>

namespace fcos::rel {

void
VthErrorInjector::inject(BitVector &bits, const nand::PageMeta &meta,
                         std::uint64_t seed)
{
    sensed_bits_.fetch_add(bits.size(), std::memory_order_relaxed);
    double p = model_.rberFor(meta, cond_, quality_);
    if (p <= 0.0)
        return;
    Rng rng(Rng::mix(base_seed_, seed));
    std::uint64_t flips = rng.binomial(bits.size(), p);
    // Distinct positions: a duplicate draw would un-flip the bit and
    // understate the error count at high rates.
    std::unordered_set<std::size_t> flipped;
    flipped.reserve(flips);
    while (flipped.size() < flips) {
        std::size_t pos = static_cast<std::size_t>(
            rng.nextBounded(bits.size()));
        if (flipped.insert(pos).second)
            bits.set(pos, !bits.get(pos));
    }
    injected_.fetch_add(flips, std::memory_order_relaxed);
}

} // namespace fcos::rel
