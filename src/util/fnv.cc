#include "util/fnv.h"

#include <algorithm>
#include <bit>
#include <numeric>

namespace fcos {

namespace {

/** Folds the runs of kFnvLanes words in @p w[0, n) into @p lanes. */
void
foldRuns(std::uint64_t *lanes, const std::uint64_t *w, std::size_t n)
{
    // Through a local copy: GCC 12 at -O3 runs the same loop over
    // @p lanes in place about 1.7x slower.
    std::uint64_t acc[kFnvLanes];
    std::copy_n(lanes, kFnvLanes, acc);
    for (std::size_t i = 0; i < n; i += kFnvLanes)
        for (std::size_t l = 0; l < kFnvLanes; ++l)
            acc[l] = fnvStep(acc[l], w[i + l]);
    std::copy_n(acc, kFnvLanes, lanes);
}

/** The digest of length @p length after the runs in @p lanes (if
 *  @p grouped) and the @p n words at @p rest: a last run if n is
 *  kFnvLanes, else the tail. */
std::uint64_t
finish(const std::uint64_t *lanes, bool grouped, const std::uint64_t *rest,
       std::size_t n, std::uint64_t length)
{
    const bool run = n == kFnvLanes;
    std::uint64_t h = kFnvOffset;
    for (std::size_t l = 0; (grouped || run) && l < kFnvLanes; ++l) {
        const std::uint64_t lane = grouped ? lanes[l] : kFnvOffset;
        h = fnvStep(h, run ? fnvStep(lane, rest[l]) : lane);
    }
    return fnvStep(std::accumulate(rest, rest + n % kFnvLanes, h, fnvStep),
                   length);
}

} // namespace

std::uint64_t
fnvDigestBits(const std::uint64_t *words, std::uint64_t bits)
{
    // The runs before the last word's run fold in place; the words from
    // there on, the last one masked, from a copy. Only what is read is
    // set: a page under 32 words builds no lane state.
    const std::size_t n = (bits + 63) / 64;
    const std::size_t head = n == 0 ? 0 : (n - 1) / kFnvLanes * kFnvLanes;
    std::uint64_t lanes[kFnvLanes], rest[kFnvLanes];
    std::copy(words + head, words + n, rest);
    if (bits % 64)
        rest[n - head - 1] &= ~std::uint64_t{0} >> (64 - bits % 64);
    if (head > 0) {
        std::fill_n(lanes, kFnvLanes, kFnvOffset);
        foldRuns(lanes, words, head);
    }
    return finish(lanes, head > 0, rest, n - head, bits);
}

FnvStream::FnvStream() { std::fill_n(lanes_, kFnvLanes, kFnvOffset); }

FnvStream &
FnvStream::append(const void *bytes, std::size_t n)
{
    // Byte i of a run is byte i % 8 (least significant first) of word
    // i / 8; a big-endian word holds its byte k at offset 7 - k.
    constexpr bool big = std::endian::native == std::endian::big;
    const auto *p = static_cast<const unsigned char *>(bytes);
    auto *run = reinterpret_cast<unsigned char *>(run_);
    while (n > 0) {
        const std::size_t at = length_ % sizeof run_;
        const std::size_t take = std::min(n, sizeof run_ - at);
        for (std::size_t i = 0; i < take; ++i)
            run[big ? (at + i) ^ 7 : at + i] = p[i];
        p += take;
        n -= take;
        length_ += take;
        if (length_ % sizeof run_ == 0) {
            foldRuns(lanes_, run_, kFnvLanes);
            std::fill_n(run_, kFnvLanes, 0);
        }
    }
    return *this;
}

std::uint64_t
FnvStream::digest() const
{
    return finish(lanes_, length_ >= sizeof run_, run_,
                  (length_ % sizeof run_ + 7) / 8, length_);
}

} // namespace fcos
