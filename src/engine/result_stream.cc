#include "engine/result_stream.h"

#include <bit>

#include "util/fnv.h"
#include "util/log.h"

namespace fcos::engine {

PageSummary
PageSummary::of(const BitVector &page, std::uint64_t bits)
{
    const std::vector<std::uint64_t> &words = page.words();
    fcos_assert(BitVector::wordsFor(bits) <= words.size(),
                "page shorter than its valid bits");
    const std::uint64_t full = bits / 64;
    PageSummary s;
    s.digest = fnvDigestBits(words.data(), bits);
    s.ones = popcountWords(words.data(), full);
    if (const std::uint64_t tail = bits % 64)
        s.ones += static_cast<std::uint64_t>(
            std::popcount(words[full] & ((1ULL << tail) - 1)));
    return s;
}

OrderedChunkStream::OrderedChunkStream(std::uint64_t pages, Emit emit)
    : pages_(pages), emit_(std::move(emit))
{
    fcos_assert(pages_ > 0, "empty result stream");
    fcos_assert(emit_ != nullptr, "result stream without a consumer");
    if (obs::metricsOn()) {
        m_epoch_ = obs::metricsEpoch();
        obs::Registry &m = obs::metrics();
        chunk_counter_ = &m.counter("stream.chunks_emitted");
        peak_gauge_ = &m.gauge("stream.peak_buffered_pages");
    }
}

void
OrderedChunkStream::push(std::uint64_t index, BitVector page,
                         PageSummary summary)
{
    fcos_assert(index < pages_, "result page %llu beyond the stream",
                (unsigned long long)index);
    fcos_assert(index >= next_ && !pending_.count(index),
                "result page %llu delivered twice",
                (unsigned long long)index);
    if (index != next_) {
        pending_.emplace(index, std::pair{std::move(page), summary});
        peak_ = std::max<std::uint64_t>(peak_, pending_.size());
        if (obs::metricsLive(m_epoch_))
            peak_gauge_->noteMax(static_cast<double>(peak_));
        return;
    }
    const std::uint64_t before = next_;
    emit_(next_++, std::move(page), summary);
    // Flush the contiguous prefix the arrival unblocked.
    for (auto it = pending_.begin();
         it != pending_.end() && it->first == next_;
         it = pending_.erase(it))
        emit_(next_++, std::move(it->second.first), it->second.second);
    if (obs::metricsLive(m_epoch_))
        chunk_counter_->add(next_ - before);
}

} // namespace fcos::engine
