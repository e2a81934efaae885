/**
 * @file
 * Ordered chunk emission for sharded result streams.
 *
 * A sharded operation's column programs complete in simulated-time
 * order, which is *not* page order: planes race, channels serialize,
 * and the payload leaves the engine at the sense-completion instant
 * rather than DMA completion (ColumnProgram::onResult).
 * Streaming consumers (core::ResultSink) are promised strictly
 * increasing page indices, so OrderedChunkStream sits between the two:
 * it buffers out-of-order arrivals and flushes the in-order prefix as
 * soon as it exists.
 *
 * The buffer is the stream's only O(>chunk) state, and its peak is the
 * arrival skew — for round-robin-striped vectors that is about one
 * page stripe (one page per column), not the whole result. The peak is
 * tracked so scale tests can pin the memory bound.
 *
 * Each page travels with its PageSummary: the digest and population
 * count of its valid bits, which the scheduler computes on the die's
 * worker lane, so the consumers' per-page folds are O(1).
 */

#ifndef FCOS_ENGINE_RESULT_STREAM_H
#define FCOS_ENGINE_RESULT_STREAM_H

#include <cstdint>
#include <functional>
#include <map>

#include "obs/obs.h"
#include "util/bitvector.h"

namespace fcos::engine {

/**
 * What a result stream folds per page: the digest of the page's valid
 * bits (fnvDigestBits(), with the bits past the valid ones cleared) and
 * their population count. The one definition: the scheduler summarizes
 * a result latch with it, and chunks built on the host (fallback
 * evaluation, DigestSink::digestOf) use it too.
 */
struct PageSummary
{
    std::uint64_t digest = 0;
    std::uint64_t ones = 0;

    /** Summary of the first @p bits of @p page. */
    static PageSummary of(const BitVector &page, std::uint64_t bits);

    bool operator==(const PageSummary &) const = default;
};

class OrderedChunkStream
{
  public:
    /** Receives page @p index's payload and summary, indices strictly
     *  0,1,2,... */
    using Emit = std::function<void(std::uint64_t index, BitVector page,
                                    PageSummary summary)>;

    OrderedChunkStream(std::uint64_t pages, Emit emit);

    /**
     * Deliver page @p index (any arrival order; each index exactly
     * once). Emits the contiguous ready prefix synchronously.
     */
    void push(std::uint64_t index, BitVector page, PageSummary summary);

    /** onResult adapter for the program computing page @p index. */
    std::function<void(BitVector, PageSummary)> handler(std::uint64_t index)
    {
        return [this, index](BitVector page, PageSummary summary) {
            push(index, std::move(page), summary);
        };
    }

    bool complete() const { return next_ == pages_; }
    std::uint64_t emitted() const { return next_; }

    /** Most pages ever buffered while waiting for a predecessor —
     *  the stream's memory high-water mark in pages. */
    std::uint64_t peakBufferedPages() const { return peak_; }

  private:
    std::uint64_t pages_;
    Emit emit_;
    std::uint64_t next_ = 0;           ///< lowest index not yet emitted
    std::map<std::uint64_t, std::pair<BitVector, PageSummary>> pending_;
    std::uint64_t peak_ = 0;

    /** Metric handles resolved at construction (a serial context);
     *  push() runs on the coordinator, so updates are serial too. */
    std::uint64_t m_epoch_ = 0;
    obs::Counter *chunk_counter_ = nullptr;
    obs::Gauge *peak_gauge_ = nullptr;
};

} // namespace fcos::engine

#endif // FCOS_ENGINE_RESULT_STREAM_H
