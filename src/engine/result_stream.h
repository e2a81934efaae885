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
 */

#ifndef FCOS_ENGINE_RESULT_STREAM_H
#define FCOS_ENGINE_RESULT_STREAM_H

#include <cstdint>
#include <functional>
#include <map>

#include "obs/obs.h"
#include "util/bitvector.h"

namespace fcos::engine {

class OrderedChunkStream
{
  public:
    /** Receives page @p index's payload, indices strictly 0,1,2,... */
    using Emit = std::function<void(std::uint64_t index, BitVector page)>;

    OrderedChunkStream(std::uint64_t pages, Emit emit);

    /**
     * Deliver page @p index (any arrival order; each index exactly
     * once). Emits the contiguous ready prefix synchronously.
     */
    void push(std::uint64_t index, BitVector page);

    /** onResult adapter for the program computing page @p index. */
    std::function<void(BitVector)> handler(std::uint64_t index)
    {
        return [this, index](BitVector page) {
            push(index, std::move(page));
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
    std::map<std::uint64_t, BitVector> pending_;
    std::uint64_t peak_ = 0;

    /** Metric handles resolved at construction (a serial context);
     *  push() runs in commit phase, so updates are serial too. */
    std::uint64_t m_epoch_ = 0;
    obs::Counter *chunk_counter_ = nullptr;
    obs::Gauge *peak_gauge_ = nullptr;
};

} // namespace fcos::engine

#endif // FCOS_ENGINE_RESULT_STREAM_H
