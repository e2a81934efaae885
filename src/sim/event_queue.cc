#include "sim/event_queue.h"

#include "util/log.h"

namespace fcos {

// --------------------------------------------------------------------------
// Binary heap of (when, seq, slot) keys over a slot table of payloads
// --------------------------------------------------------------------------

void
EventQueue::siftUp(std::size_t i)
{
    const Key key = heap_[i];
    while (i > 0) {
        std::size_t parent = (i - 1) / 2;
        if (!earlier(key, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = key;
}

std::size_t
EventQueue::siftDown(std::size_t i)
{
    const std::size_t n = heap_.size();
    const Key key = heap_[i];
    for (;;) {
        std::size_t left = 2 * i + 1;
        if (left >= n)
            break;
        std::size_t best = left;
        std::size_t right = left + 1;
        if (right < n && earlier(heap_[right], heap_[left]))
            best = right;
        if (!earlier(heap_[best], key))
            break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = key;
    return i;
}

std::uint32_t
EventQueue::park(Callback &&cb)
{
    if (free_slots_.empty()) {
        slots_.push_back(std::move(cb));
        return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(cb);
    return slot;
}

EventQueue::Callback
EventQueue::popMin()
{
    fcos_assert(!heap_.empty(), "pop from an empty event heap");
    const std::uint32_t slot = heap_.front().slot;
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty())
        debugCheckPath(siftDown(0));
    free_slots_.push_back(slot);
    return std::move(slots_[slot]);
}

bool
EventQueue::heapIsValid() const
{
    for (std::size_t i = 1; i < heap_.size(); ++i) {
        if (earlier(heap_[i], heap_[(i - 1) / 2]))
            return false;
    }
    return true;
}

void
EventQueue::debugCheckPath(std::size_t i) const
{
#ifndef NDEBUG
    // A push or pop moves keys only on the path from index i to the
    // root. The heap was valid before, so checking every parent/child
    // edge that touches this path proves the whole invariant in
    // O(log n); a full heapIsValid() per event would make debug runs
    // quadratic in the heap depth.
    for (;;) {
        for (std::size_t c = 2 * i + 1; c <= 2 * i + 2 && c < heap_.size();
             ++c)
            fcos_assert(!earlier(heap_[c], heap_[i]),
                        "event heap invariant violated");
        if (i == 0)
            break;
        i = (i - 1) / 2;
    }
#else
    (void)i;
#endif
}

// --------------------------------------------------------------------------
// Scheduling
// --------------------------------------------------------------------------

void
EventQueue::schedule(Time when, Callback cb)
{
    fcos_assert(when >= now_, "schedule into the past: %llu < %llu",
                (unsigned long long)when, (unsigned long long)now_);
    heap_.push_back(Key{when, next_seq_++, park(std::move(cb))});
    siftUp(heap_.size() - 1);
    debugCheckPath(heap_.size() - 1);
    if (obs::metricsLive(obs_epoch_) && heap_.size() > stat_max_depth_)
        stat_max_depth_ = heap_.size();
}

// --------------------------------------------------------------------------
// Serial execution
// --------------------------------------------------------------------------

bool
EventQueue::runOne()
{
    if (heap_.empty())
        return false;
    now_ = heap_.front().when;
    Callback cb = popMin();
    ++executed_;
    cb();
    return true;
}

void
EventQueue::run()
{
    while (runOne()) {
    }
}

Time
EventQueue::runUntil(Time deadline)
{
    while (!heap_.empty() && heap_.front().when <= deadline)
        runOne();
    // The clock always reaches the deadline: an event queued beyond it
    // must not leave the caller's notion of "now" stale below it.
    if (now_ < deadline)
        now_ = deadline;
    return now_;
}

void
EventQueue::publishMetrics()
{
    if (!obs::metricsLive(obs_epoch_))
        return;
    obs::Registry &m = obs::metrics();
    m.counter("sim.queue.events_executed").add(executed_ - pub_executed_);
    pub_executed_ = executed_;
    m.gauge("sim.queue.heap_depth_peak")
        .noteMax(static_cast<double>(stat_max_depth_));
}

} // namespace fcos
