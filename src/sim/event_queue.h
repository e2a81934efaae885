/**
 * @file
 * Deterministic discrete-event simulation engine.
 *
 * The engine is deliberately minimal: a time-ordered queue of callbacks
 * with FIFO tie-breaking at equal timestamps, which makes every run
 * bit-reproducible. Components (dies, channels, links) are modelled as
 * Facility objects — serialized resources with an "available at" time —
 * which is the same modelling level MQSim uses for bus and die
 * contention.
 *
 * The queue is a binary heap of 24-byte {when, seq, slot} keys ordered
 * by (when, seq); the payloads (SmallFn closures) sit still in a slot
 * table with a free list. A payload is moved in once on push and out
 * once when popped, so sifting never relocates a closure. The
 * key-heap invariant is checked in debug builds and on demand.
 *
 * The queue is serial: one thread pops and runs every event. Host
 * parallelism lives outside it — the command scheduler books a step's
 * time from its shape and runs its die work on the die's worker
 * strand ahead of the clock (engine/scheduler.h), so the timeline the
 * queue orders never depends on the worker count.
 */

#ifndef FCOS_SIM_EVENT_QUEUE_H
#define FCOS_SIM_EVENT_QUEUE_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "util/small_fn.h"
#include "util/units.h"

namespace fcos {

class EventQueue
{
  public:
    /** Event payload: SBO callable, so the common engine captures
     *  ([this, die, col, shared_ptr], bound std::functions) never
     *  heap-allocate on the schedule/execute path. */
    using Callback = SmallFn<void()>;

    /** Current simulated time. */
    Time now() const { return now_; }

    /** Schedule @p cb at absolute time @p when (must be >= now()). */
    void schedule(Time when, Callback cb);

    /** Schedule @p cb @p delta after now(). */
    void scheduleAfter(Time delta, Callback cb)
    {
        schedule(now_ + delta, std::move(cb));
    }

    /** Execute the earliest event. @return false if the queue is empty. */
    bool runOne();

    /** Run until no events remain. */
    void run();

    /**
     * Run until simulated time would exceed @p deadline; events at
     * exactly @p deadline still execute. The clock always advances to
     * @p deadline (kTimeMax included), whether or not later events
     * remain queued.
     * @return the final now() (== max(now, deadline)).
     */
    Time runUntil(Time deadline);

    /** Number of events waiting. */
    std::size_t pending() const { return heap_.size(); }

    /** Total events executed (for engine microbenchmarks). */
    std::uint64_t executed() const { return executed_; }

    /** Verify the heap invariant (also asserted in debug builds). */
    bool heapIsValid() const;

    /**
     * Push this queue's accumulated statistics (events executed, peak
     * heap depth) into the active metrics registry under
     * "sim.queue.*". Deltas since the previous publish, so calling
     * once per drain is safe. No-op unless metrics were on when the
     * queue was constructed (and still are).
     */
    void publishMetrics();

  private:
    /** Heap entry: the event's order plus the slot its payload sits
     *  in. */
    struct Key
    {
        Time when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    static bool earlier(const Key &a, const Key &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /** Store @p cb in a free slot of slots_ and return the slot. */
    std::uint32_t park(Callback &&cb);
    Callback popMin();
    void siftUp(std::size_t i);
    /** @return the heap index the key at @p i came to rest at. */
    std::size_t siftDown(std::size_t i);
    /** Debug builds: assert the invariant after a sift whose moves
     *  all lie on the path from heap index @p i to the root. */
    void debugCheckPath(std::size_t i) const;

    Time now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
    std::vector<Key> heap_;
    /** Payloads of the events in heap_, indexed by Key::slot; the
     *  slots of popped events are reused through free_slots_. */
    std::vector<Callback> slots_;
    std::vector<std::uint32_t> free_slots_;
    /** Metrics epoch captured at construction: all instrumentation
     *  below is dead (one branch per hook) unless it is still live. */
    std::uint64_t obs_epoch_ = obs::metricsEpoch();
    std::uint64_t stat_max_depth_ = 0;
    std::uint64_t pub_executed_ = 0;
};

/**
 * A serialized resource (bus, link, die plane, accelerator port).
 *
 * acquire(now, duration) books the next free slot of the resource and
 * returns the completion time; callers schedule their continuation
 * there. Requests are served in the order acquire() is called, which —
 * because the event queue is deterministic — yields FIFO service in
 * arrival order.
 */
class Facility
{
  public:
    explicit Facility(std::string name = "") : name_(std::move(name)) {}

    /**
     * Book the resource for @p duration starting no earlier than @p now.
     * @return completion time of this booking.
     */
    Time acquire(Time now, Time duration)
    {
        Time start = std::max(now, ready_);
        ready_ = start + duration;
        busy_ += duration;
        ++grants_;
        return ready_;
    }

    /** Earliest time a new booking could start. */
    Time readyAt() const { return ready_; }

    /** Accumulated busy time (for utilization reports). */
    Time busyTime() const { return busy_; }

    /** Number of grants served. */
    std::uint64_t grants() const { return grants_; }

    const std::string &name() const { return name_; }

    /** Forget all bookings (fresh run). */
    void reset()
    {
        ready_ = 0;
        busy_ = 0;
        grants_ = 0;
    }

  private:
    std::string name_;
    Time ready_ = 0;
    Time busy_ = 0;
    std::uint64_t grants_ = 0;
};

} // namespace fcos

#endif // FCOS_SIM_EVENT_QUEUE_H
