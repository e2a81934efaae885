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
 * The queue is an explicit binary heap ordered by (when, seq), popped
 * by value — no const_cast through a std::priority_queue top() — with
 * the heap invariant checked in debug builds and on demand.
 *
 * Sharded two-phase events parallelize the simulation without giving
 * up bit-exactness. An event scheduled with scheduleSharded() carries a
 * *work* closure (heavy, shard-local computation: one die's functional
 * mutation) next to its *commit* closure (side effects on shared
 * simulation state: facilities, the energy ledger, new events). Under
 * run(WorkerPool&) the queue executes in timestamp waves:
 *
 *   1. extract every event at the front timestamp, in seq order;
 *   2. worker phase — the work closures run on the pool, partitioned
 *      by shard (same shard => same lane, lane-internal seq order),
 *      so only shard-disjoint state is touched concurrently (a wave
 *      whose work all maps to one lane runs inline on the caller in
 *      seq order instead — the pool could only serialize it anyway);
 *   3. commit phase — every commit closure runs on the caller's
 *      thread in seq order, merging the per-worker result streams
 *      back into one deterministic global order.
 *
 * Events a commit schedules at the same timestamp form the wave's next
 * sub-batch (they carry higher seqs than everything already executed),
 * so the wave drains exactly as the serial loop would have. Because
 * commits — the only phase that can observe cross-shard state — run
 * serially in (when, seq) order, a parallel run is bit-for-bit
 * identical to runOne()-at-a-time execution for any worker count.
 */

#ifndef FCOS_SIM_EVENT_QUEUE_H
#define FCOS_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "util/small_fn.h"
#include "util/units.h"

namespace fcos {

class WorkerPool;

class EventQueue
{
  public:
    /** Event payload: SBO callable, so the common engine captures
     *  ([this, die, col, shared_ptr], bound std::functions) never
     *  heap-allocate on the schedule/execute path. */
    using Callback = SmallFn<void()>;

    /** Shard tag of ordinary (commit-only) events. */
    static constexpr std::uint32_t kNoShard = ~std::uint32_t{0};

    /** Current simulated time. */
    Time now() const { return now_; }

    /** Schedule @p cb at absolute time @p when (must be >= now()). */
    void schedule(Time when, Callback cb);

    /** Schedule @p cb @p delta after now(). */
    void scheduleAfter(Time delta, Callback cb)
    {
        schedule(now_ + delta, std::move(cb));
    }

    /**
     * Schedule a two-phase event: under run(WorkerPool&), @p work runs
     * in the parallel worker phase on the lane owning @p shard (events
     * of one shard never run concurrently with each other), then
     * @p commit runs serially in (when, seq) order. Serial execution
     * runs work immediately followed by commit — the same total order.
     * @p work must touch only shard-local state and must not schedule.
     * A commit that needs its work's observation must read it from
     * event-private storage the work filled (all works of a wave run
     * before its first commit, so re-reading mutable shard state from
     * a commit would see later same-time works' effects).
     */
    void scheduleSharded(Time when, std::uint32_t shard, Callback work,
                         Callback commit);

    /**
     * Merge a pre-ordered event stream (e.g. generated by one worker)
     * into the queue: entries receive consecutive seqs in stream order,
     * so equal-time entries keep their relative order against each
     * other and go after everything already queued. Large streams are
     * merged with a linear-time Floyd heapify instead of per-event
     * sift-ups.
     */
    void merge(std::vector<std::pair<Time, Callback>> stream);

    /** Execute the earliest event. @return false if the queue is empty. */
    bool runOne();

    /** Run until no events remain. */
    void run();

    /**
     * Run until no events remain, executing sharded work phases on
     * @p pool. Bit-for-bit identical to run() for any worker count.
     */
    void run(WorkerPool &pool);

    /**
     * Run until simulated time would exceed @p deadline; events at
     * exactly @p deadline still execute. The clock always advances to
     * @p deadline, whether or not later events remain queued.
     * @return the final now() (== max(now, deadline)).
     */
    Time runUntil(Time deadline);

    /** runUntil with sharded work phases on @p pool — bit-identical to
     *  the serial runUntil for any worker count. */
    Time runUntil(Time deadline, WorkerPool &pool);

    /** Number of events waiting. */
    std::size_t pending() const { return heap_.size() + ready_.size(); }

    /** Total events executed (for engine microbenchmarks). */
    std::uint64_t executed() const { return executed_; }

    /** Verify the heap invariant (also asserted in debug builds). */
    bool heapIsValid() const;

    /**
     * Push this queue's accumulated statistics (events executed, heap
     * bypass hits, waves, peak heap depth) into the active metrics
     * registry under "sim.queue.*", plus the sub-batches whose work
     * ran inline instead of on the pool as "host.pool.inline_waves"
     * (a host-side choice). Deltas since the previous publish,
     * so calling once per drain is safe. No-op unless metrics were on
     * when the queue was constructed (and still are).
     */
    void publishMetrics();

  private:
    struct Event
    {
        Time when;
        std::uint64_t seq;
        Callback commit;
        Callback work;                  ///< empty for commit-only events
        std::uint32_t shard = kNoShard; ///< worker lane key
    };

    static bool earlier(const Event &a, const Event &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    void enqueue(Event ev);
    void push(Event ev);
    Event popMin();
    void siftUp(std::size_t i);
    void siftDown(std::size_t i);
    void debugCheckHeap() const;
    void runBatch(std::vector<Event> &batch, WorkerPool &pool,
                  std::vector<std::vector<const Event *>> &lanes,
                  const std::function<void(std::uint32_t)> &lane_fn);

    Time now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
    std::vector<Event> heap_;
    /** Same-timestamp events scheduled during the current wave's
     *  commit phase: already seq-ordered, so they bypass the heap and
     *  become the wave's next sub-batch. */
    std::vector<Event> ready_;
    bool in_wave_ = false;
    bool in_worker_phase_ = false;

    /** Metrics epoch captured at construction: all instrumentation
     *  below is dead (one branch per hook) unless it is still live.
     *  Queue-shape metrics (waves, bypass, depth) legitimately differ
     *  between serial and wave execution, so they live here and never
     *  in the trace — trace digests stay worker-count-invariant. */
    std::uint64_t obs_epoch_ = obs::metricsEpoch();
    std::uint64_t stat_max_depth_ = 0;
    std::uint64_t stat_bypass_ = 0;
    std::uint64_t stat_waves_ = 0;
    std::uint64_t stat_inline_ = 0; ///< sub-batches whose work ran inline
    std::uint64_t pub_executed_ = 0;
    std::uint64_t pub_bypass_ = 0;
    std::uint64_t pub_waves_ = 0;
    std::uint64_t pub_inline_ = 0;
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
