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
 * by (when, seq); the payloads (two SmallFn closures, shard, cost) sit
 * still in a slot table with a free list. A payload is moved in once
 * on push and out once when popped, so sifting never relocates a
 * closure. The key-heap invariant is checked in debug builds and on
 * demand.
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
 *      so only shard-disjoint state is touched concurrently. The pool
 *      is used only when it can pay: the sub-batch's work must span
 *      two or more lanes *and* its summed work estimate must reach
 *      kMinDispatchWork. Any other sub-batch (one lane, or a few tiny
 *      page ops that cost less than a pool round) runs inline on the
 *      caller in seq order — itself a valid parallel schedule;
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

    /**
     * Summed work estimate a multi-lane sub-batch must reach before it
     * is handed to the worker pool; lighter ones run inline. The unit
     * is whatever scheduleSharded() callers estimate in — the engine
     * passes the page bits of each plane op.
     *
     * Calibration (4-vCPU x86 host, Release): a pool round of empty
     * lanes costs ~0.8 us (fcbench probe `sim.pool_handoff_us`), and a
     * 3-wordline MWS over one Table-1 page, 2^17 bits, costs ~28 us
     * (`nand.mws_us.wl3`), i.e. ~0.2 ns per page bit. Splitting work W
     * over two lanes saves about W/2, so dispatch breaks even near
     * W = 2 x 0.8 us, about 2^13 bits. The threshold sits 8x above
     * that, at ~14 us of sensing, because a real round also migrates
     * the ops' closures, latches and shared counters between cores,
     * and page bits do not count an op's fixed cost. Both shapes the
     * engine runs fall clear of it: a tiny 256-bit-page drive would
     * need 256 die ops at one instant, while any multi-lane Table-1
     * wave carries at least 2 x 2^17 bits.
     */
    static constexpr std::uint64_t kMinDispatchWork = std::uint64_t{1}
                                                      << 16;

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
     *
     * @p cost estimates @p work's host time in the units of
     * kMinDispatchWork; it only decides where the work runs, never
     * what it computes.
     */
    void scheduleSharded(Time when, std::uint32_t shard,
                         std::uint32_t cost, Callback work,
                         Callback commit);

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
     * @p deadline (kTimeMax included), whether or not later events
     * remain queued.
     * @return the final now() (== max(now, deadline)).
     */
    Time runUntil(Time deadline);

    /** runUntil with sharded work phases on @p pool — bit-identical to
     *  the serial runUntil, clock included, for any worker count. */
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
    /** An event's payload; its order lives in its heap Key. */
    struct Event
    {
        Callback commit;
        Callback work;                  ///< empty for commit-only events
        std::uint32_t shard = kNoShard; ///< worker lane key
        std::uint32_t cost = 0;         ///< work estimate (dispatch gate)
    };

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

    void enqueue(Time when, Event &&ev);
    void push(Time when, Event &&ev);
    /** Store @p ev in a free slot of slots_ and return the slot. */
    std::uint32_t park(Event &&ev);
    Event popMin();
    void siftUp(std::size_t i);
    /** @return the heap index the key at @p i came to rest at. */
    std::size_t siftDown(std::size_t i);
    /** Debug builds: assert the invariant after a sift whose moves
     *  all lie on the path from heap index @p i to the root. */
    void debugCheckPath(std::size_t i) const;
    /** Advance the clock to @p deadline if it is behind it — the one
     *  clock rule both runUntil overloads end with. */
    Time advanceClock(Time deadline);
    /** Execute every event at or before @p deadline in timestamp waves
     *  on @p pool; leaves the clock at the last executed event. */
    void runWaves(Time deadline, WorkerPool &pool);
    void runBatch(std::vector<Event> &batch, WorkerPool &pool,
                  std::uint64_t min_work,
                  std::vector<std::vector<const Event *>> &lanes,
                  const std::function<void(std::uint32_t)> &lane_fn);

    Time now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
    std::vector<Key> heap_;
    /** Payloads of the events in heap_, indexed by Key::slot; the
     *  slots of popped events are reused through free_slots_. */
    std::vector<Event> slots_;
    std::vector<std::uint32_t> free_slots_;
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
