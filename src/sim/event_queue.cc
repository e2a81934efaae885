#include "sim/event_queue.h"

#include "sim/worker_pool.h"
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
EventQueue::park(Event &&ev)
{
    if (free_slots_.empty()) {
        slots_.push_back(std::move(ev));
        return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(ev);
    return slot;
}

void
EventQueue::push(Time when, Event &&ev)
{
    heap_.push_back(Key{when, next_seq_++, park(std::move(ev))});
    siftUp(heap_.size() - 1);
    debugCheckPath(heap_.size() - 1);
    if (obs::metricsLive(obs_epoch_) && heap_.size() > stat_max_depth_)
        stat_max_depth_ = heap_.size();
}

EventQueue::Event
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
EventQueue::enqueue(Time when, Event &&ev)
{
    fcos_assert(!in_worker_phase_,
                "worker-phase code must not schedule events");
    fcos_assert(when >= now_, "schedule into the past: %llu < %llu",
                (unsigned long long)when, (unsigned long long)now_);
    // During a wave, same-timestamp events join the wave's next
    // sub-batch directly: appended in scheduling order, the ready list
    // is already in (when, seq) order (the heap holds nothing at this
    // time), and the heap's O(log n) churn is skipped entirely.
    if (in_wave_ && when == now_) {
        if (obs::metricsLive(obs_epoch_))
            ++stat_bypass_;
        ready_.push_back(std::move(ev));
    } else {
        push(when, std::move(ev));
    }
}

void
EventQueue::schedule(Time when, Callback cb)
{
    enqueue(when, Event{std::move(cb), {}});
}

void
EventQueue::scheduleSharded(Time when, std::uint32_t shard,
                            std::uint32_t cost, Callback work,
                            Callback commit)
{
    fcos_assert(shard != kNoShard, "invalid shard id");
    enqueue(when, Event{std::move(commit), std::move(work), shard, cost});
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
    Event ev = popMin();
    if (ev.work)
        ev.work();
    ++executed_;
    ev.commit();
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
    return advanceClock(deadline);
}

Time
EventQueue::advanceClock(Time deadline)
{
    // The clock always reaches the deadline: an event queued beyond it
    // must not leave the caller's notion of "now" stale below it.
    if (now_ < deadline)
        now_ = deadline;
    return now_;
}

// --------------------------------------------------------------------------
// Parallel (sharded two-phase) execution
// --------------------------------------------------------------------------

void
EventQueue::runBatch(std::vector<Event> &batch, WorkerPool &pool,
                     std::uint64_t min_work,
                     std::vector<std::vector<const Event *>> &lanes,
                     const std::function<void(std::uint32_t)> &lane_fn)
{
    // Worker phase: shard-local work, partitioned by shard so one
    // shard's events stay ordered and never run concurrently. The pool
    // is worth its round only for work spread over two or more lanes
    // whose summed estimate reaches min_work.
    const std::size_t n_lanes = lanes.size();
    const Event *first = nullptr; // first event with work
    bool multi_lane = false;
    std::uint64_t work = 0;
    for (const Event &ev : batch) {
        if (!ev.work)
            continue;
        work += ev.cost;
        if (!first)
            first = &ev;
        else if (ev.shard % n_lanes != first->shard % n_lanes)
            multi_lane = true;
        if (multi_lane && work >= min_work)
            break;
    }
    const bool dispatch = multi_lane && work >= min_work;
    if (dispatch) {
        for (const Event &ev : batch) {
            if (ev.work)
                lanes[ev.shard % n_lanes].push_back(&ev);
        }
        in_worker_phase_ = true;
        pool.run(lane_fn);
        in_worker_phase_ = false;
        for (auto &lane : lanes)
            lane.clear();
    } else if (first) {
        // Inline on the caller in seq order, skipping the cross-thread
        // handoff — a valid parallel schedule, since same-shard events
        // keep their order and cross-shard order is unobservable.
        if (obs::metricsLive(obs_epoch_))
            ++stat_inline_;
        in_worker_phase_ = true;
        for (const Event &ev : batch) {
            if (ev.work)
                ev.work();
        }
        in_worker_phase_ = false;
    }
    // Commit phase: the per-worker result streams merge back into one
    // deterministic order — every side effect lands in (when, seq)
    // order, exactly as the serial loop would have produced it.
    for (Event &ev : batch) {
        ++executed_;
        ev.commit();
    }
    batch.clear();
}

void
EventQueue::run(WorkerPool &pool)
{
    if (pool.workerCount() <= 1)
        run();
    else
        runWaves(kTimeMax, pool);
}

Time
EventQueue::runUntil(Time deadline, WorkerPool &pool)
{
    if (pool.workerCount() <= 1)
        return runUntil(deadline);
    runWaves(deadline, pool);
    return advanceClock(deadline);
}

void
EventQueue::runWaves(Time deadline, WorkerPool &pool)
{
    fcos_assert(!in_wave_, "re-entrant parallel run");
    // A one-thread pool could only run lanes inline; forced threads
    // dispatch every multi-lane sub-batch, so the threads and tsan
    // tiers keep crossing threads on tiny drives.
    const std::uint64_t min_work =
        pool.threadCount() <= 1     ? ~std::uint64_t{0}
        : WorkerPool::forceThreads() ? 0
                                     : kMinDispatchWork;
    // Wave-shape metrics are resolved once per drain; recording happens
    // on the caller's thread between phases (a serial context).
    const bool mlive = obs::metricsLive(obs_epoch_);
    obs::Histogram *wave_hist =
        mlive ? &obs::metrics().histogram("sim.queue.wave_size")
              : nullptr;
    std::vector<Event> batch;
    std::vector<std::vector<const Event *>> lanes(pool.workerCount());
    // One LaneFn for the whole drain — runBatch reuses it instead of
    // wrapping a fresh closure per sub-batch.
    const std::function<void(std::uint32_t)> lane_fn =
        [&lanes](std::uint32_t lane) {
            for (const Event *ev : lanes[lane])
                ev->work();
        };
    while (!heap_.empty() && heap_.front().when <= deadline) {
        const Time t = heap_.front().when;
        now_ = t;
        in_wave_ = true;
        // The wave's first sub-batch: every queued event at time t,
        // extracted in (when, seq) order.
        while (!heap_.empty() && heap_.front().when == t)
            batch.push_back(popMin());
        if (mlive)
            ++stat_waves_;
        while (!batch.empty()) {
            if (wave_hist)
                wave_hist->record(batch.size());
            runBatch(batch, pool, min_work, lanes, lane_fn);
            // Commits scheduled same-time events straight onto the
            // ready list (in seq order): they form the wave's next
            // sub-batch without touching the heap.
            batch.swap(ready_);
        }
        in_wave_ = false;
    }
}

void
EventQueue::publishMetrics()
{
    if (!obs::metricsLive(obs_epoch_))
        return;
    obs::Registry &m = obs::metrics();
    m.counter("sim.queue.events_executed").add(executed_ - pub_executed_);
    pub_executed_ = executed_;
    m.counter("sim.queue.heap_bypass_hits").add(stat_bypass_ - pub_bypass_);
    pub_bypass_ = stat_bypass_;
    m.counter("sim.queue.waves").add(stat_waves_ - pub_waves_);
    pub_waves_ = stat_waves_;
    // Host-side dispatch choice, not simulation shape: "host." keeps it
    // out of deterministic renders.
    m.counter("host.pool.inline_waves").add(stat_inline_ - pub_inline_);
    pub_inline_ = stat_inline_;
    m.gauge("sim.queue.heap_depth_peak")
        .noteMax(static_cast<double>(stat_max_depth_));
}

} // namespace fcos
