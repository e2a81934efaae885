/**
 * @file
 * A fixed pool of host worker threads running FIFO strands of work.
 *
 * Work is posted to a *strand* (the engine keys one strand per die):
 * one strand's items run one at a time, in the order they were posted,
 * so everything they touch sees the same sequence as a serial run.
 * Different strands run concurrently on whichever thread is free.
 * Which thread runs an item is a pure performance choice, never a
 * semantics one: results are bit-identical on 1 thread or 16.
 *
 * The pool separates *logical workers* (the configured count) from
 * *physical threads* (how many OS threads can usefully run them). On
 * hosts with fewer cores than workers it spawns only as many threads
 * as can run concurrently; with a single usable thread it degenerates
 * to running each item inline when it is posted, with zero
 * synchronization cost. FCOS_FORCE_THREADS=1 forces one OS thread per
 * worker regardless of core count — the ThreadSanitizer tier uses it
 * so cross-thread synchronization is exercised even on small CI hosts.
 *
 * The posting thread (the simulation's coordinator) is one of the
 * physical threads: the pool spawns (threads - 1), and whenever the
 * coordinator waits for a strand (wait(), fence(), fenceAll()) it runs
 * queued items itself — the awaited strand's first if it is queued —
 * until the item it waits for has run. So a coordinator that has
 * nothing else to do adds a lane instead of idling.
 *
 * An idle thread spins on the ready count for up to kSpinBudget before
 * parking on a condition variable, and handing items over pays for a
 * futex wake only when some thread actually parked. While every thread
 * is busy, posts are staged and handed over in batches (kFlushItems).
 * An oversubscribed pool (more threads than hardware_concurrency(),
 * e.g. forced threads on a small host) parks immediately instead, so
 * it never spins against the very thread it waits for.
 */

#ifndef FCOS_SIM_WORKER_POOL_H
#define FCOS_SIM_WORKER_POOL_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "util/small_fn.h"

namespace fcos {

class WorkerPool
{
  public:
    /** A job executed once per lane; lane is in [0, workerCount()). */
    using LaneFn = std::function<void(std::uint32_t lane)>;

    /** One strand item. SBO callable: the engine's captures (this,
     *  die, job pointer) never heap-allocate on the way in. */
    using Work = SmallFn<void()>;

    /**
     * How long an idle thread spins on the ready count before parking.
     * A handoff through condition-variable wakeups alone measured
     * 8-12 us on a 4-vCPU x86 host; a few of those covers the gap
     * between the bursts of items one drain posts while bounding the
     * CPU an idle pool burns.
     */
    static constexpr std::chrono::microseconds kSpinBudget{50};

    /** @param workers  number of logical workers (>= 1). */
    explicit WorkerPool(std::uint32_t workers);
    /** Runs every queued item, then stops the threads. */
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Logical workers (the configured count). */
    std::uint32_t workerCount() const { return workers_; }

    /** Physical OS threads running items, the coordinator included. */
    std::uint32_t threadCount() const
    {
        return static_cast<std::uint32_t>(threads_.size()) + 1;
    }

    /**
     * Queue @p work behind every item posted to @p strand before it.
     * Coordinator only (one posting thread). @return the item's
     * ticket: wait(@p strand, ticket) returns once it has run. With
     * no spawned threads the item runs here, before post() returns.
     */
    std::uint64_t post(std::uint32_t strand, Work work);

    /** Block until @p strand's item @p ticket (and so every item
     *  posted to it before) has run, running queued items meanwhile.
     *  Its effects are visible to the caller on return. */
    void wait(std::uint32_t strand, std::uint64_t ticket);

    /** wait() for everything posted to @p strand so far. */
    void fence(std::uint32_t strand);

    /** fence() every strand: on return the pool is idle. */
    void fenceAll();

    /**
     * Execute @p fn(lane) for every lane in [0, workerCount()), then
     * barrier: lane t is one item on strand t, so lanes run
     * concurrently and the caller runs some of them itself.
     */
    void run(const LaneFn &fn);

    /**
     * Resolve a configured worker count: a positive @p requested wins;
     * 0 defers to the FCOS_WORKERS environment variable (default 1 =
     * serial execution, today's single-thread semantics).
     */
    static std::uint32_t resolveCount(std::uint32_t requested);

    /** True when FCOS_FORCE_THREADS=1 demands one OS thread per lane. */
    static bool forceThreads();

    /**
     * Publish per-thread busy fractions (busy time / pool wall time)
     * as "host.pool.lane<i>.busy_frac" gauges (lane 0 is the
     * coordinator's helping) and the items posted to a pool with
     * spawned threads since the last publish into
     * "host.pool.dispatches". The busy and wall nanoseconds
     * accumulate live in "host.pool.lane<i>.busy_ns"
     * and "host.pool.wall_ns" (from the first item posted to an idle
     * pool to the fenceAll() that found it idle again), and the time
     * the coordinator spent blocked in wait()/fence() without an item
     * to run in "host.lanes.wait_ns". Host-clock derived, hence the
     * "host." prefix — excluded from deterministic renders. Serial
     * contexts only (e.g. after a drain). No-op unless metrics were on
     * when the pool was constructed.
     */
    void publishMetrics();

  private:
    struct Strand
    {
        std::deque<Work> items; ///< guarded by mutex_
        /** In ready_ or being run by some thread (mutex_). */
        bool queued = false;
        std::atomic<std::uint64_t> done{0}; ///< items run so far
        std::uint64_t posted = 0;           ///< coordinator only
        /** Posted items not yet handed to the threads (coordinator). */
        std::vector<Work> staged;
    };

    /**
     * Staged items handed to the threads in one lock round. While
     * every thread is busy, posts are staged rather than queued one by
     * one, so a burst (a bulk read launches a page per plane at submit)
     * costs a lock per batch; a post finding an idle thread, and every
     * wait(), hands all staged items over at once.
     */
    static constexpr std::uint32_t kFlushItems = 16;

    Strand &strand(std::uint32_t s);
    void threadMain(std::uint32_t lane);
    /** Hand every staged item to the threads (coordinator). */
    void flush();
    /** Under mutex_: unqueue a ready strand — @p prefer if it is
     *  ready — and move its next item into @p work. @return the
     *  strand, or null if none is ready. */
    Strand *takeLocked(Strand *prefer, Work &work);
    /** Under mutex_: count the item just run on @p s, and queue @p s
     *  again if it has more. */
    void finishLocked(Strand *s);
    /** Run @p work as @p lane, timed into the lane's busy counter when
     *  metrics are live. @return its host nanoseconds (0 untimed). */
    std::int64_t runTimed(std::uint32_t lane, Work &work);
    /** The coordinator runs one ready item — @p prefer's if it is
     *  ready. @return its nanoseconds (0 untimed), or -1 if none was
     *  ready. */
    std::int64_t help(Strand *prefer);

    std::uint32_t workers_;
    /** Spin before parking; false when threads outnumber cores. */
    bool spin_ = false;

    /** Metrics epoch at construction plus per-lane busy-nanosecond
     *  counters (Counter is relaxed-atomic: lanes bump concurrently),
     *  pool wall time and coordinator wait time. Empty/null when
     *  metrics are off. */
    std::uint64_t obs_epoch_ = 0;
    std::vector<obs::Counter *> lane_busy_;
    obs::Counter *wall_ = nullptr;
    obs::Counter *wait_ = nullptr;
    /** The pool holds posted work since open_since_ (coordinator). */
    bool open_ = false;
    std::chrono::steady_clock::time_point open_since_;
    std::uint64_t dispatched_ = 0;
    std::uint64_t pub_dispatched_ = 0;

    /** Strands by id, grown on first post (coordinator only; threads
     *  reach a strand through ready_, and its address never moves). */
    std::vector<std::unique_ptr<Strand>> strands_;
    /** Strands with staged items, and their count (coordinator). */
    std::vector<Strand *> staged_;
    std::uint32_t staged_items_ = 0;

    /** Strands with queued items that no thread is running. */
    std::mutex mutex_;
    std::deque<Strand *> ready_;
    /** ready_.size(), readable without the lock (spinning threads). */
    std::atomic<std::uint32_t> ready_count_{0};
    /** Spawned threads with no item to run (a hint for post()). */
    std::atomic<std::uint32_t> idle_{0};
    std::atomic<bool> stop_{false};
    std::uint32_t sleepers_ = 0;   ///< threads asleep on work_ (mutex_)
    bool waiter_parked_ = false;   ///< coordinator asleep on done_ (mutex_)
    std::condition_variable work_;
    std::condition_variable done_;

    /** Declared last: the threads use every member above. */
    std::vector<std::thread> threads_;
};

} // namespace fcos

#endif // FCOS_SIM_WORKER_POOL_H
