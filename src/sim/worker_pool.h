/**
 * @file
 * A fixed pool of host worker threads for sharded simulation work.
 *
 * The pool separates *logical workers* (deterministic shard lanes —
 * the number the simulation's partition is keyed on) from *physical
 * threads* (how many OS threads actually execute them). Lane contents
 * and lane-internal order are fixed by the caller, so results are
 * bit-identical whether the lanes run on 1 thread or 16: physical
 * thread count is a pure performance knob, never a semantics knob.
 *
 * On hosts with fewer cores than workers the pool spawns only as many
 * threads as can run concurrently (extra lanes are striped over them);
 * with a single usable thread it degenerates to inline execution with
 * zero synchronization cost. FCOS_FORCE_THREADS=1 forces one OS thread
 * per worker regardless of core count — the ThreadSanitizer tier uses
 * it so cross-thread synchronization is exercised even on small CI
 * hosts.
 *
 * The handoff spins, then parks. Rounds are published through atomics;
 * an idle worker (and the caller awaiting a round's barrier) busy-waits
 * for up to kSpinBudget before sleeping on a condition variable, and
 * run() pays for a futex wake only when some worker actually parked.
 * Back-to-back rounds — the sharded event queue's waves, microseconds
 * apart — thus never enter the kernel. An oversubscribed pool (more
 * threads than hardware_concurrency(), e.g. forced threads on a small
 * host) parks immediately instead, so it never spins against the very
 * thread it waits for.
 */

#ifndef FCOS_SIM_WORKER_POOL_H
#define FCOS_SIM_WORKER_POOL_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.h"

namespace fcos {

class WorkerPool
{
  public:
    /** A job executed once per lane; lane is in [0, workerCount()). */
    using LaneFn = std::function<void(std::uint32_t lane)>;

    /**
     * How long an idle thread spins on the round state before parking.
     * A round handed off through condition-variable wakeups alone
     * measured 8-12 us on a 4-vCPU x86 host; a few of those covers
     * the gap between consecutive dispatched waves of one drain while
     * bounding the CPU an idle pool burns. Only waves worth a round
     * dispatch (EventQueue::kMinDispatchWork): a Table-1 drain's
     * multi-die waves, or under FCOS_FORCE_THREADS every multi-lane
     * wave. A serving drain on a tiny drive never wakes the pool.
     */
    static constexpr std::chrono::microseconds kSpinBudget{50};

    /** @param workers  number of logical worker lanes (>= 1). */
    explicit WorkerPool(std::uint32_t workers);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Logical worker lanes (the deterministic shard count). */
    std::uint32_t workerCount() const { return workers_; }

    /** Physical OS threads executing the lanes (informational). */
    std::uint32_t threadCount() const
    {
        return static_cast<std::uint32_t>(threads_.size()) + 1;
    }

    /**
     * Execute @p fn(lane) for every lane, then barrier. Lane t runs on
     * physical thread (t % threadCount()); each thread executes its
     * lanes in increasing order. The calling thread participates (it
     * runs stripe 0), so a 1-thread pool is plain inline execution.
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
     * Publish per-lane busy fractions (lane wall time / pool wall
     * time) as "host.pool.lane<i>.busy_frac" gauges and the run()
     * count since the last publish into "host.pool.dispatches".
     * Host-clock derived, hence the "host." prefix — excluded from
     * deterministic renders. Serial contexts only (e.g. after a
     * drain). No-op unless metrics were on when the pool was
     * constructed.
     */
    void publishMetrics();

  private:
    void threadMain(std::uint32_t stripe);
    /** Run @p fn(lane), timing it into the lane's busy counter when
     *  metrics are live (one branch otherwise). */
    void runLane(const LaneFn &fn, std::uint32_t lane);

    std::uint32_t workers_;
    /** Spin before parking; false when threads outnumber cores. */
    bool spin_ = false;

    /** Metrics epoch at construction plus per-lane busy-nanosecond
     *  counters (Counter is relaxed-atomic: lanes bump concurrently)
     *  and total run() wall time. Empty/0 when metrics are off. */
    std::uint64_t obs_epoch_ = 0;
    std::vector<obs::Counter *> lane_busy_;
    obs::Counter *wall_ = nullptr;
    std::uint64_t runs_ = 0;
    std::uint64_t pub_runs_ = 0;

    /** Round state. job_ is written before the generation_ bump that
     *  publishes it and read only after observing that bump. The
     *  atomics use the default seq_cst order: beyond release/acquire,
     *  the park handshake needs "I parked, then re-checked" and "I
     *  published, then checked for parkers" to be totally ordered, so
     *  one side always sees the other and no wakeup is lost. */
    const LaneFn *job_ = nullptr;
    std::atomic<std::uint64_t> generation_{0};
    std::atomic<std::uint32_t> remaining_{0};
    std::atomic<bool> stop_{false};
    /** Workers asleep on start_ / the caller asleep on done_. */
    std::atomic<std::uint32_t> parked_{0};
    std::atomic<bool> caller_parked_{false};

    /** Held only across park/wake, so a sleeper re-checks its
     *  predicate before any notify can slip past it. */
    std::mutex mutex_;
    std::condition_variable start_;
    std::condition_variable done_;

    /** Declared last: the threads use every member above. */
    std::vector<std::thread> threads_;
};

} // namespace fcos

#endif // FCOS_SIM_WORKER_POOL_H
