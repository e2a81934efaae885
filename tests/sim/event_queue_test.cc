/**
 * @file
 * Event queue and facility tests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/worker_pool.h"
#include "util/rng.h"

// TU-wide allocation counter backing the SmallFn no-allocation
// assertions below: every global new/delete in this test binary ticks
// it, so a window where the count stays flat proves the event loop
// touched the heap not at all.
static std::atomic<std::uint64_t> g_heap_allocs{0};

static void *
countedAlloc(std::size_t n)
{
    ++g_heap_allocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc{};
}

void *
operator new(std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return countedAlloc(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace fcos {
namespace {

/** Per-event work estimates on either side of the dispatch gate. */
constexpr std::uint32_t kCheap = 1;
constexpr std::uint32_t kHeavy = EventQueue::kMinDispatchWork;

TEST(EventQueueTest, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
    EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueueTest, FifoTieBreakAtEqualTimes)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] {
        ++fired;
        q.scheduleAfter(5, [&] { ++fired; });
    });
    q.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 6u);
}

TEST(EventQueueTest, RunUntilStopsAtDeadline)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.schedule(20, [&] { ++fired; });
    q.runUntil(15);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, RunUntilAdvancesClockToDeadline)
{
    // Regression: runUntil used to leave now() at the last *executed*
    // event when later events remained queued — callers polling in
    // fixed steps saw a stale clock. The clock must always reach the
    // deadline.
    EventQueue q;
    q.schedule(10, [] {});
    q.schedule(20, [] {});
    EXPECT_EQ(q.runUntil(15), 15u);
    EXPECT_EQ(q.now(), 15u);
    EXPECT_EQ(q.pending(), 1u);
    // And with an empty queue it still advances.
    q.run();
    EXPECT_EQ(q.runUntil(40), 40u);
    EXPECT_EQ(q.now(), 40u);
}

TEST(EventQueueTest, ClockRulesMatchAtAnyWorkerCount)
{
    // Regression: the pool path used to read kTimeMax as "no
    // deadline" and leave now() at the last event, while the serial
    // path advanced it to kTimeMax. Both runUntil overloads now end
    // with the same clock rule; run() stops at the last event.
    for (std::uint32_t workers : {1u, 4u}) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        WorkerPool pool(workers);
        EventQueue q;
        q.scheduleSharded(5, 0, kHeavy, [] {}, [] {});
        q.scheduleSharded(5, 1, kHeavy, [] {}, [] {});
        q.schedule(9, [] {});
        EXPECT_EQ(q.runUntil(7, pool), 7u);
        q.run(pool);
        EXPECT_EQ(q.now(), 9u);
        q.schedule(12, [] {});
        EXPECT_EQ(q.runUntil(kTimeMax, pool), kTimeMax);
        EXPECT_EQ(q.now(), kTimeMax);
        EXPECT_EQ(q.pending(), 0u);
    }
}

TEST(EventQueueTest, HeapStaysValidUnderChurn)
{
    EventQueue q;
    Rng rng = Rng::seeded(7);
    int fired = 0;
    for (int i = 0; i < 200; ++i)
        q.schedule(rng.nextBounded(50), [&] { ++fired; });
    EXPECT_TRUE(q.heapIsValid());
    for (int i = 0; i < 50; ++i) {
        q.runOne();
        EXPECT_TRUE(q.heapIsValid());
        // Events scheduled mid-run keep the invariant too.
        q.scheduleAfter(rng.nextBounded(20), [&] { ++fired; });
        EXPECT_TRUE(q.heapIsValid());
    }
    q.run();
    EXPECT_EQ(fired, 250);
}

TEST(EventQueueTest, MergePreservesStreamOrderAndQueueOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(0); });
    // A large pre-ordered stream (exercises the heapify path) with
    // equal-time entries: they must run after the already-queued event
    // at t=5 and keep their relative order.
    std::vector<std::pair<Time, EventQueue::Callback>> stream;
    for (int i = 1; i <= 32; ++i)
        stream.emplace_back(5, [&order, i] { order.push_back(i); });
    q.merge(std::move(stream));
    EXPECT_TRUE(q.heapIsValid());
    q.run();
    ASSERT_EQ(order.size(), 33u);
    for (int i = 0; i <= 32; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, KeyHeapMatchesSortedReferenceUnderChurn)
{
    // schedule, runOne, runUntil and both merge paths (per-event pushes
    // and the Floyd heapify) interleaved at random, so payload slots are
    // freed and reused many times over. Events must run in (when, seq)
    // order — seq being the order they were handed to the queue — and
    // the key heap must stay valid with pending() exact after each step.
    EventQueue q;
    Rng rng = Rng::seeded(17);
    std::set<std::pair<Time, std::uint64_t>> ref; // (when, id) pending
    std::vector<std::uint64_t> ran, want;
    std::uint64_t next_id = 0;
    auto event = [&](std::uint64_t id) {
        return EventQueue::Callback([&ran, id] { ran.push_back(id); });
    };
    auto expectRun = [&](Time deadline) {
        while (!ref.empty() && ref.begin()->first <= deadline) {
            want.push_back(ref.begin()->second);
            ref.erase(ref.begin());
        }
    };
    int floyd_merges = 0;
    for (int step = 0; step < 3000; ++step) {
        const std::uint64_t op = rng.nextBounded(10);
        if (op < 4) {
            const Time when = q.now() + rng.nextBounded(40);
            ref.emplace(when, next_id);
            q.schedule(when, event(next_id++));
        } else if (op < 6) {
            const bool any = !ref.empty();
            if (any) {
                want.push_back(ref.begin()->second);
                ref.erase(ref.begin());
            }
            EXPECT_EQ(q.runOne(), any);
        } else if (op < 8) {
            const Time deadline = q.now() + rng.nextBounded(30);
            expectRun(deadline);
            EXPECT_EQ(q.runUntil(deadline), deadline);
        } else {
            // Streams of 8+ entries at least a quarter of the queue's
            // size take the Floyd path; shorter ones are pushed.
            const bool floyd = op == 9 && q.pending() <= 4 * 48;
            const std::size_t len = floyd ? 48 : 1 + rng.nextBounded(7);
            floyd_merges += floyd;
            std::vector<std::pair<Time, EventQueue::Callback>> stream;
            for (std::size_t i = 0; i < len; ++i) {
                const Time when = q.now() + rng.nextBounded(40);
                ref.emplace(when, next_id);
                stream.emplace_back(when, event(next_id++));
            }
            q.merge(std::move(stream));
        }
        ASSERT_EQ(ran, want) << "step " << step;
        ASSERT_TRUE(q.heapIsValid()) << "step " << step;
        ASSERT_EQ(q.pending(), ref.size()) << "step " << step;
    }
    EXPECT_GT(floyd_merges, 10);
    expectRun(kTimeMax);
    q.run();
    EXPECT_EQ(ran, want);
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.executed(), next_id);
}

TEST(EventQueueTest, ShardedEventsRunWorkThenCommitSerially)
{
    EventQueue q;
    std::vector<int> order;
    q.scheduleSharded(
        1, 0, kCheap, [&] { order.push_back(10); },
        [&] { order.push_back(11); });
    q.scheduleSharded(
        1, 1, kCheap, [&] { order.push_back(20); },
        [&] { order.push_back(21); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 21}));
}

// Drive the same randomized workload serially and on a pool; the
// commit order (the only externally visible order) must match exactly.
// Works mutate shard-local accumulators and record their observation
// into event-private storage, which the commit publishes — the same
// split the command scheduler uses (PendingOp::result). Every third
// event is heavy, so sub-batches fall on both sides of the dispatch
// gate.
std::vector<std::uint64_t>
shardedWorkloadTrace(std::uint32_t workers)
{
    EventQueue q;
    std::vector<std::uint64_t> trace;
    Rng rng = Rng::seeded(42);
    std::vector<std::uint64_t> slots(8, 0);
    auto submit = [&](Time when, std::uint32_t shard,
                      std::uint64_t mix, auto &self) -> void {
        auto res = std::make_shared<std::uint64_t>(0);
        q.scheduleSharded(
            when, shard, mix % 3 == 0 ? kHeavy : kCheap,
            [&slots, shard, mix, res] {
                slots[shard] = slots[shard] * 31 + mix;
                *res = slots[shard];
            },
            [&q, &trace, &rng, shard, res, self] {
                trace.push_back(*res);
                // Commits may schedule follow-ups, including same-time
                // ones (the wave's next sub-batch).
                if (trace.size() % 5 == 0)
                    self(q.now() + rng.nextBounded(2), shard, 0x9e37,
                         self);
            });
    };
    for (int i = 0; i < 64; ++i) {
        const std::uint32_t shard = rng.nextBounded(8);
        const Time when = rng.nextBounded(4); // heavy timestamp ties
        submit(when, shard, std::uint64_t(i), submit);
    }
    if (workers <= 1) {
        q.run();
    } else {
        WorkerPool pool(workers);
        q.run(pool);
    }
    return trace;
}

TEST(EventQueueTest, ParallelRunIsBitIdenticalToSerial)
{
    const std::vector<std::uint64_t> serial = shardedWorkloadTrace(1);
    EXPECT_EQ(shardedWorkloadTrace(2), serial);
    EXPECT_EQ(shardedWorkloadTrace(4), serial);
    EXPECT_EQ(shardedWorkloadTrace(7), serial);
}

// One wave at t=1 of sharded events on @p shards, each estimated at
// @p cost, run on a 4-lane pool or serially; each work records the
// thread it ran on, each commit its event's index.
struct WaveThreads
{
    std::vector<std::thread::id> workThreads;
    std::vector<std::size_t> commits;
    std::uint32_t poolThreads = 0;
};

WaveThreads
runOneWave(const std::vector<std::uint32_t> &shards, std::uint32_t cost,
           bool parallel)
{
    EventQueue q;
    WaveThreads out;
    out.workThreads.resize(shards.size());
    for (std::size_t i = 0; i < shards.size(); ++i) {
        std::thread::id *slot = &out.workThreads[i];
        q.scheduleSharded(
            1, shards[i], cost,
            [slot] { *slot = std::this_thread::get_id(); },
            [&out, i] { out.commits.push_back(i); });
    }
    if (parallel) {
        WorkerPool pool(4);
        out.poolThreads = pool.threadCount();
        q.run(pool);
    } else {
        q.run();
    }
    return out;
}

/** Works of @p wave that ran off the calling thread. */
std::size_t
offThread(const WaveThreads &wave)
{
    std::size_t n = 0;
    for (const std::thread::id &id : wave.workThreads)
        n += id != std::this_thread::get_id();
    return n;
}

TEST(EventQueueTest, OneLaneWaveRunsInlineOnTheCaller)
{
    // Shards 1, 5 and 9 all map to lane 1 of a 4-lane pool: the pool
    // could only run them serially, so they never leave the caller,
    // however heavy their estimate.
    const std::vector<std::uint32_t> shards = {1, 5, 9, 1};
    const WaveThreads par = runOneWave(shards, kHeavy, true);
    EXPECT_EQ(offThread(par), 0u);
    EXPECT_EQ(par.commits, runOneWave(shards, kHeavy, false).commits);
}

TEST(EventQueueTest, CheapMultiLaneWaveRunsInlineUnlessThreadsAreForced)
{
    // Two lanes, but the summed estimate stops one short of the gate:
    // a pool round would cost more than the work, so the wave stays on
    // the caller — unless FCOS_FORCE_THREADS=1, which dispatches every
    // multi-lane sub-batch so the threads tiers keep crossing threads.
    const std::vector<std::uint32_t> shards = {0, 1};
    const WaveThreads par =
        runOneWave(shards, kHeavy / 2 - 1, true);
    if (WorkerPool::forceThreads()) {
        EXPECT_GT(offThread(par), 0u);
    } else {
        EXPECT_EQ(offThread(par), 0u);
    }
    EXPECT_EQ(par.commits,
              runOneWave(shards, kHeavy / 2 - 1, false).commits);
}

TEST(EventQueueTest, MultiLaneWaveStillRunsOnThePool)
{
    // Two lanes whose estimates sum exactly to the gate, then all four
    // lanes of heavy work. With more than one pool thread (always
    // under FCOS_FORCE_THREADS=1) the lanes not striped onto the
    // caller run on worker threads.
    for (const auto &[shards, cost] :
         {std::pair{std::vector<std::uint32_t>{0, 1}, kHeavy / 2},
          std::pair{std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6, 7},
                    kHeavy}}) {
        SCOPED_TRACE(std::to_string(shards.size()) + " events");
        const WaveThreads par = runOneWave(shards, cost, true);
        if (WorkerPool::forceThreads()) {
            EXPECT_EQ(par.poolThreads, 4u);
        }
        if (par.poolThreads > 1) {
            EXPECT_GT(offThread(par), 0u);
        } else {
            EXPECT_EQ(offThread(par), 0u);
        }
        EXPECT_EQ(par.commits, runOneWave(shards, cost, false).commits);
    }
}

TEST(EventQueueTest, InlineAndDispatchedWavesAreCounted)
{
    obs::ScopedCapture capture(/*trace=*/false, /*metrics=*/true);
    EventQueue q;
    WorkerPool pool(4);
    // t=1: one lane (shards 2, 6); t=2: two lanes of heavy work
    // (shards 0, 1); t=3: two lanes below the gate; t=4: commit-only,
    // which is neither.
    for (std::uint32_t shard : {2u, 6u})
        q.scheduleSharded(1, shard, kHeavy, [] {}, [] {});
    for (std::uint32_t shard : {0u, 1u})
        q.scheduleSharded(2, shard, kHeavy, [] {}, [] {});
    for (std::uint32_t shard : {0u, 1u})
        q.scheduleSharded(3, shard, kCheap, [] {}, [] {});
    q.schedule(4, [] {});
    q.run(pool);
    q.publishMetrics();
    pool.publishMetrics();
    obs::Registry &m = obs::metrics();
    const std::uint64_t dispatched = pool.threadCount() <= 1     ? 0
                                     : WorkerPool::forceThreads() ? 2
                                                                  : 1;
    EXPECT_EQ(m.counter("host.pool.inline_waves").value(), 3 - dispatched);
    EXPECT_EQ(m.counter("host.pool.dispatches").value(), dispatched);
}

TEST(EventQueueTest, SteadyStateEventsDoNotTouchTheHeap)
{
    // Satellite guarantee of the SmallFn payload switch: once the
    // queue's backing vector has its capacity, scheduling and running
    // events with engine-typical captures (a this-pointer, indices, a
    // shared_ptr — up to the inline window) performs zero allocations.
    EventQueue q;
    for (int i = 0; i < 128; ++i)
        q.schedule(static_cast<Time>(i), [] {});
    q.run();

    auto tally = std::make_shared<std::uint64_t>(0);
    const EventQueue *self = &q;
    const std::uint64_t before = g_heap_allocs.load();
    for (int i = 0; i < 64; ++i) {
        // 32-byte capture: shared_ptr + pointer + two indices — the
        // shape of the scheduler's completion closures.
        q.schedule(static_cast<Time>(200 + i),
                   [tally, self, die = i, col = i + 1] {
                       *tally += self->now() + std::uint64_t(die + col);
                   });
    }
    // Sharded two-phase events ride the same payload type.
    q.scheduleSharded(
        300, 0, kCheap, [tally] { *tally += 1; },
        [tally] { *tally += 2; });
    q.run();
    EXPECT_EQ(g_heap_allocs.load() - before, 0u)
        << "steady-state event churn must not allocate";
    EXPECT_GT(*tally, 0u);
}

TEST(EventQueueTest, OversizedCapturesFallBackToTheHeap)
{
    // Captures beyond the inline window still work — they pay one
    // allocation at construction and none per move.
    EventQueue q;
    q.schedule(0, [] {});
    q.run();
    struct Huge
    {
        std::uint64_t pad[12]; // 96 bytes > kSmallFnCapacity
    };
    Huge h{};
    h.pad[3] = 7;
    std::uint64_t out = 0;
    const std::uint64_t before = g_heap_allocs.load();
    q.schedule(1, [h, &out] { out = h.pad[3]; });
    EXPECT_EQ(g_heap_allocs.load() - before, 1u);
    q.run();
    EXPECT_EQ(out, 7u);
    EXPECT_EQ(g_heap_allocs.load() - before, 1u);
}

TEST(EventQueueTest, SchedulingIntoThePastPanics)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.run();
    EXPECT_DEATH(q.schedule(5, [] {}), "past");
}

TEST(FacilityTest, SerializesOverlappingBookings)
{
    Facility f("bus");
    EXPECT_EQ(f.acquire(0, 10), 10u);
    EXPECT_EQ(f.acquire(0, 10), 20u);  // queued behind the first
    EXPECT_EQ(f.acquire(5, 10), 30u);  // still queued
    EXPECT_EQ(f.acquire(100, 10), 110u); // idle gap: starts at 100
    EXPECT_EQ(f.busyTime(), 40u);
    EXPECT_EQ(f.grants(), 4u);
}

TEST(FacilityTest, ResetClearsState)
{
    Facility f;
    f.acquire(0, 50);
    f.reset();
    EXPECT_EQ(f.readyAt(), 0u);
    EXPECT_EQ(f.busyTime(), 0u);
    EXPECT_EQ(f.acquire(0, 5), 5u);
}

TEST(FacilityTest, PipelineThroughEventQueue)
{
    // Two-stage pipeline: stage A (10 each) feeds stage B (15 each);
    // three jobs; makespan = 10 + 3*15 = 55.
    EventQueue q;
    Facility a("A"), b("B");
    Time last = 0;
    for (int i = 0; i < 3; ++i) {
        Time done_a = a.acquire(0, 10);
        q.schedule(done_a, [&q, &b, &last] {
            Time done_b = b.acquire(q.now(), 15);
            q.schedule(done_b, [&q, &last] { last = q.now(); });
        });
    }
    q.run();
    EXPECT_EQ(last, 55u);
}

} // namespace
} // namespace fcos
