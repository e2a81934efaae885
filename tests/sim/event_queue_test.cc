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
#include <utility>
#include <vector>

#include "sim/event_queue.h"
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

TEST(EventQueueTest, KeyHeapMatchesSortedReferenceUnderChurn)
{
    // schedule (single events and bursts), runOne and runUntil
    // interleaved at random, so payload slots are freed and reused many
    // times over. Events must run in (when, seq)
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
            // A burst grows the slot table past its free list; the
            // runs above then free those slots for reuse.
            const std::size_t len = op == 9 ? 48 : 1 + rng.nextBounded(7);
            for (std::size_t i = 0; i < len; ++i) {
                const Time when = q.now() + rng.nextBounded(40);
                ref.emplace(when, next_id);
                q.schedule(when, event(next_id++));
            }
        }
        ASSERT_EQ(ran, want) << "step " << step;
        ASSERT_TRUE(q.heapIsValid()) << "step " << step;
        ASSERT_EQ(q.pending(), ref.size()) << "step " << step;
    }
    expectRun(kTimeMax);
    q.run();
    EXPECT_EQ(ran, want);
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.executed(), next_id);
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
