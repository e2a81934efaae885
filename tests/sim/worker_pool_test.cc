/**
 * @file
 * WorkerPool tests: lane rounds, reuse across rounds, the
 * spin-then-park handoff under back-to-back rounds, idle gaps and
 * destruction in either state; and the strands the engine runs die
 * work on — posting order per strand at any thread count, the
 * coordinator running queued items while it waits, fences that
 * publish every item's writes, and the host counters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "sim/worker_pool.h"
#include "util/rng.h"

namespace fcos {
namespace {

TEST(WorkerPoolTest, RunsEveryLaneExactlyOnce)
{
    WorkerPool pool(4);
    EXPECT_EQ(pool.workerCount(), 4u);
    std::vector<std::atomic<int>> hits(4);
    pool.run([&hits](std::uint32_t lane) { ++hits[lane]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPoolTest, ReusableAcrossManyRounds)
{
    WorkerPool pool(3);
    std::vector<std::atomic<std::uint64_t>> sums(3);
    for (std::uint64_t round = 1; round <= 100; ++round)
        pool.run([&sums, round](std::uint32_t lane) {
            sums[lane] += round;
        });
    for (const auto &s : sums)
        EXPECT_EQ(s.load(), 5050u);
}

TEST(WorkerPoolTest, MoreLanesThanCoresStillCoversAllLanes)
{
    // Lanes are logical: even a 1-core host (threads_ empty, inline
    // execution) must run all 16 lanes.
    WorkerPool pool(16);
    std::atomic<std::uint32_t> mask{0};
    pool.run([&mask](std::uint32_t lane) { mask |= 1u << lane; });
    EXPECT_EQ(mask.load(), 0xFFFFu);
    EXPECT_LE(pool.threadCount(), 16u);
    EXPECT_GE(pool.threadCount(), 1u);
}

// Longer than the spin budget, so idle threads are certainly parked.
constexpr auto kPastSpin = WorkerPool::kSpinBudget * 20;

TEST(WorkerPoolTest, BackToBackRoundsOnTheSpinPath)
{
    // Rounds microseconds apart: workers observe each one while still
    // spinning from the last.
    constexpr std::uint64_t kRounds = 20'000;
    WorkerPool pool(4);
    std::vector<std::atomic<std::uint64_t>> sums(4);
    for (std::uint64_t round = 1; round <= kRounds; ++round)
        pool.run([&sums, round](std::uint32_t lane) {
            sums[lane] += round;
        });
    for (const auto &s : sums)
        EXPECT_EQ(s.load(), kRounds * (kRounds + 1) / 2);
}

TEST(WorkerPoolTest, RoundsAfterIdleGapsWakeParkedWorkers)
{
    // Alternate bursts (spin path) with gaps past the spin budget
    // (parked path), so every round state a worker can be in when a
    // round is published gets exercised.
    WorkerPool pool(4);
    std::vector<std::atomic<std::uint64_t>> sums(4);
    std::uint64_t expect = 0;
    for (std::uint64_t burst = 1; burst <= 20; ++burst) {
        for (std::uint64_t k = 0; k < burst; ++k) {
            pool.run([&sums, burst](std::uint32_t lane) {
                sums[lane] += burst;
            });
            expect += burst;
        }
        std::this_thread::sleep_for(kPastSpin);
    }
    for (const auto &s : sums)
        EXPECT_EQ(s.load(), expect);
}

TEST(WorkerPoolTest, SlowLaneParksTheCallerUntilTheBarrier)
{
    // A lane outlasting the spin budget makes the caller park on the
    // barrier; the last worker out must wake it.
    WorkerPool pool(4);
    std::vector<std::atomic<int>> hits(4);
    for (int round = 0; round < 5; ++round)
        pool.run([&hits](std::uint32_t lane) {
            if (lane == 3)
                std::this_thread::sleep_for(kPastSpin);
            ++hits[lane];
        });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 5);
}

TEST(WorkerPoolTest, OversubscribedPoolRunsOnParkingAlone)
{
    // More lanes than cores: under FCOS_FORCE_THREADS=1 that is more
    // threads than cores, so the pool never spins and every round goes
    // through the condition variables.
    const std::uint32_t lanes =
        2 * std::max(1u, std::thread::hardware_concurrency()) + 1;
    constexpr std::uint64_t kRounds = 500;
    WorkerPool pool(lanes);
    std::vector<std::atomic<std::uint64_t>> sums(lanes);
    for (std::uint64_t round = 1; round <= kRounds; ++round)
        pool.run([&sums, round](std::uint32_t lane) {
            sums[lane] += round;
        });
    for (const auto &s : sums)
        EXPECT_EQ(s.load(), kRounds * (kRounds + 1) / 2);
}

TEST(WorkerPoolTest, DestroysWhileWorkersSpinOrPark)
{
    std::atomic<std::uint64_t> total{0};
    for (int i = 0; i < 50; ++i) {
        // Destroyed right after a round: workers are still spinning.
        WorkerPool pool(4);
        pool.run([&total](std::uint32_t lane) { total += lane + 1; });
    }
    for (int i = 0; i < 5; ++i) {
        // Destroyed after an idle gap: workers are parked.
        WorkerPool pool(4);
        pool.run([&total](std::uint32_t lane) { total += lane + 1; });
        std::this_thread::sleep_for(kPastSpin);
    }
    for (int i = 0; i < 5; ++i) {
        // Never ran a round: workers parked from the start.
        WorkerPool pool(4);
        std::this_thread::sleep_for(kPastSpin);
    }
    EXPECT_EQ(total.load(), 55u * 10u);
}

// A randomized stream of items over 8 strands, with waits on random
// tickets mixed in: each item folds its mix into its strand's plain
// (non-atomic) accumulator and records what it saw. Posting order per
// strand fixes every observation, whatever thread ran the item.
std::vector<std::uint64_t>
strandTrace(std::uint32_t workers)
{
    constexpr std::uint32_t kStrands = 8;
    constexpr std::size_t kItems = 2'000;
    WorkerPool pool(workers);
    std::vector<std::uint64_t> acc(kStrands, 0);
    std::vector<std::uint64_t> seen(kItems, 0);
    Rng rng = Rng::seeded(42);
    for (std::size_t i = 0; i < kItems; ++i) {
        const std::uint32_t s =
            static_cast<std::uint32_t>(rng.nextBounded(kStrands));
        const std::uint64_t ticket = pool.post(s, [&acc, &seen, s, i] {
            acc[s] = acc[s] * 31 + i;
            seen[i] = acc[s];
        });
        if (rng.nextBounded(16) == 0) {
            pool.wait(s, ticket);
            // The wait publishes the item's writes to the caller.
            EXPECT_EQ(seen[i], acc[s]);
        }
    }
    pool.fenceAll();
    seen.insert(seen.end(), acc.begin(), acc.end());
    return seen;
}

TEST(WorkerPoolTest, StrandsRunInPostingOrderAtAnyThreadCount)
{
    const std::vector<std::uint64_t> serial = strandTrace(1);
    EXPECT_EQ(strandTrace(2), serial);
    EXPECT_EQ(strandTrace(4), serial);
    EXPECT_EQ(strandTrace(7), serial);
}

TEST(WorkerPoolTest, FenceAllPublishesEveryItemsWrites)
{
    // Plain writes on the strands, read by the caller after the fence:
    // the fence is the only synchronization (TSan checks it).
    WorkerPool pool(4);
    std::vector<std::vector<std::uint64_t>> out(4);
    for (std::uint64_t round = 0; round < 50; ++round) {
        for (std::uint32_t s = 0; s < 4; ++s)
            pool.post(s, [&out, s, round] { out[s].push_back(round); });
    }
    pool.fenceAll();
    for (const auto &v : out) {
        ASSERT_EQ(v.size(), 50u);
        for (std::uint64_t r = 0; r < 50; ++r)
            EXPECT_EQ(v[r], r);
    }
}

TEST(WorkerPoolTest, WaitingCoordinatorRunsQueuedItems)
{
    // Occupy every spawned thread with a blocker, then wait for an item
    // no thread is free to take: the waiting caller must run it. A
    // one-thread pool runs everything inline at post, on the caller too.
    WorkerPool pool(4);
    const std::uint32_t spawned = pool.threadCount() - 1;
    std::atomic<std::uint32_t> started{0};
    std::atomic<bool> release{false};
    for (std::uint32_t b = 0; b < spawned; ++b) {
        pool.post(1 + b, [&] {
            ++started;
            while (!release)
                std::this_thread::yield();
        });
    }
    while (started < spawned)
        std::this_thread::yield();
    std::thread::id ran_on;
    const std::uint64_t ticket =
        pool.post(0, [&ran_on] { ran_on = std::this_thread::get_id(); });
    pool.wait(0, ticket);
    EXPECT_EQ(ran_on, std::this_thread::get_id());
    release = true;
    pool.fenceAll();
}

TEST(WorkerPoolTest, ItemsLeaveTheCoordinatorOnlyWithThreads)
{
    // Under FCOS_FORCE_THREADS=1 a 4-worker pool has 4 threads, so some
    // of many slow items run off the caller; with one thread, none do.
    WorkerPool pool(4);
    if (WorkerPool::forceThreads()) {
        EXPECT_EQ(pool.threadCount(), 4u);
    }
    std::vector<std::thread::id> ran(32);
    for (std::uint32_t i = 0; i < ran.size(); ++i) {
        pool.post(i % 8, [&ran, i] {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            ran[i] = std::this_thread::get_id();
        });
    }
    pool.fenceAll();
    std::size_t off = 0;
    for (const std::thread::id &id : ran)
        off += id != std::this_thread::get_id();
    if (pool.threadCount() > 1) {
        EXPECT_GT(off, 0u);
    } else {
        EXPECT_EQ(off, 0u);
    }
}

TEST(WorkerPoolTest, HostCountersCoverDispatchesBusyAndWallTime)
{
    obs::ScopedCapture capture(/*trace=*/false, /*metrics=*/true);
    WorkerPool pool(4);
    for (std::uint32_t i = 0; i < 16; ++i) {
        pool.post(i % 4, [] {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        });
    }
    pool.fenceAll();
    pool.publishMetrics();
    obs::Registry &m = obs::metrics();
    const bool threads = pool.threadCount() > 1;
    EXPECT_EQ(m.counter("host.pool.dispatches").value(), threads ? 16u : 0u);
    std::uint64_t busy = 0;
    for (std::uint32_t l = 0; l < 4; ++l)
        busy += m.counter("host.pool.lane" + std::to_string(l) + ".busy_ns")
                    .value();
    EXPECT_GE(busy, 16u * 100'000u);
    if (threads) {
        EXPECT_GT(m.counter("host.pool.wall_ns").value(), 0u);
    }
}

TEST(WorkerPoolTest, ResolveCountPrefersExplicitRequest)
{
    EXPECT_EQ(WorkerPool::resolveCount(3), 3u);
    EXPECT_EQ(WorkerPool::resolveCount(1), 1u);
    // 0 falls back to the FCOS_WORKERS environment default (>= 1).
    EXPECT_GE(WorkerPool::resolveCount(0), 1u);
}

} // namespace
} // namespace fcos
