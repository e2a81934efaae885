/**
 * @file
 * WorkerPool tests: lane assignment, striping, reuse across rounds, and
 * the spin-then-park handoff under back-to-back rounds, idle gaps and
 * destruction in either state.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "sim/worker_pool.h"

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

TEST(WorkerPoolTest, ResolveCountPrefersExplicitRequest)
{
    EXPECT_EQ(WorkerPool::resolveCount(3), 3u);
    EXPECT_EQ(WorkerPool::resolveCount(1), 1u);
    // 0 falls back to the FCOS_WORKERS environment default (>= 1).
    EXPECT_GE(WorkerPool::resolveCount(0), 1u);
}

} // namespace
} // namespace fcos
