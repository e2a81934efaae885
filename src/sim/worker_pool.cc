#include "sim/worker_pool.h"

#include <chrono>
#include <cstdlib>

#include "util/log.h"

namespace fcos {

namespace {

std::uint32_t
envWorkerDefault()
{
    static const std::uint32_t value = [] {
        const char *s = std::getenv("FCOS_WORKERS");
        if (!s || !*s)
            return 1u;
        long v = std::strtol(s, nullptr, 10);
        if (v < 1)
            v = 1;
        if (v > 256)
            v = 256;
        return static_cast<std::uint32_t>(v);
    }();
    return value;
}

/** Tell the core this is a spin-wait (cheaper for an SMT sibling). */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/** Busy-wait until @p ready() holds or WorkerPool::kSpinBudget runs
 *  out. @return ready(). */
template <typename Pred>
bool
spinUntil(const Pred &ready)
{
    const auto deadline =
        std::chrono::steady_clock::now() + WorkerPool::kSpinBudget;
    for (;;) {
        for (int i = 0; i < 32; ++i) {
            if (ready())
                return true;
            cpuRelax();
        }
        if (std::chrono::steady_clock::now() >= deadline)
            return ready();
        std::this_thread::yield();
    }
}

} // namespace

std::uint32_t
WorkerPool::resolveCount(std::uint32_t requested)
{
    return requested > 0 ? requested : envWorkerDefault();
}

bool
WorkerPool::forceThreads()
{
    static const bool value = [] {
        const char *s = std::getenv("FCOS_FORCE_THREADS");
        return s && *s && *s != '0';
    }();
    return value;
}

WorkerPool::WorkerPool(std::uint32_t workers) : workers_(workers)
{
    fcos_assert(workers_ >= 1, "a pool needs at least one worker");
    std::uint32_t hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    // One OS thread per lane that can actually run concurrently; the
    // caller's thread serves stripe 0, so spawn (threads - 1).
    std::uint32_t phys =
        forceThreads() ? workers_ : std::min(workers_, hw);
    // A spinner on an oversubscribed host burns the timeslice of the
    // very thread it waits for: park straight away there instead.
    spin_ = phys <= hw;
    // Resolve the per-lane counters now, while construction is serial:
    // worker threads may only bump them (relaxed-atomic adds).
    if (obs::metricsOn()) {
        obs_epoch_ = obs::metricsEpoch();
        obs::Registry &m = obs::metrics();
        lane_busy_.reserve(workers_);
        for (std::uint32_t t = 0; t < workers_; ++t)
            lane_busy_.push_back(&m.counter(
                "host.pool.lane" + std::to_string(t) + ".busy_ns"));
        wall_ = &m.counter("host.pool.wall_ns");
    }
    for (std::uint32_t t = 1; t < phys; ++t)
        threads_.emplace_back([this, t] { threadMain(t); });
}

WorkerPool::~WorkerPool()
{
    {
        // Under the mutex, so a worker between its predicate check and
        // its wait cannot miss the notify.
        std::lock_guard<std::mutex> lk(mutex_);
        stop_ = true;
        start_.notify_all();
    }
    for (std::thread &t : threads_)
        t.join();
}

void
WorkerPool::runLane(const LaneFn &fn, std::uint32_t lane)
{
    if (obs::metricsLive(obs_epoch_)) {
        const auto t0 = std::chrono::steady_clock::now();
        fn(lane);
        lane_busy_[lane]->add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
    } else {
        fn(lane);
    }
}

void
WorkerPool::threadMain(std::uint32_t stripe)
{
    std::uint64_t seen = 0;
    const auto woken = [&] { return stop_ || generation_ != seen; };
    for (;;) {
        if (!(spin_ && spinUntil(woken))) {
            std::unique_lock<std::mutex> lk(mutex_);
            ++parked_;
            start_.wait(lk, woken);
            --parked_;
        }
        if (stop_)
            return;
        seen = generation_;
        const LaneFn &job = *job_;
        const std::uint32_t stride = threadCount();
        for (std::uint32_t lane = stripe; lane < workers_; lane += stride)
            runLane(job, lane);
        // The last worker out wakes the caller if it gave up spinning.
        if (--remaining_ == 0 && caller_parked_) {
            std::lock_guard<std::mutex> lk(mutex_);
            done_.notify_one();
        }
    }
}

void
WorkerPool::run(const LaneFn &fn)
{
    const bool mlive = obs::metricsLive(obs_epoch_);
    const auto w0 = mlive ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};
    if (mlive)
        ++runs_;
    if (threads_.empty()) {
        for (std::uint32_t lane = 0; lane < workers_; ++lane)
            runLane(fn, lane);
    } else {
        job_ = &fn;
        remaining_ = static_cast<std::uint32_t>(threads_.size());
        ++generation_; // publishes job_ and remaining_
        if (parked_ > 0) {
            std::lock_guard<std::mutex> lk(mutex_);
            start_.notify_all();
        }
        // The caller is stripe 0 of the round.
        const std::uint32_t stride = threadCount();
        for (std::uint32_t lane = 0; lane < workers_; lane += stride)
            runLane(fn, lane);
        const auto done = [&] { return remaining_ == 0; };
        if (!(spin_ && spinUntil(done))) {
            std::unique_lock<std::mutex> lk(mutex_);
            caller_parked_ = true;
            done_.wait(lk, done);
            caller_parked_ = false;
        }
        job_ = nullptr;
    }
    if (mlive) {
        wall_->add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - w0)
                .count()));
    }
}

void
WorkerPool::publishMetrics()
{
    if (!obs::metricsLive(obs_epoch_))
        return;
    obs::Registry &m = obs::metrics();
    m.counter("host.pool.dispatches").add(runs_ - pub_runs_);
    pub_runs_ = runs_;
    const std::uint64_t wall = wall_->value();
    if (wall == 0)
        return;
    for (std::uint32_t t = 0; t < workers_; ++t) {
        m.gauge("host.pool.lane" + std::to_string(t) + ".busy_frac")
            .set(static_cast<double>(lane_busy_[t]->value()) /
                 static_cast<double>(wall));
    }
}

} // namespace fcos
