#include "sim/worker_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "util/log.h"

namespace fcos {

namespace {

using Clock = std::chrono::steady_clock;

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
    const auto deadline = Clock::now() + WorkerPool::kSpinBudget;
    for (;;) {
        for (int i = 0; i < 32; ++i) {
            if (ready())
                return true;
            cpuRelax();
        }
        if (Clock::now() >= deadline)
            return ready();
        std::this_thread::yield();
    }
}

std::int64_t
nsSince(Clock::time_point t0)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0)
        .count();
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
    // One OS thread per worker that can actually run concurrently; the
    // coordinator is one of them, so spawn (threads - 1).
    std::uint32_t phys =
        forceThreads() ? workers_ : std::min(workers_, hw);
    // A spinner on an oversubscribed host burns the timeslice of the
    // very thread it waits for: park straight away there instead.
    spin_ = phys <= hw;
    // Resolve the counters now, while construction is serial: threads
    // may only bump them (relaxed-atomic adds).
    if (obs::metricsOn()) {
        obs_epoch_ = obs::metricsEpoch();
        obs::Registry &m = obs::metrics();
        lane_busy_.reserve(workers_);
        for (std::uint32_t t = 0; t < workers_; ++t)
            lane_busy_.push_back(&m.counter(
                "host.pool.lane" + std::to_string(t) + ".busy_ns"));
        wall_ = &m.counter("host.pool.wall_ns");
        wait_ = &m.counter("host.lanes.wait_ns");
    }
    idle_ = phys - 1;
    for (std::uint32_t t = 1; t < phys; ++t)
        threads_.emplace_back([this, t] { threadMain(t); });
}

WorkerPool::~WorkerPool()
{
    fenceAll();
    {
        // Under the mutex, so a thread between its predicate check and
        // its wait cannot miss the notify.
        std::lock_guard<std::mutex> lk(mutex_);
        stop_ = true;
        work_.notify_all();
    }
    for (std::thread &t : threads_)
        t.join();
}

WorkerPool::Strand &
WorkerPool::strand(std::uint32_t s)
{
    while (strands_.size() <= s)
        strands_.push_back(std::make_unique<Strand>());
    return *strands_[s];
}

WorkerPool::Strand *
WorkerPool::takeLocked(Strand *prefer, Work &work)
{
    if (ready_.empty())
        return nullptr;
    auto it = ready_.begin();
    if (prefer) {
        auto p = std::find(ready_.begin(), ready_.end(), prefer);
        if (p != ready_.end())
            it = p;
    }
    Strand *s = *it;
    ready_.erase(it);
    --ready_count_;
    // The strand stays queued while its item runs, so no other thread
    // can start its next item before this one finished.
    work = std::move(s->items.front());
    s->items.pop_front();
    return s;
}

void
WorkerPool::finishLocked(Strand *s)
{
    s->done.fetch_add(1, std::memory_order_release);
    if (s->items.empty()) {
        s->queued = false;
    } else {
        ready_.push_back(s);
        ++ready_count_;
        if (sleepers_ > 0)
            work_.notify_one();
    }
    if (waiter_parked_)
        done_.notify_one();
}

std::int64_t
WorkerPool::runTimed(std::uint32_t lane, Work &work)
{
    if (!obs::metricsLive(obs_epoch_)) {
        work();
        work = nullptr;
        return 0;
    }
    const Clock::time_point t0 = Clock::now();
    work();
    work = nullptr;
    const std::int64_t ns = nsSince(t0);
    lane_busy_[lane]->add(static_cast<std::uint64_t>(ns));
    return ns;
}

std::int64_t
WorkerPool::help(Strand *prefer)
{
    Work work;
    Strand *s = nullptr;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        s = takeLocked(prefer, work);
    }
    if (!s)
        return -1;
    const std::int64_t ns = runTimed(0, work);
    std::lock_guard<std::mutex> lk(mutex_);
    finishLocked(s);
    return ns;
}

void
WorkerPool::threadMain(std::uint32_t lane)
{
    const auto woken = [this] { return stop_ || ready_count_ > 0; };
    Strand *ran = nullptr;
    bool idle = true; // counted in idle_ by the constructor
    for (;;) {
        // Finishing one item and taking the next share a lock round.
        Work work;
        Strand *s = nullptr;
        {
            std::lock_guard<std::mutex> lk(mutex_);
            if (ran)
                finishLocked(ran);
            s = takeLocked(nullptr, work);
        }
        ran = s;
        if (s) {
            if (idle) {
                idle = false;
                --idle_;
            }
            runTimed(lane, work);
            continue;
        }
        if (!idle) {
            idle = true;
            ++idle_;
        }
        if (stop_)
            return;
        if (!(spin_ && spinUntil(woken))) {
            std::unique_lock<std::mutex> lk(mutex_);
            ++sleepers_;
            work_.wait(lk, [this] { return stop_ || !ready_.empty(); });
            --sleepers_;
        }
    }
}

void
WorkerPool::flush()
{
    if (staged_.empty())
        return;
    std::lock_guard<std::mutex> lk(mutex_);
    std::uint32_t woken = 0;
    for (Strand *s : staged_) {
        for (Work &w : s->staged)
            s->items.push_back(std::move(w));
        s->staged.clear();
        if (!s->queued) {
            s->queued = true;
            ready_.push_back(s);
            ++ready_count_;
            if (woken < sleepers_) {
                ++woken;
                work_.notify_one();
            }
        }
    }
    staged_.clear();
    staged_items_ = 0;
}

std::uint64_t
WorkerPool::post(std::uint32_t id, Work work)
{
    Strand &s = strand(id);
    const std::uint64_t ticket = ++s.posted;
    if (threads_.empty()) {
        runTimed(0, work);
        s.done.store(ticket, std::memory_order_relaxed);
        return ticket;
    }
    if (!open_ && obs::metricsLive(obs_epoch_)) {
        open_ = true;
        open_since_ = Clock::now();
    }
    ++dispatched_;
    if (s.staged.empty())
        staged_.push_back(&s);
    s.staged.push_back(std::move(work));
    if (++staged_items_ >= kFlushItems || idle_ > 0)
        flush();
    return ticket;
}

void
WorkerPool::wait(std::uint32_t id, std::uint64_t ticket)
{
    if (ticket == 0)
        return;
    fcos_assert(id < strands_.size() && ticket <= strands_[id]->posted,
                "wait for an item never posted");
    Strand &s = *strands_[id];
    const auto done = [&s, ticket] {
        return s.done.load(std::memory_order_acquire) >= ticket;
    };
    if (done())
        return;
    flush();
    const bool timed = obs::metricsLive(obs_epoch_);
    const Clock::time_point t0 = timed ? Clock::now() : Clock::time_point{};
    std::int64_t helped = 0;
    while (!done()) {
        // Help first: the awaited strand's next item if it is queued,
        // else anyone's.
        const std::int64_t ns = help(&s);
        if (ns >= 0) {
            helped += ns;
            continue;
        }
        // Nothing queued: the awaited item runs on another thread.
        const auto woken = [&] { return done() || ready_count_ > 0; };
        if (spin_ && spinUntil(woken))
            continue;
        std::unique_lock<std::mutex> lk(mutex_);
        waiter_parked_ = true;
        done_.wait(lk, [&] { return done() || !ready_.empty(); });
        waiter_parked_ = false;
    }
    if (timed)
        wait_->add(static_cast<std::uint64_t>(
            std::max<std::int64_t>(0, nsSince(t0) - helped)));
}

void
WorkerPool::fence(std::uint32_t id)
{
    if (id < strands_.size())
        wait(id, strands_[id]->posted);
}

void
WorkerPool::fenceAll()
{
    for (std::uint32_t id = 0; id < strands_.size(); ++id)
        fence(id);
    if (open_) {
        open_ = false;
        if (obs::metricsLive(obs_epoch_))
            wall_->add(static_cast<std::uint64_t>(nsSince(open_since_)));
    }
}

void
WorkerPool::run(const LaneFn &fn)
{
    for (std::uint32_t lane = 0; lane < workers_; ++lane)
        post(lane, [&fn, lane] { fn(lane); });
    fenceAll();
}

void
WorkerPool::publishMetrics()
{
    if (!obs::metricsLive(obs_epoch_))
        return;
    obs::Registry &m = obs::metrics();
    m.counter("host.pool.dispatches").add(dispatched_ - pub_dispatched_);
    pub_dispatched_ = dispatched_;
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
