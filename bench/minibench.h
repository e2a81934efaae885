/**
 * @file
 * Drop-in timing harness for the microbenchmarks: uses Google
 * Benchmark when the build found it (FCOS_HAVE_GOOGLE_BENCHMARK),
 * otherwise provides a minimal vendored implementation of the subset
 * the benches use — State with `for (auto _ : state)`, range(),
 * SetItemsProcessed / SetBytesProcessed / SetLabel / SkipWithError
 * (called before the loop), DoNotOptimize,
 * ClobberMemory, BENCHMARK() with ->Arg() chaining, and
 * BENCHMARK_MAIN().
 *
 * The fallback keeps bench_micro_engine building and running
 * everywhere instead of silently disappearing from the build (ROADMAP
 * open item). It is a measurement convenience, not a statistics
 * engine: each benchmark runs for a fixed wall-clock budget and
 * reports mean ns/iteration plus derived items/bytes rates.
 */

#ifndef FCOS_BENCH_MINIBENCH_H
#define FCOS_BENCH_MINIBENCH_H

#if defined(FCOS_HAVE_GOOGLE_BENCHMARK)

#include <benchmark/benchmark.h>

#else // vendored fallback

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace benchmark {

class State
{
  public:
    explicit State(std::vector<std::int64_t> args)
        : args_(std::move(args))
    {}

    /** Argument @p i of the ->Arg() chain. */
    std::int64_t range(std::size_t i = 0) const
    {
        return i < args_.size() ? args_[i] : 0;
    }

    std::uint64_t iterations() const { return iters_; }

    void SetItemsProcessed(std::int64_t n) { items_ = n; }
    void SetBytesProcessed(std::int64_t n) { bytes_ = n; }
    void SetLabel(const std::string &label) { label_ = label; }
    /** Skip this run; call it before the loop and return. */
    void SkipWithError(const std::string &msg) { error_ = msg; }

    // --- `for (auto _ : state)` support ---
    struct Value
    {
        ~Value() {} // non-trivial: silences unused-variable warnings
    };
    struct Iterator
    {
        State *state;
        bool operator!=(const Iterator &) const
        {
            return state->keepRunning();
        }
        void operator++() {}
        Value operator*() const { return Value{}; }
    };
    Iterator begin()
    {
        start_ = Clock::now();
        iters_ = 0;
        return Iterator{this};
    }
    Iterator end() { return Iterator{this}; }

    double elapsedSeconds() const
    {
        return std::chrono::duration<double>(Clock::now() - start_)
            .count();
    }
    std::int64_t itemsProcessed() const { return items_; }
    std::int64_t bytesProcessed() const { return bytes_; }
    const std::string &label() const { return label_; }
    const std::string &error() const { return error_; }

  private:
    using Clock = std::chrono::steady_clock;

    bool keepRunning()
    {
        if (iters_ == 0) {
            ++iters_;
            return true;
        }
        // Re-check the clock only every few iterations once fast.
        if ((iters_ & check_mask_) == 0) {
            double s = elapsedSeconds();
            if (s >= kBudgetSeconds || iters_ >= kMaxIterations)
                return false;
            if (s < kBudgetSeconds / 8 && check_mask_ < 0xFF)
                check_mask_ = (check_mask_ << 1) | 1;
        }
        ++iters_;
        return true;
    }

    static constexpr double kBudgetSeconds = 0.1;
    static constexpr std::uint64_t kMaxIterations = 50'000'000;

    std::vector<std::int64_t> args_;
    std::uint64_t iters_ = 0;
    std::uint64_t check_mask_ = 0;
    std::int64_t items_ = 0;
    std::int64_t bytes_ = 0;
    std::string label_;
    std::string error_;
    Clock::time_point start_{};
};

template <typename T>
inline void
DoNotOptimize(T const &value)
{
    asm volatile("" : : "r,m"(value) : "memory");
}

inline void
ClobberMemory()
{
    asm volatile("" : : : "memory");
}

namespace detail {

struct Registration
{
    std::string name;
    void (*fn)(State &);
    std::vector<std::vector<std::int64_t>> argSets;

    Registration *Arg(std::int64_t a)
    {
        argSets.push_back({a});
        return this;
    }
};

inline std::vector<Registration> &
registry()
{
    static std::vector<Registration> r;
    return r;
}

inline Registration *
registerBenchmark(const char *name, void (*fn)(State &))
{
    registry().push_back(Registration{name, fn, {}});
    return &registry().back();
}

inline void
runOne(const Registration &reg, const std::vector<std::int64_t> &args)
{
    State state(args);
    reg.fn(state);
    std::string label = reg.name;
    for (std::int64_t a : args)
        label += "/" + std::to_string(a);
    if (!state.error().empty()) {
        std::printf("%-40s skipped: %s\n", label.c_str(),
                    state.error().c_str());
        return;
    }
    double seconds = state.elapsedSeconds();
    double per_iter_ns = seconds * 1e9 /
                         static_cast<double>(
                             state.iterations() ? state.iterations() : 1);
    std::printf("%-40s %12.1f ns/iter %10llu iters", label.c_str(),
                per_iter_ns,
                static_cast<unsigned long long>(state.iterations()));
    if (state.itemsProcessed() > 0)
        std::printf("  %s",
                    ::fcos::bench::rateStr(
                        static_cast<double>(state.itemsProcessed()) /
                             seconds,
                         "items")
                        .c_str());
    if (state.bytesProcessed() > 0)
        std::printf("  %s",
                    ::fcos::bench::rateStr(
                        static_cast<double>(state.bytesProcessed()) /
                             seconds,
                         "B")
                        .c_str());
    if (!state.label().empty())
        std::printf("  %s", state.label().c_str());
    std::printf("\n");
}

inline int
runAll()
{
    std::printf("minibench (vendored fallback; install Google Benchmark "
                "for calibrated statistics)\n");
    std::printf("--------------------------------------------------------"
                "----------------------\n");
    for (const Registration &reg : registry()) {
        if (reg.argSets.empty()) {
            runOne(reg, {});
        } else {
            for (const auto &args : reg.argSets)
                runOne(reg, args);
        }
    }
    return 0;
}

} // namespace detail

} // namespace benchmark

#define BENCHMARK(fn)                                                       \
    static ::benchmark::detail::Registration *fcos_minibench_##fn =         \
        ::benchmark::detail::registerBenchmark(#fn, fn)

#define BENCHMARK_MAIN()                                                    \
    int main(int argc, char **argv)                                         \
    {                                                                       \
        ::fcos::bench::initObs(argc, argv);                                 \
        return ::benchmark::detail::runAll();                               \
    }

#endif // FCOS_HAVE_GOOGLE_BENCHMARK

#endif // FCOS_BENCH_MINIBENCH_H
