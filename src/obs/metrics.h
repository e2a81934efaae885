/**
 * @file
 * Metrics registry: named monotonic counters, gauges, and fixed
 * log2-bucket latency histograms.
 *
 * The registry is the numerical half of the observability layer
 * (obs/obs.h): components record what happened — events queued, op
 * latencies, chunk emissions, facility busy time — and the end-of-run
 * report renders everything through util::table.
 *
 * Threading contract: metric *registration* (counter()/gauge()/
 * histogram()/recordFacility()) and Gauge/Histogram updates happen
 * only in serial simulation contexts (construction, event callbacks on
 * the coordinator, drain). Counter::add is a relaxed atomic so worker
 * threads (WorkerPool lanes) may bump counters concurrently — the one
 * cross-thread update the layer permits.
 *
 * Naming convention: metrics derived from *host* wall-clock time are
 * prefixed "host." — they vary run to run and are excluded from
 * renderDeterministic(), which golden tests pin. Everything else is a
 * pure function of the simulated workload and is bit-stable.
 */

#ifndef FCOS_OBS_METRICS_H
#define FCOS_OBS_METRICS_H

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "util/units.h"

namespace fcos::obs {

/** Monotonic event counter (relaxed-atomic: safe from worker lanes). */
class Counter
{
  public:
    void add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-value gauge with a high-water mark (serial contexts only). */
class Gauge
{
  public:
    void set(double v)
    {
        value_ = v;
        if (v > max_)
            max_ = v;
    }

    /** Keep only the maximum ever observed. */
    void noteMax(double v)
    {
        if (v > max_)
            max_ = v;
        value_ = max_;
    }

    double value() const { return value_; }
    double max() const { return max_; }

  private:
    double value_ = 0.0;
    double max_ = 0.0;
};

/**
 * Fixed log2-bucket histogram for latency/size distributions. Bucket b
 * holds values in [2^(b-1), 2^b); bucket 0 holds zero. Quantiles are
 * bucket upper bounds — coarse, but allocation-free, O(1) to record,
 * and bit-deterministic (what golden snapshots need).
 */
class Histogram
{
  public:
    static constexpr int kBuckets = 65;

    void record(std::uint64_t v)
    {
        ++buckets_[v == 0 ? 0 : std::bit_width(v)];
        ++count_;
        sum_ += v;
        if (v < min_ || count_ == 1)
            min_ = v;
        if (v > max_)
            max_ = v;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }
    double mean() const
    {
        return count_ ? static_cast<double>(sum_) /
                            static_cast<double>(count_)
                      : 0.0;
    }

    /** Upper bound of the bucket where cumulative count reaches
     *  @p q (0 < q <= 1); 0 for an empty histogram. */
    std::uint64_t quantile(double q) const;

    std::uint64_t bucket(int b) const { return buckets_[b]; }

  private:
    std::uint64_t buckets_[kBuckets] = {};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

/** One serialized resource's cumulative occupancy (set at drain). */
struct FacilityUse
{
    Time busy = 0;          ///< accumulated busy time (simulated)
    std::uint64_t grants = 0;
    Time span = 0;          ///< timeline span the busy time lives in
};

class Registry
{
  public:
    /** Find-or-create by name; references stay valid for the
     *  registry's lifetime (values are heap-allocated). */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Overwrite a facility's cumulative utilization (idempotent per
     *  drain; later drains carry larger busy/span values). */
    void recordFacility(const std::string &name, Time busy,
                        std::uint64_t grants, Time span);

    bool empty() const
    {
        return counters_.empty() && gauges_.empty() &&
               histograms_.empty() && facilities_.empty();
    }

    /** Full end-of-run report (all tables, incl. host.* metrics). */
    std::string renderReport() const;

    /**
     * Report restricted to simulation-deterministic metrics: host.*
     * names are dropped, gauges render max-only. This is the string
     * golden tests pin.
     */
    std::string renderDeterministic() const;

    /** Facility-utilization table alone, top @p n by busy time —
     *  the CI job summary's excerpt. */
    std::string renderFacilityTable(std::size_t n) const;

  private:
    std::string render(bool include_host) const;

    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
    std::map<std::string, FacilityUse> facilities_;
};

} // namespace fcos::obs

#endif // FCOS_OBS_METRICS_H
