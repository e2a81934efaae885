/**
 * @file
 * Observability session: the process-wide Tracer + metrics Registry,
 * the enable/disable knobs, and the epoch guard that makes disabled
 * hooks cost a single predictable branch.
 *
 * ## Enabling
 * Three equivalent paths converge here:
 *  - env knobs `FCOS_TRACE=<file>` / `FCOS_METRICS=<file>` (read once
 *    at startup; files are written at process exit),
 *  - enableTrace() / enableMetrics(), which the benches' `--trace=` /
 *    `--metrics=` flags call before building any component,
 *  - programmatic ScopedCapture for tests and benches that want the
 *    trace/metrics in memory instead of on disk.
 *
 * ## The epoch guard
 * Instrumented components capture `traceEpoch()` / `metricsEpoch()`
 * once (at construction) together with their track ids or metric
 * handles. Every hot-path hook then reduces to
 *
 *     if (obs::traceLive(epoch_)) { ... }
 *
 * — one relaxed atomic load plus a compare. Epoch 0 means "off", and
 * the counter bumps on every enable/disable/session swap, so a handle
 * cached against an old session can never be used against a new one
 * (the stale epoch no longer matches). That is what lets components
 * hold raw `Counter*` / track-id handles with zero locking.
 *
 * ## Determinism
 * Recording happens only in serial simulation contexts, so for a fixed
 * workload the trace JSON — and Tracer::digest() — is bit-identical
 * at any worker count. Metrics mixing in host time use the "host."
 * name prefix and are excluded from the deterministic render.
 */

#ifndef FCOS_OBS_OBS_H
#define FCOS_OBS_OBS_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace fcos::obs {

namespace detail {
extern std::atomic<std::uint64_t> g_trace_epoch;
extern std::atomic<std::uint64_t> g_metrics_epoch;
} // namespace detail

/** Current trace epoch; 0 when tracing is off. Capture at component
 *  construction and gate hooks with traceLive(). */
inline std::uint64_t
traceEpoch()
{
    return detail::g_trace_epoch.load(std::memory_order_relaxed);
}

inline std::uint64_t
metricsEpoch()
{
    return detail::g_metrics_epoch.load(std::memory_order_relaxed);
}

inline bool traceOn() { return traceEpoch() != 0; }
inline bool metricsOn() { return metricsEpoch() != 0; }

/** True iff tracing is on *and* still the same session the caller
 *  captured @p epoch from. The single-branch disabled-path check. */
inline bool
traceLive(std::uint64_t epoch)
{
    return epoch != 0 && traceEpoch() == epoch;
}

inline bool
metricsLive(std::uint64_t epoch)
{
    return epoch != 0 && metricsEpoch() == epoch;
}

/** The active tracer / registry. Valid only while the corresponding
 *  epoch is non-zero; call sites must check first. */
Tracer &trace();
Registry &metrics();

/** Turn tracing/metrics on, writing to @p path at exportNow() (empty
 *  path: capture in memory only). Restarts the session (fresh buffers,
 *  new epoch) if already on. */
void enableTrace(const std::string &path);
void enableMetrics(const std::string &path);

/** Turn both off and drop buffered data (after exporting, callers that
 *  want the files call exportNow() first). */
void disableAll();

/** Read FCOS_TRACE / FCOS_METRICS and enable accordingly; registers an
 *  atexit hook that exports to the named files. Idempotent; runs
 *  automatically before main() but is safe to call again. */
void initFromEnv();

/** Write the trace JSON / metrics report to their configured paths
 *  now (no-op for sessions without a path). */
void exportNow();

/** Render the active registry's full report ("" when metrics off). */
std::string metricsReport();

/**
 * RAII capture for tests and benches: swaps in a fresh Tracer and/or
 * Registry (bumping the epochs) and restores the previous session on
 * destruction. Components constructed inside the scope record into the
 * scoped buffers; components from outside hold stale epochs and go
 * quiet — exactly the isolation a determinism test wants.
 */
class ScopedCapture
{
  public:
    explicit ScopedCapture(bool trace = true, bool metrics = true);
    ~ScopedCapture();

    ScopedCapture(const ScopedCapture &) = delete;
    ScopedCapture &operator=(const ScopedCapture &) = delete;

    Tracer &tracer();
    Registry &metricsRegistry();

    std::string traceJson() const;
    std::uint64_t traceDigest() const;
    std::string metricsText() const;

  private:
    std::unique_ptr<Tracer> prev_tracer_;
    std::unique_ptr<Registry> prev_registry_;
    std::string prev_trace_path_;
    std::string prev_metrics_path_;
    std::uint64_t prev_trace_epoch_ = 0;
    std::uint64_t prev_metrics_epoch_ = 0;
    bool trace_;
    bool metrics_;
};

} // namespace fcos::obs

#endif // FCOS_OBS_OBS_H
