#include "obs/obs.h"

#include <cstdlib>

#include "util/log.h"

namespace fcos::obs {

namespace detail {
std::atomic<std::uint64_t> g_trace_epoch{0};
std::atomic<std::uint64_t> g_metrics_epoch{0};
} // namespace detail

namespace {

struct Session
{
    std::unique_ptr<Tracer> tracer;
    std::unique_ptr<Registry> registry;
    std::string trace_path;
    std::string metrics_path;
    std::uint64_t next_epoch = 1; ///< never reused across the process
};

/** Leaked on purpose: the atexit export hook and components destroyed
 *  during static teardown may still reach the session. */
Session &
session()
{
    static Session *s = new Session;
    return *s;
}

void
exportAtExit()
{
    exportNow();
}

/** Register the exit-time export once, on the first enable that names
 *  an output file (env knob or Config field alike). */
void
registerExportHook(const std::string &path)
{
    static bool registered = false;
    if (path.empty() || registered)
        return;
    registered = true;
    std::atexit(exportAtExit);
}

} // namespace

Tracer &
trace()
{
    fcos_assert(traceOn(), "obs::trace() while tracing is off");
    return *session().tracer;
}

Registry &
metrics()
{
    fcos_assert(metricsOn(), "obs::metrics() while metrics are off");
    return *session().registry;
}

void
enableTrace(const std::string &path)
{
    Session &s = session();
    s.tracer = std::make_unique<Tracer>();
    s.trace_path = path;
    registerExportHook(path);
    detail::g_trace_epoch.store(s.next_epoch++,
                                std::memory_order_relaxed);
}

void
enableMetrics(const std::string &path)
{
    Session &s = session();
    s.registry = std::make_unique<Registry>();
    s.metrics_path = path;
    registerExportHook(path);
    detail::g_metrics_epoch.store(s.next_epoch++,
                                  std::memory_order_relaxed);
}

void
disableAll()
{
    Session &s = session();
    detail::g_trace_epoch.store(0, std::memory_order_relaxed);
    detail::g_metrics_epoch.store(0, std::memory_order_relaxed);
    s.tracer.reset();
    s.registry.reset();
    s.trace_path.clear();
    s.metrics_path.clear();
}

void
initFromEnv()
{
    static bool done = false;
    if (done)
        return;
    done = true;

    const char *trace_path = std::getenv("FCOS_TRACE");
    const char *metrics_path = std::getenv("FCOS_METRICS");
    if (trace_path && *trace_path)
        enableTrace(trace_path);
    if (metrics_path && *metrics_path)
        enableMetrics(metrics_path);
}

namespace {
// Runs before main(): env knobs work without any code in the binary.
const bool g_env_init = [] {
    initFromEnv();
    return true;
}();
} // namespace

void
exportNow()
{
    Session &s = session();
    std::uint64_t digest = 0;
    if (traceOn() && !s.trace_path.empty()) {
        if (!s.tracer->writeFile(s.trace_path, &digest))
            fcos_warn("failed to write trace to %s",
                      s.trace_path.c_str());
        else
            fcos_inform("trace: %llu events on %zu tracks -> %s "
                        "(digest %016llx)",
                        (unsigned long long)s.tracer->events(),
                        s.tracer->tracks(), s.trace_path.c_str(),
                        (unsigned long long)digest);
    }
    if (metricsOn() && !s.metrics_path.empty()) {
        std::FILE *f = std::fopen(s.metrics_path.c_str(), "w");
        if (!f) {
            fcos_warn("failed to write metrics to %s",
                      s.metrics_path.c_str());
            return;
        }
        const std::string report = s.registry->renderReport();
        std::fwrite(report.data(), 1, report.size(), f);
        std::fclose(f);
        fcos_inform("metrics report -> %s", s.metrics_path.c_str());
    }
}

std::string
metricsReport()
{
    return metricsOn() ? session().registry->renderReport()
                       : std::string();
}

ScopedCapture::ScopedCapture(bool trace, bool metrics)
    : trace_(trace), metrics_(metrics)
{
    Session &s = session();
    if (trace_) {
        prev_tracer_ = std::move(s.tracer);
        prev_trace_path_ = std::move(s.trace_path);
        prev_trace_epoch_ =
            detail::g_trace_epoch.load(std::memory_order_relaxed);
        s.tracer = std::make_unique<Tracer>();
        s.trace_path.clear();
        detail::g_trace_epoch.store(s.next_epoch++,
                                    std::memory_order_relaxed);
    }
    if (metrics_) {
        prev_registry_ = std::move(s.registry);
        prev_metrics_path_ = std::move(s.metrics_path);
        prev_metrics_epoch_ =
            detail::g_metrics_epoch.load(std::memory_order_relaxed);
        s.registry = std::make_unique<Registry>();
        s.metrics_path.clear();
        detail::g_metrics_epoch.store(s.next_epoch++,
                                      std::memory_order_relaxed);
    }
}

ScopedCapture::~ScopedCapture()
{
    Session &s = session();
    if (trace_) {
        s.tracer = std::move(prev_tracer_);
        s.trace_path = std::move(prev_trace_path_);
        detail::g_trace_epoch.store(prev_trace_epoch_,
                                    std::memory_order_relaxed);
    }
    if (metrics_) {
        s.registry = std::move(prev_registry_);
        s.metrics_path = std::move(prev_metrics_path_);
        detail::g_metrics_epoch.store(prev_metrics_epoch_,
                                      std::memory_order_relaxed);
    }
}

Tracer &
ScopedCapture::tracer()
{
    fcos_assert(trace_, "ScopedCapture without tracing");
    return *session().tracer;
}

Registry &
ScopedCapture::metricsRegistry()
{
    fcos_assert(metrics_, "ScopedCapture without metrics");
    return *session().registry;
}

std::string
ScopedCapture::traceJson() const
{
    return session().tracer->toJson();
}

std::uint64_t
ScopedCapture::traceDigest() const
{
    return session().tracer->digest();
}

std::string
ScopedCapture::metricsText() const
{
    return session().registry->renderDeterministic();
}

} // namespace fcos::obs
