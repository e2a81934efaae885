/**
 * @file
 * fcbench: the repository benchmark. See README.md for the workloads,
 * the metrics and what each layer metric should move.
 *
 *   fcbench --workload W --seed N --seconds S --trace 0|1 [--out DIR]
 *       One run of one workload. --trace 0 measures the end-to-end
 *       metrics for S seconds; --trace 1 runs the traced pass and the
 *       layer probes and reports the per-layer metrics. The last line
 *       of stdout is the run's JSON result.
 *   fcbench [--seed N] [--seconds S] [--out DIR] [--scale F]
 *           [--check-json FILE]
 *       Every workload, untraced then traced, each in its own process.
 *       --scale multiplies every workload size (the smoke test runs
 *       0.02); --check-json fails the run unless FILE is exactly what
 *       --describe prints.
 *   fcbench --describe             print BENCHMARK.json
 *   fcbench --compare BASE CHANGE  compare two sets of result files
 *
 * Every run appends "workload metric unit value" lines to
 * DIR/results.txt (default fcbench-out), the input of --compare.
 */

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "defs.h"
#include "obs/obs.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

extern char **environ;

namespace fcos::fcbench {

int compareMain(const std::string &base, const std::string &change);

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = kRunSeconds;
    bool trace = false;
    double scale = 1.0;
    std::string out = "fcbench-out";
    std::string checkJson;
    bool describe = false;
    std::vector<std::string> compare;
};

/** Parse "--key value" and "--key=value" flags; false on bad input. */
bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        std::string value;
        const std::size_t eq = key.find('=');
        const auto next = [&]() -> bool {
            if (eq != std::string::npos) {
                value = key.substr(eq + 1);
                key.resize(eq);
                return true;
            }
            if (i + 1 >= argc)
                return false;
            value = argv[++i];
            return true;
        };
        try {
            if (key == "--describe") {
                a.describe = true;
            } else if (key == "--compare") {
                if (i + 2 >= argc)
                    return false;
                a.compare = {argv[i + 1], argv[i + 2]};
                i += 2;
            } else if (key.rfind("--", 0) == 0 && next()) {
                if (key == "--workload")
                    a.workload = value;
                else if (key == "--seed")
                    a.seed = std::stoull(value);
                else if (key == "--seconds")
                    a.seconds = std::stod(value);
                else if (key == "--trace")
                    a.trace = std::stoi(value) != 0;
                else if (key == "--scale")
                    a.scale = std::stod(value);
                else if (key == "--out")
                    a.out = value;
                else if (key == "--check-json")
                    a.checkJson = value;
                else
                    return false;
            } else {
                return false;
            }
        } catch (const std::exception &) {
            return false;
        }
    }
    return a.seconds > 0 && a.scale > 0 &&
           (a.workload.empty() || isWorkload(a.workload));
}

/** Peak resident set of this process image. VmHWM, unlike getrusage's
 *  ru_maxrss, does not carry over the parent's peak across exec. */
double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    return 0.0;
}

/** Results checked and failed over a run. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void add(const Rep &r)
    {
        attempted += r.attempted;
        failed += r.failed;
    }
    /** One more check, failed unless @p ok. */
    void check(bool ok, const char *what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "fcbench: check failed: %s\n", what);
        }
    }
};

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Print the metrics of @p defs found in @p m, append them to the
 *  results file, and print the JSON result line. @return exit code. */
int
report(const Args &a, std::span<const MetricDef> defs, const Metrics &m,
       const Tally &t)
{
    std::filesystem::create_directories(a.out);
    std::ofstream flat(a.out + "/results.txt", std::ios::app);
    std::string json = "{\"correct\": ";
    json += t.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(t.attempted) +
            ", \"failed\": " + std::to_string(t.failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < defs.size(); ++i) {
        const MetricDef &d = defs[i];
        const auto it = m.find(d.name);
        const double v = it == m.end() ? 0.0 : it->second;
        std::printf("  %-34s %14.6g %s\n", d.name, v, d.unit);
        flat << a.workload << ' ' << d.name << ' ' << d.unit << ' ' << num(v)
             << '\n';
        json += std::string(i ? ", " : "") + "\"" + d.name +
                "\": {\"value\": " + num(v) + ", \"unit\": \"" + d.unit +
                "\"}";
    }
    std::printf("  %-34s %14.6g (%llu failed / %llu attempted)\n",
                "error_rate",
                t.attempted ? double(t.failed) / double(t.attempted) : 0.0,
                static_cast<unsigned long long>(t.failed),
                static_cast<unsigned long long>(t.attempted));
    std::printf("%s}}\n", json.c_str());
    std::fflush(stdout);
    return t.failed == 0 ? 0 : 1;
}

void
printSeries(const char *name, const std::vector<double> &v)
{
    const Summary s = summarize(v);
    std::printf("  %s: median %.6g, quartiles [%.6g, %.6g], %zu values:",
                name, s.median, s.q1, s.q3, v.size());
    for (double x : v)
        std::printf(" %.4g", x);
    std::printf("\n");
}

// ---------------------------------------------------------------------
// Untraced run: the end-to-end metrics.
// ---------------------------------------------------------------------

int
runMeasured(const Args &a)
{
    Tally tally;
    Params p{a.seed, 1, a.scale};
    // Set-up time is the median of repeated set-ups at 1 worker (at
    // least 5, more while they take under 1.5 s in total); the last one
    // serves the run.
    std::vector<double> setups;
    std::unique_ptr<Cell> w1;
    double setup_total = 0.0;
    while (setups.size() < 5 || (setup_total < 1.5 && setups.size() < 51)) {
        w1.reset();
        const auto t0 = std::chrono::steady_clock::now();
        w1 = makeCell(a.workload, p, nullptr);
        setups.push_back(secondsSince(t0));
        setup_total += setups.back();
    }
    p.workers = 4;
    std::unique_ptr<Cell> w4 = makeCell(a.workload, p, nullptr);

    struct Series
    {
        Cell &cell;
        std::vector<double> rates;
        std::vector<std::uint64_t> digests;
        double seconds = 0.0;
    };
    Series s1{*w1, {}, {}}, s4{*w4, {}, {}};
    const auto unit = [&](Series &s, bool timed) {
        const Rep r = s.cell.rep(nullptr);
        tally.add(r);
        s.digests.push_back(r.digest);
        if (timed && r.seconds > 0) {
            s.rates.push_back(static_cast<double>(r.ops) / r.seconds);
            s.seconds += r.seconds;
        }
    };
    // Unit 0 of each cell warms up and runs the reference checks; it is
    // not timed. Then the cells take turns, the one with less measured
    // time going next, so each gets about half of the run.
    unit(s1, false);
    unit(s4, false);
    const auto t0 = std::chrono::steady_clock::now();
    while (s1.rates.size() < 3 || s4.rates.size() < 3 ||
           secondsSince(t0) < a.seconds)
        unit(s1.seconds <= s4.seconds ? s1 : s4, true);
    // Unit k is the same work at either worker count.
    bool same = true;
    for (std::size_t k = 0;
         k < std::min(s1.digests.size(), s4.digests.size()); ++k)
        same = same && s1.digests[k] == s4.digests[k];
    tally.check(same, "1- and 4-worker digests differ");

    std::printf("fcbench %s seed=%llu trace=0 nproc=%u build=%s\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                std::thread::hardware_concurrency(), FCBENCH_BUILD_TYPE);
    printSeries("setup_s", setups);
    printSeries("ops_per_s.w1", s1.rates);
    printSeries("ops_per_s.w4", s4.rates);
    const Metrics m{{"setup_s", summarize(setups).median},
                    {"ops_per_s.w1", summarize(s1.rates).median},
                    {"ops_per_s.w4", summarize(s4.rates).median},
                    {"peak_rss_mib", peakRssMib()}};
    return report(a, endToEndMetrics(), m, tally);
}

// ---------------------------------------------------------------------
// Traced run: the per-layer metrics.
// ---------------------------------------------------------------------

/** Counts and histogram sums a traced pass is measured between. */
struct Snapshot
{
    Time now = 0;
    double energyJ = 0.0;
    std::uint64_t events = 0;
    std::uint64_t dieOps = 0;
    std::uint64_t senses = 0;
    Time planeBusy = 0;
    Time channelBusy = 0;
    core::FlashCosmosDrive::GcTotals gc;
    std::uint64_t bypass = 0;
    std::uint64_t poolWallNs = 0;
    std::uint64_t laneBusyNs = 0;
    double submitS = 0.0;
    double drainS = 0.0;
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> hist;

    static constexpr const char *kHistograms[] = {
        "engine.queue_wait", "engine.admission.wait.read",
        "engine.admission.wait.write", "engine.admission.wait.compute",
        "sim.queue.wave_size"};

    /** Needs an active metrics capture. */
    static Snapshot take(Cell &cell, const Spans &spans,
                         std::uint32_t workers)
    {
        core::FlashCosmosDrive &d = cell.drive();
        const engine::CommandScheduler &sched = d.engine().scheduler();
        const std::uint32_t planes = d.chip(0).geometry().planesPerDie;
        Snapshot s;
        s.now = d.now();
        s.energyJ = d.engine().totalEnergyJ();
        s.events = sched.queue().executed();
        s.dieOps = sched.dieOpsExecuted();
        for (std::uint32_t die = 0; die < d.dieCount(); ++die) {
            s.senses += d.chip(die).senseCount();
            for (std::uint32_t p = 0; p < planes; ++p)
                s.planeBusy += sched.planeBusyTime(die, p);
        }
        for (std::uint32_t c = 0; c < d.engine().farm().channelCount(); ++c)
            s.channelBusy += sched.channelBusyTime(c);
        s.gc = d.gcTotals();
        obs::Registry &reg = obs::metrics();
        s.bypass = reg.counter("sim.queue.heap_bypass_hits").value();
        s.poolWallNs = reg.counter("host.pool.wall_ns").value();
        for (std::uint32_t l = 0; l < workers; ++l)
            s.laneBusyNs +=
                reg.counter("host.pool.lane" + std::to_string(l) + ".busy_ns")
                    .value();
        for (const char *h : kHistograms)
            s.hist[h] = {reg.histogram(h).count(), reg.histogram(h).sum()};
        s.submitS = spans.selfSeconds("submit", workers);
        s.drainS = spans.selfSeconds("advanceTo", workers) +
                   spans.selfSeconds("waitAll", workers) +
                   spans.selfSeconds("fcRead", workers);
        return s;
    }

    /** Mean of histogram @p h between @p a and this snapshot. */
    double meanSince(const Snapshot &a, const std::string &h) const
    {
        const std::uint64_t n = hist.at(h).first - a.hist.at(h).first;
        return n ? double(hist.at(h).second - a.hist.at(h).second) / n : 0.0;
    }
};

/** Nearest-rank quantile at @p permille of @p v, in microseconds. */
double
quantileUs(std::vector<Time> v, std::uint64_t permille)
{
    if (v.empty())
        return 0.0;
    const std::size_t rank = (v.size() * permille + 999) / 1000;
    std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
    return timeToUs(v[rank - 1]);
}

/** Run the traced pass of @p cell; @return its host wall seconds. */
double
tracedPass(Cell &cell, Spans *spans, Tally &tally)
{
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t k = 0; k < cell.tracedReps(); ++k) {
        SpanScope s(spans, "unit", k + 1);
        tally.add(cell.rep(spans));
    }
    return secondsSince(t0);
}

/** Per-layer and simulated metrics of a pass of @p cell that ran
 *  between snapshots @p s0 and @p s1 and took @p wall host seconds. */
Metrics
passMetrics(Cell &cell, const Snapshot &s0, const Snapshot &s1, double wall,
            std::uint32_t workers)
{
    const Window &win = cell.window();
    const double units = std::max<double>(1, win.units);
    const double span_s = timeToSec(s1.now - s0.now);
    const double util_den = span_s * 1e9 / 100.0; // busy ns -> percent
    const double events = double(s1.events - s0.events);
    const double host_pages =
        double(s1.gc.hostPagesWritten - s0.gc.hostPagesWritten);
    const double copies = double(s1.gc.pageCopies - s0.gc.pageCopies);
    const double erases = double(s1.gc.blocksErased - s0.gc.blocksErased);
    core::FlashCosmosDrive &d = cell.drive();
    const double planes = d.dieCount() * d.chip(0).geometry().planesPerDie;
    const double channels = d.engine().farm().channelCount();
    const double pool_wall = double(s1.poolWallNs - s0.poolWallNs);
    obs::Registry &reg = obs::metrics();

    Metrics m;
    m["sim_makespan_ms"] = span_s * 1e3;
    m["sim_energy_mj"] = (s1.energyJ - s0.energyJ) * 1e3;
    m["sim_read_p50_us"] = quantileUs(win.read, 500);
    m["sim_read_p999_us"] = quantileUs(win.read, 999);
    m["sim_write_p999_us"] = quantileUs(win.write, 999);
    m["sim_compute_p999_us"] = quantileUs(win.compute, 999);
    m["sim_kiops"] = span_s > 0 ? units / span_s / 1e3 : 0.0;
    m["write_amp"] = host_pages > 0 ? 1.0 + copies / host_pages : 0.0;
    m["sim.events_per_req"] = events / units;
    m["engine.die_ops_per_req"] = double(s1.dieOps - s0.dieOps) / units;
    m["nand.senses_per_page"] = double(s1.senses - s0.senses) /
                                std::max<double>(1, win.resultPages);
    m["ssd.gc_runs"] = double(s1.gc.runs - s0.gc.runs);
    m["ssd.gc_copies_per_kwrite"] =
        host_pages > 0 ? copies / host_pages * 1e3 : 0.0;
    m["ssd.erases_per_kwrite"] =
        host_pages > 0 ? erases / host_pages * 1e3 : 0.0;
    m["engine.plane_util_pct"] =
        span_s > 0 ? double(s1.planeBusy - s0.planeBusy) / (planes * util_den)
                   : 0.0;
    m["engine.channel_util_pct"] =
        span_s > 0 ? double(s1.channelBusy - s0.channelBusy) /
                         (channels * util_den)
                   : 0.0;
    m["engine.queue_wait_us_mean"] =
        s1.meanSince(s0, "engine.queue_wait") / 1e3;
    for (const char *c : {"read", "write", "compute"})
        m[std::string("engine.admission_wait_us.") + c] =
            s1.meanSince(s0, std::string("engine.admission.wait.") + c) /
            1e3;
    m["engine.admission_inflight_peak"] =
        reg.gauge("engine.admission.inflight_peak").max();
    m["engine.admission_backlog_peak"] = double(cell.backlogPeak());
    m["engine.stream_peak_pages"] =
        reg.gauge("stream.peak_buffered_pages").max();
    m["sim.wave_size_mean"] = s1.meanSince(s0, "sim.queue.wave_size");
    m["sim.heap_bypass_frac"] =
        events > 0 ? double(s1.bypass - s0.bypass) / events : 0.0;
    m["sim.pool_idle_frac"] =
        pool_wall > 0 ? 1.0 - double(s1.laneBusyNs - s0.laneBusyNs) /
                                  (pool_wall * workers)
                      : 0.0;
    m["core.submit_us"] = (s1.submitS - s0.submitS) * 1e6 / units;
    m["core.drain_us"] = (s1.drainS - s0.drainS) * 1e6 / units;
    m["sim.host_ns_per_event"] = events > 0 ? wall * 1e9 / events : 0.0;
    return m;
}

/** Simulated-clock results, which must not depend on the worker count. */
constexpr const char *kSimMetrics[] = {
    "sim_makespan_ms",     "sim_energy_mj",       "sim_read_p50_us",
    "sim_read_p999_us",    "sim_compute_p999_us", "sim_write_p999_us",
    "sim_kiops",           "write_amp",           "sim.events_per_req",
    "engine.die_ops_per_req", "nand.senses_per_page", "ssd.gc_runs"};

/** Host-clock metrics reported for each worker count. */
constexpr const char *kPerWorkerMetrics[] = {
    "core.submit_us", "core.drain_us", "sim.host_ns_per_event"};

/** Metrics of the wave-parallel path, taken from the 4-worker pass. */
constexpr const char *kWaveMetrics[] = {
    "sim.wave_size_mean", "sim.heap_bypass_frac", "sim.pool_idle_frac"};

int
runTraced(const Args &a)
{
    Tally tally;

    // Untraced baseline of the same pass, for the tracing overhead.
    std::vector<double> plain;
    for (int i = 0; i < 3; ++i) {
        std::unique_ptr<Cell> cell =
            makeCell(a.workload, Params{a.seed, 1, a.scale}, nullptr);
        plain.push_back(tracedPass(*cell, nullptr, tally));
    }

    Spans spans;
    Metrics pass[2];
    for (std::uint32_t workers : {1u, 4u}) {
        spans.setLane(workers);
        obs::ScopedCapture capture(/*trace=*/false, /*metrics=*/true);
        std::unique_ptr<Cell> cell =
            makeCell(a.workload, Params{a.seed, workers, a.scale}, &spans);
        const Snapshot s0 = Snapshot::take(*cell, spans, workers);
        cell->beginWindow();
        const double wall = tracedPass(*cell, &spans, tally);
        const Snapshot s1 = Snapshot::take(*cell, spans, workers);
        Metrics &r = pass[workers == 1 ? 0 : 1];
        r = passMetrics(*cell, s0, s1, wall, workers);
        if (workers == 1) {
            r["core.write_us_per_page"] =
                spans.selfSeconds("fcWritePages", 1) * 1e6 /
                std::max<double>(1, cell->setupPages());
            r["obs.overhead_pct"] =
                (wall / summarize(plain).median - 1.0) * 100.0;
        }
    }
    for (const char *k : kSimMetrics)
        tally.check(pass[0][k] == pass[1][k],
                    "simulated metric differs between 1 and 4 workers");
    Metrics m = pass[0];
    for (const char *k : kWaveMetrics)
        m[k] = pass[1][k];
    for (const char *k : kPerWorkerMetrics) {
        m[std::string(k) + ".w1"] = pass[0][k];
        m[std::string(k) + ".w4"] = pass[1][k];
    }

    // A 1/20-size slice of the pass as a simulated-time Perfetto trace.
    std::filesystem::create_directories(a.out);
    const std::string stem = a.out + "/" + a.workload;
    {
        obs::ScopedCapture capture(/*trace=*/true, /*metrics=*/false);
        std::unique_ptr<Cell> cell = makeCell(
            a.workload, Params{a.seed, 1, a.scale / 20}, nullptr);
        tracedPass(*cell, nullptr, tally);
        tally.check(capture.tracer().writeFile(stem + ".perfetto.json"),
                    "cannot write the Perfetto trace");
    }
    tally.check(spans.writeChromeJson(stem + ".spans.json"),
                "cannot write the host spans");

    runProbes(a.seed, m);

    std::printf("fcbench %s seed=%llu trace=1 nproc=%u build=%s\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                std::thread::hardware_concurrency(), FCBENCH_BUILD_TYPE);
    printSeries("untraced pass s (w1)", plain);
    std::printf("  wrote %s.spans.json and %s.perfetto.json\n", stem.c_str(),
                stem.c_str());
    return report(a, perLayerMetrics(), m, tally);
}

// ---------------------------------------------------------------------
// Every workload, each run in its own process.
// ---------------------------------------------------------------------

int
runAll(const Args &a)
{
    int status = 0;
    if (!a.checkJson.empty()) {
        std::ifstream in(a.checkJson);
        std::stringstream text;
        text << in.rdbuf();
        if (!in || text.str() != describeJson()) {
            std::fprintf(stderr,
                         "fcbench: %s differs from `fcbench --describe`\n",
                         a.checkJson.c_str());
            status = 1;
        }
    }
    for (const WorkloadDef &w : workloads()) {
        for (const char *trace : {"0", "1"}) {
            std::vector<std::string> args = {
                "fcbench",
                "--workload", w.name,
                "--seed", std::to_string(a.seed),
                "--seconds", num(a.seconds),
                "--trace", trace,
                "--scale", num(a.scale),
                "--out", a.out};
            std::vector<char *> argv;
            for (std::string &s : args)
                argv.push_back(s.data());
            argv.push_back(nullptr);
            pid_t pid = 0;
            int wstatus = 0;
            if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr,
                            argv.data(), environ) != 0 ||
                waitpid(pid, &wstatus, 0) != pid || !WIFEXITED(wstatus) ||
                WEXITSTATUS(wstatus) != 0) {
                std::fprintf(stderr, "fcbench: %s --trace %s failed\n",
                             w.name, trace);
                status = 1;
            }
        }
    }
    return status;
}

} // namespace

} // namespace fcos::fcbench

int
main(int argc, char **argv)
{
    using namespace fcos::fcbench;
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: fcbench --workload W --seed N --seconds S "
                     "--trace 0|1 [--out DIR]\n"
                     "       fcbench [--seed N] [--seconds S] [--scale F] "
                     "[--out DIR] [--check-json FILE]\n"
                     "       fcbench --describe\n"
                     "       fcbench --compare BASE CHANGE\n");
        return 2;
    }
    if (a.describe) {
        std::fputs(describeJson().c_str(), stdout);
        return 0;
    }
    if (!a.compare.empty())
        return compareMain(a.compare[0], a.compare[1]);
    if (a.workload.empty())
        return runAll(a);
    return a.trace ? runTraced(a) : runMeasured(a);
}
