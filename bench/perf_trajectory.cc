/**
 * @file
 * Per-PR perf trajectory: replays the two scale-tier workloads — the
 * Table-1 figure read (dense AND3 across the full 8x8-die SSD) and the
 * beyond-DRAM streamed read — at 1/2/4 host workers and writes
 * BENCH_pr.json (schema documented in README.md, "Perf trajectory").
 *
 * Every later PR reruns this bench, so speedup claims ride on recorded
 * numbers instead of assertions. The bench cross-checks the stream
 * digest across worker counts before reporting: a perf number from a
 * run that broke bit-identity would be worse than no number.
 *
 * Usage: bench_perf_trajectory [output.json]
 *   FCOS_BENCH_REPS   repetitions per (workload, workers) cell; the
 *                     best wall time wins (default 3)
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench/bench_util.h"
#include "core/drive.h"
#include "core/result_sink.h"
#include "core/traffic.h"
#include "obs/obs.h"
#include "util/rng.h"
#include "util/units.h"

namespace {

using namespace fcos;
using core::Expr;
using core::FlashCosmosDrive;

constexpr std::uint32_t kWorkerCounts[] = {1, 2, 4};

double
wallSeconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

std::uint64_t
peakRssBytes()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
        return static_cast<std::uint64_t>(ru.ru_maxrss); // bytes
#else
        return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024; // KiB
#endif
    }
#endif
    return 0;
}

/** One timed replay: returns wall seconds; fills digest + page count. */
struct Replay
{
    double wallSeconds = 0.0;
    std::uint64_t resultPages = 0;
    std::uint64_t pagesSimulated = 0; ///< programs + result pages
    std::uint64_t digest = 0;
};

/** Common body of both workloads: a full Table-1 drive computing
 *  AND(a, b, c) with c stored inverted, @p rows pages per plane
 *  column, streamed through a DigestSink. @p rows = 2 reproduces the
 *  Table-1 figure tier's shape, @p rows = 4 the beyond-DRAM tier's. */
Replay
replayAnd3(std::uint32_t workers, std::uint64_t rows, std::uint64_t seed)
{
    FlashCosmosDrive::Config cfg;
    cfg.channels = 8;
    cfg.dies = 8;
    cfg.geometry = nand::Geometry::table1();
    cfg.workers = workers;

    const std::uint32_t columns = cfg.columnCount();
    const std::uint64_t pages = rows * columns;
    auto gen = [seed](std::uint64_t vec) {
        return [seed, vec](std::uint64_t j) {
            return nand::PageImage::random(Rng::mix(seed + vec, j));
        };
    };

    const auto t0 = std::chrono::steady_clock::now();
    FlashCosmosDrive drive(cfg);
    const std::uint64_t group = 7;
    core::VectorId a = drive.fcWritePages(gen(0), pages, {group, false});
    core::VectorId b = drive.fcWritePages(gen(1), pages, {group, false});
    core::VectorId c =
        drive.fcWritePages(gen(2), pages, {group, true}); // inverted

    core::DigestSink digest;
    FlashCosmosDrive::ReadStats st;
    drive.fcRead(
        Expr::And({Expr::leaf(a), Expr::leaf(b), Expr::leaf(c)}), digest,
        &st);

    Replay r;
    r.wallSeconds = wallSeconds(t0);
    r.resultPages = st.streamChunks;
    r.pagesSimulated = 3 * pages + st.streamChunks;
    r.digest = digest.digest();
    return r;
}

struct Cell
{
    std::uint32_t workers = 1;
    Replay best;
};

struct WorkloadResult
{
    std::string name;
    std::vector<Cell> cells;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::initObs(argc, argv);
    const char *out_path =
        (argc > 1 && argv[1][0] != '-') ? argv[1] : "BENCH_pr.json";
    int reps = 5;
    if (const char *s = std::getenv("FCOS_BENCH_REPS"))
        reps = std::max(1, std::atoi(s));

    bench::header("Perf trajectory",
                  "scale-tier workloads at 1/2/4 host workers");

    struct Workload
    {
        const char *name;
        std::uint64_t rows;
        std::uint64_t seed;
    };
    const Workload workloads[] = {
        {"table1_and3", 2, 101},      // the Table-1 figure tier shape
        {"beyond_dram_and3", 4, 7100} // the streamed beyond-DRAM shape
    };

    std::vector<WorkloadResult> results;
    for (const Workload &w : workloads) {
        WorkloadResult wr;
        wr.name = w.name;
        for (std::uint32_t workers : kWorkerCounts)
            wr.cells.push_back({workers, {}});
        // One untimed warmup so the first timed cell doesn't pay the
        // allocator / page-cache cold start for everyone.
        (void)replayAnd3(1, w.rows, w.seed);
        // Interleave repetitions round-robin across worker counts so
        // slow host phases (page cache, frequency, noisy neighbours)
        // spread evenly instead of biasing one cell.
        for (int rep = 0; rep < reps; ++rep) {
            for (Cell &cell : wr.cells) {
                Replay r = replayAnd3(cell.workers, w.rows, w.seed);
                if (cell.best.resultPages == 0 ||
                    r.wallSeconds < cell.best.wallSeconds) {
                    const std::uint64_t prev = cell.best.digest;
                    if (prev != 0 && prev != r.digest) {
                        std::fprintf(stderr,
                                     "FATAL: digest changed between "
                                     "reps of %s @%u workers\n",
                                     w.name, cell.workers);
                        return 1;
                    }
                    cell.best = r;
                }
            }
        }
        // Bit-identity across worker counts gates the report.
        for (const Cell &cell : wr.cells) {
            if (cell.best.digest != wr.cells.front().best.digest) {
                std::fprintf(stderr,
                             "FATAL: %s digest diverges at %u workers\n",
                             w.name, cell.workers);
                return 1;
            }
        }
        for (const Cell &cell : wr.cells) {
            const double pps = static_cast<double>(
                                   cell.best.pagesSimulated) /
                               cell.best.wallSeconds;
            std::printf("  %-18s %u worker(s): %8.3f s   %s\n", w.name,
                        cell.workers, cell.best.wallSeconds,
                        bench::rateStr(pps, "pages").c_str());
        }
        results.push_back(std::move(wr));
    }

    // ---- Observability overhead ---------------------------------------
    // The Table-1 shape again at 1 worker, best of `reps` each way:
    // (a) obs layer left disabled — every hook is one dormant branch,
    //     the state every other cell in this file runs in — and
    // (b) trace + metrics fully enabled, captured in memory.
    // The disabled run must stay within 2% of the main table1_and3
    // 1-worker cell (same code path, so this certifies the dormant
    // hooks cost nothing measurable); the enabled delta is recorded
    // for the trajectory but not gated.
    Replay best_off, best_on;
    for (int rep = 0; rep < reps; ++rep) {
        Replay off = replayAnd3(1, 2, 101);
        if (best_off.resultPages == 0 ||
            off.wallSeconds < best_off.wallSeconds)
            best_off = off;
        obs::ScopedCapture cap(/*trace=*/true, /*metrics=*/true);
        Replay on = replayAnd3(1, 2, 101);
        if (best_on.resultPages == 0 ||
            on.wallSeconds < best_on.wallSeconds)
            best_on = on;
    }
    if (best_on.digest != best_off.digest) {
        std::fprintf(stderr, "FATAL: enabling observability changed the "
                             "stream digest\n");
        return 1;
    }
    auto pps_of = [](const Replay &r) {
        return static_cast<double>(r.pagesSimulated) / r.wallSeconds;
    };
    const double base_pps =
        pps_of(results.front().cells.front().best); // table1_and3 @1w
    const double off_pps = pps_of(best_off);
    const double on_pps = pps_of(best_on);
    const double off_overhead_pct = (1.0 - off_pps / base_pps) * 100.0;
    const double on_overhead_pct = (1.0 - on_pps / off_pps) * 100.0;
    std::printf("\n  observability: disabled %s (%+.2f%% vs baseline), "
                "enabled %s (%+.2f%% vs disabled)\n",
                bench::rateStr(off_pps, "pages").c_str(),
                off_overhead_pct,
                bench::rateStr(on_pps, "pages").c_str(), on_overhead_pct);
    if (off_overhead_pct > 2.0) {
        std::fprintf(stderr,
                     "FATAL: disabled-observability overhead %.2f%% "
                     "exceeds the 2%% gate\n",
                     off_overhead_pct);
        return 1;
    }

    // ---- Mixed traffic (concurrent request API) ------------------------
    // The heaviest bench/mixed_traffic sweep point — 2us arrivals, flat
    // QoS — at 1/2/4 workers. Requests/second measures the host cost of
    // the admission + overlap machinery; the digest and the (worker-
    // invariant) latency quantiles gate the report the same way the
    // scale workloads do.
    core::TrafficConfig mixed_cfg;
    mixed_cfg.interArrivalUs = 2.0;
    struct MixedCell
    {
        std::uint32_t workers = 1;
        core::TrafficPoint best;
        bool set = false;
    };
    std::vector<MixedCell> mixed;
    for (std::uint32_t workers : kWorkerCounts)
        mixed.push_back({workers, {}, false});
    mixed_cfg.drive.workers = 1;
    (void)core::runMixedTraffic(mixed_cfg); // warmup
    for (int rep = 0; rep < reps; ++rep) {
        for (MixedCell &cell : mixed) {
            mixed_cfg.drive.workers = cell.workers;
            core::TrafficPoint p = core::runMixedTraffic(mixed_cfg);
            if (cell.set && cell.best.digest != p.digest) {
                std::fprintf(stderr,
                             "FATAL: mixed-traffic digest changed "
                             "between reps @%u workers\n",
                             cell.workers);
                return 1;
            }
            if (!cell.set || p.wallSeconds < cell.best.wallSeconds)
                cell.best = p;
            cell.set = true;
        }
    }
    std::printf("\n");
    for (const MixedCell &cell : mixed) {
        if (cell.best.digest != mixed.front().best.digest) {
            std::fprintf(stderr,
                         "FATAL: mixed-traffic digest diverges at %u "
                         "workers\n",
                         cell.workers);
            return 1;
        }
        std::printf("  %-18s %u worker(s): %8.3f s   %9.1f req/s\n",
                    "mixed_traffic", cell.workers,
                    cell.best.wallSeconds,
                    cell.best.requestsPerSecond);
    }
    {
        const core::TrafficPoint &p = mixed.front().best;
        std::printf("  mixed_traffic p99 us: read %.1f  write %.1f  "
                    "compute %.1f (%s, %u requests)\n",
                    timeToUs(p.byClass[0].p99),
                    timeToUs(p.byClass[1].p99),
                    timeToUs(p.byClass[2].p99), mixed_cfg.label().c_str(),
                    mixed_cfg.requests);
    }

    // ---- Closed-loop soak (capacity recycling) -------------------------
    // A bench-sized slice of the soak tier: 200k closed-loop requests
    // with overwrite/trim churn, so GC copyback + erase traffic is on
    // the timeline the whole run. Requests/second measures the host
    // cost of serving at steady state; the digest gates the report
    // across reps and worker counts; GC write amplification is the
    // recycling trajectory number.
    core::ClosedLoopConfig soak_cfg;
    soak_cfg.requests = 200'000;
    struct SoakCell
    {
        std::uint32_t workers = 1;
        core::ClosedLoopPoint best;
        bool set = false;
    };
    std::vector<SoakCell> soak;
    for (std::uint32_t workers : kWorkerCounts)
        soak.push_back({workers, {}, false});
    for (int rep = 0; rep < reps; ++rep) {
        for (SoakCell &cell : soak) {
            soak_cfg.drive.workers = cell.workers;
            core::ClosedLoopPoint p = core::runClosedLoopTraffic(soak_cfg);
            if (cell.set && cell.best.digest != p.digest) {
                std::fprintf(stderr,
                             "FATAL: soak digest changed between reps "
                             "@%u workers\n",
                             cell.workers);
                return 1;
            }
            if (!cell.set || p.wallSeconds < cell.best.wallSeconds)
                cell.best = p;
            cell.set = true;
        }
    }
    std::printf("\n");
    for (const SoakCell &cell : soak) {
        if (cell.best.digest != soak.front().best.digest) {
            std::fprintf(stderr,
                         "FATAL: soak digest diverges at %u workers\n",
                         cell.workers);
            return 1;
        }
        std::printf("  %-18s %u worker(s): %8.3f s   %9.1f req/s\n",
                    "closed_loop_soak", cell.workers,
                    cell.best.wallSeconds,
                    cell.best.requestsPerSecond);
    }
    {
        const core::ClosedLoopPoint &p = soak.front().best;
        std::printf("  closed_loop_soak gc: %llu runs, %llu copies, "
                    "%llu erases, write amplification %.3f\n",
                    (unsigned long long)p.gcRuns,
                    (unsigned long long)p.gcPageCopies,
                    (unsigned long long)p.gcBlocksErased,
                    1.0 + static_cast<double>(p.gcPageCopies) /
                              static_cast<double>(p.hostPagesWritten));
    }

    // ---- BENCH_pr.json -------------------------------------------------
    FILE *f = std::fopen(out_path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", out_path);
        return 1;
    }
    std::fprintf(f, "{\n  \"schema\": \"fcos-perf-trajectory-v1\",\n");
    std::fprintf(f, "  \"reps\": %d,\n", reps);
    std::fprintf(f, "  \"peak_rss_bytes\": %llu,\n",
                 (unsigned long long)peakRssBytes());
    std::fprintf(f, "  \"workloads\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const WorkloadResult &wr = results[i];
        std::fprintf(f, "    {\n      \"name\": \"%s\",\n",
                     wr.name.c_str());
        std::fprintf(f, "      \"result_pages\": %llu,\n",
                     (unsigned long long)wr.cells.front().best.resultPages);
        std::fprintf(f, "      \"pages_simulated\": %llu,\n",
                     (unsigned long long)
                         wr.cells.front()
                             .best.pagesSimulated);
        std::fprintf(f, "      \"stream_digest\": %llu,\n",
                     (unsigned long long)wr.cells.front().best.digest);
        std::fprintf(f, "      \"runs\": [\n");
        for (std::size_t j = 0; j < wr.cells.size(); ++j) {
            const Cell &cell = wr.cells[j];
            const double pps = static_cast<double>(
                                   cell.best.pagesSimulated) /
                               cell.best.wallSeconds;
            std::fprintf(f,
                         "        {\"workers\": %u, \"wall_seconds\": "
                         "%.6f, \"pages_per_second\": %.1f}%s\n",
                         cell.workers, cell.best.wallSeconds, pps,
                         j + 1 < wr.cells.size() ? "," : "");
        }
        std::fprintf(f, "      ]\n    }%s\n",
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"observability\": {\n"
                 "    \"workload\": \"table1_and3\", \"workers\": 1,\n"
                 "    \"disabled_pages_per_second\": %.1f,\n"
                 "    \"enabled_pages_per_second\": %.1f,\n"
                 "    \"disabled_overhead_pct\": %.3f,\n"
                 "    \"enabled_overhead_pct\": %.3f\n  },\n",
                 off_pps, on_pps, off_overhead_pct, on_overhead_pct);
    {
        const core::TrafficPoint &p = mixed.front().best;
        static const char *const kClassNames[] = {"read", "write",
                                                  "compute"};
        std::fprintf(f,
                     "  \"mixed_traffic\": {\n"
                     "    \"config\": \"%s\", \"requests\": %u,\n"
                     "    \"stream_digest\": %llu,\n",
                     mixed_cfg.label().c_str(), mixed_cfg.requests,
                     (unsigned long long)p.digest);
        std::fprintf(f, "    \"latency_us\": {\n");
        for (int c = 0; c < 3; ++c)
            std::fprintf(
                f, "      \"%s\": {\"p50\": %.1f, \"p99\": %.1f}%s\n",
                kClassNames[c], timeToUs(p.byClass[c].p50),
                timeToUs(p.byClass[c].p99), c < 2 ? "," : "");
        std::fprintf(f, "    },\n    \"runs\": [\n");
        for (std::size_t j = 0; j < mixed.size(); ++j)
            std::fprintf(
                f,
                "      {\"workers\": %u, \"wall_seconds\": %.6f, "
                "\"requests_per_second\": %.1f}%s\n",
                mixed[j].workers, mixed[j].best.wallSeconds,
                mixed[j].best.requestsPerSecond,
                j + 1 < mixed.size() ? "," : "");
        std::fprintf(f, "    ]\n  },\n");
    }
    {
        const core::ClosedLoopPoint &p = soak.front().best;
        static const char *const kClassNames[] = {"read", "write",
                                                  "compute"};
        std::fprintf(f,
                     "  \"soak\": {\n"
                     "    \"config\": \"%s\", \"requests\": %llu,\n"
                     "    \"stream_digest\": %llu,\n"
                     "    \"gc_runs\": %llu,\n"
                     "    \"gc_page_copies\": %llu,\n"
                     "    \"gc_blocks_erased\": %llu,\n"
                     "    \"host_pages_written\": %llu,\n"
                     "    \"write_amplification\": %.4f,\n",
                     soak_cfg.label().c_str(),
                     (unsigned long long)soak_cfg.requests,
                     (unsigned long long)p.digest,
                     (unsigned long long)p.gcRuns,
                     (unsigned long long)p.gcPageCopies,
                     (unsigned long long)p.gcBlocksErased,
                     (unsigned long long)p.hostPagesWritten,
                     1.0 + static_cast<double>(p.gcPageCopies) /
                               static_cast<double>(p.hostPagesWritten));
        std::fprintf(f, "    \"latency_us\": {\n");
        for (int c = 0; c < 3; ++c)
            std::fprintf(
                f, "      \"%s\": {\"p50\": %.1f, \"p99\": %.1f}%s\n",
                kClassNames[c], timeToUs(p.byClass[c].p50),
                timeToUs(p.byClass[c].p99), c < 2 ? "," : "");
        std::fprintf(f, "    },\n    \"runs\": [\n");
        for (std::size_t j = 0; j < soak.size(); ++j)
            std::fprintf(
                f,
                "      {\"workers\": %u, \"wall_seconds\": %.6f, "
                "\"requests_per_second\": %.1f}%s\n",
                soak[j].workers, soak[j].best.wallSeconds,
                soak[j].best.requestsPerSecond,
                j + 1 < soak.size() ? "," : "");
        std::fprintf(f, "    ]\n  },\n");
    }
    // Scale-tier wall time per worker count: the sum over both
    // workloads, i.e. what the CTest scale label costs at that setting.
    std::fprintf(f, "  \"scale_tier\": [\n");
    for (std::size_t k = 0; k < std::size(kWorkerCounts); ++k) {
        double total = 0.0;
        for (const WorkloadResult &wr : results)
            total += wr.cells[k].best.wallSeconds;
        std::fprintf(f,
                     "    {\"workers\": %u, \"wall_seconds\": %.6f}%s\n",
                     kWorkerCounts[k], total,
                     k + 1 < std::size(kWorkerCounts) ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    // Headline ratio: total pages/sec at 4 workers over 1 worker.
    double t1 = 0.0, t4 = 0.0, pages_total = 0.0;
    for (const WorkloadResult &wr : results) {
        t1 += wr.cells.front().best.wallSeconds;
        t4 += wr.cells.back().best.wallSeconds;
        pages_total +=
            static_cast<double>(wr.cells.front().best.pagesSimulated);
    }
    std::fprintf(f, "  \"throughput_ratio_4w_over_1w\": %.4f\n", t1 / t4);
    std::fprintf(f, "}\n");
    std::fclose(f);

    std::printf("\n  4-worker/1-worker throughput: %s   (peak RSS %.1f "
                "MiB)\n",
                bench::ratioStr(t1 / t4).c_str(),
                static_cast<double>(peakRssBytes()) / (1024.0 * 1024.0));
    std::printf("  wrote %s (%.0f pages simulated per workload set)\n",
                out_path, pages_total);
    return 0;
}
