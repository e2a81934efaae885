/**
 * @file
 * Soak tier: a million closed-loop requests through the concurrent
 * request API at steady state. The drive must *serve* — overwrites
 * and trims continuously invalidate capacity, GC recycles it as real
 * copyback + erase traffic, and every host-side structure stays
 * bounded: live vectors O(working set), admission map O(inflight),
 * process RSS flat no matter how many requests are pushed through.
 *
 * FCOS_SOAK_REQUESTS overrides the request count (the tsan tier and
 * quick local runs use a reduced count); the payload digest is pinned
 * only at the default count. The _w2/_w4 CTest registrations re-run
 * this binary with FCOS_WORKERS=2/4 + FCOS_FORCE_THREADS=1 — the
 * pinned digest passing at every worker count is the soak tier's
 * determinism certificate.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdlib>

#include "core/traffic.h"

namespace fcos::core {
namespace {

constexpr std::uint64_t kDefaultRequests = 1'000'000;

/** Pinned digest of the default-count run (any worker count). */
constexpr std::uint64_t kSoakDigest = 0x950f42dcbd1b5674ULL;

std::uint64_t
requestCount()
{
    if (const char *env = std::getenv("FCOS_SOAK_REQUESTS"))
        return std::strtoull(env, nullptr, 10);
    return kDefaultRequests;
}

/** Current process max-RSS in MiB (Linux: ru_maxrss is KiB). */
long
maxRssMib()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024;
}

TEST(TrafficSoak, ClosedLoopSteadyState)
{
    ClosedLoopConfig cfg;
    cfg.requests = requestCount();
    const ClosedLoopPoint p = runClosedLoopTraffic(cfg);

    // Every request completed, and completion emptied the per-request
    // bookkeeping — nothing is retained per served request.
    EXPECT_EQ(p.completed, cfg.requests);
    EXPECT_EQ(p.liveRequests, 0u);

    // Live vectors are the working set only: stable pool (8) + churn
    // slots + residents + at most one scratch per chain.
    EXPECT_LE(p.liveVectors,
              8u + cfg.slots + cfg.residents + cfg.inflight);

    // The drive actually recycled: GC ran, erased blocks back onto the
    // free list, and relocated live pages as engine copy traffic.
    EXPECT_GT(p.gcRuns, 0u);
    EXPECT_GT(p.gcBlocksErased, 0u);
    EXPECT_GT(p.gcPageCopies, 0u);
    EXPECT_GT(p.hostPagesWritten, 0u);

    // Latency accounting covered every request, in the 6:3:1 mix.
    const std::uint64_t counted = p.byClass[0].count +
                                  p.byClass[1].count +
                                  p.byClass[2].count;
    EXPECT_EQ(counted, cfg.requests);
    EXPECT_GT(p.byClass[0].count, p.byClass[1].count);
    EXPECT_GT(p.byClass[1].count, p.byClass[2].count);
    // Every class has a real latency distribution: quantiles are
    // positive and ordered.
    for (const ClassLatency &cls : p.byClass) {
        EXPECT_GT(cls.p50, Time{0});
        EXPECT_LE(cls.p50, cls.p99);
    }
    EXPECT_GT(p.makespan, Time{0});

    // Streamed reads never buffered more than the single-page stripe.
    EXPECT_LE(p.peakStreamPages, 1u);

    if (cfg.requests == kDefaultRequests && kSoakDigest != 0) {
        EXPECT_EQ(p.digest, kSoakDigest);
    }

    // Bounded memory: a million requests with per-request leaks of
    // even ~100 bytes would blow well past this ceiling.
    EXPECT_LT(maxRssMib(), 256);

    std::printf("soak: %llu reqs, %.0f req/s wall, gc runs %llu, "
                "copies %llu, erases %llu, host pages %llu, "
                "digest %016llx, maxrss %ld MiB\n",
                static_cast<unsigned long long>(p.completed),
                p.requestsPerSecond,
                static_cast<unsigned long long>(p.gcRuns),
                static_cast<unsigned long long>(p.gcPageCopies),
                static_cast<unsigned long long>(p.gcBlocksErased),
                static_cast<unsigned long long>(p.hostPagesWritten),
                static_cast<unsigned long long>(p.digest), maxRssMib());
}

} // namespace
} // namespace fcos::core
