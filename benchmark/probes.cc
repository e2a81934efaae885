/**
 * @file
 * Layer probes: each times one layer's public function in isolation,
 * sized like the workload that leans on it. They call the same
 * functions as bench/micro_engine.cc's kernels (BitVector AND, chip
 * MWS, planner, event-queue pool handoff) plus page materialization,
 * admission under backlog and FTL allocate/collect churn.
 */

#include <chrono>
#include <tuple>
#include <vector>

#include "core/drive.h"
#include "core/result_sink.h"
#include "nand/chip.h"
#include "sim/worker_pool.h"
#include "ssd/ftl.h"
#include "stats.h"
#include "util/rng.h"
#include "workloads.h"

namespace fcos::fcbench {

using core::Expr;
using core::FlashCosmosDrive;

namespace {

/** Keeps @p v observable so the probed call is not optimized away. */
inline void
keep(std::uint64_t v)
{
    asm volatile("" : : "g"(v) : "memory");
}

/** Median over @p batches of the microseconds per call of @p calls
 *  calls to @p fn(i). */
template <class Fn>
double
usPerCall(int batches, int calls, Fn &&fn)
{
    std::vector<double> per_call;
    for (int b = 0; b < batches; ++b) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < calls; ++i)
            fn(b * calls + i);
        const std::chrono::duration<double, std::micro> dt =
            std::chrono::steady_clock::now() - t0;
        per_call.push_back(dt.count() / calls);
    }
    return summarize(std::move(per_call)).median;
}

void
probeNand(std::uint64_t seed, Metrics &out)
{
    const nand::Geometry geom = nand::Geometry::table1();
    const std::size_t bits = geom.pageBits();
    for (const auto &[name, density, calls] :
         {std::tuple{"nand.materialize_us.p50", 0.5, 200},
          std::tuple{"nand.materialize_us.p98", 0.98, 8}}) {
        out[name] = usPerCall(3, calls, [&, density = density](int i) {
            keep(nand::PageImage::random(Rng::mix(seed, i), density)
                     .materialize(bits)
                     .words()[0]);
        });
    }

    // MWS on the sparse store senses (materializes) every selected page:
    // 3 uniform wordlines as in bulk_and3, 30 biased ones as in bulk_bmi.
    nand::NandChip chip(geom, nand::Timings{}, nullptr,
                        nand::PageStoreKind::Sparse);
    for (const auto &[name, block, wordlines, density, calls] :
         {std::tuple{"nand.mws_us.wl3", 0u, 3u, 0.5, 50},
          std::tuple{"nand.mws_us.wl30", 1u, 30u, 0.98, 2}}) {
        nand::MwsCommand cmd;
        std::uint64_t mask = 0;
        for (std::uint32_t wl = 0; wl < wordlines; ++wl) {
            chip.programPageEsp(
                nand::WordlineAddr{0, block, 0, wl},
                nand::PageImage::random(Rng::mix(seed + block, wl), density));
            mask |= 1ULL << wl;
        }
        cmd.selections.push_back(nand::WlSelection{block, 0, mask});
        out[name] = usPerCall(3, calls, [&](int) {
            chip.executeMws(cmd);
            keep(chip.dataOut(0).words()[0]);
        });
    }
}

void
probeUtil(std::uint64_t seed, Metrics &out)
{
    const std::size_t bits = nand::Geometry::table1().pageBits();
    Rng rng = Rng::seeded(seed);
    BitVector a(bits), b(bits);
    a.randomize(rng);
    b.randomize(rng);
    const double us = usPerCall(5, 20'000, [&](int) { a &= b; });
    keep(a.words()[0]);
    out["util.and_gbps"] = static_cast<double>(bits / 8) / (us * 1e3);
}

void
probePlanner(std::uint64_t seed, Metrics &out)
{
    FlashCosmosDrive::Config cfg;
    cfg.geometry = nand::Geometry::table1();
    cfg.dies = 1;
    FlashCosmosDrive drive(cfg);
    std::vector<Expr> leaves;
    FlashCosmosDrive::WriteOptions wo;
    wo.group = 1;
    for (std::uint64_t k = 0; k < 30; ++k) {
        leaves.push_back(Expr::leaf(drive.fcWritePages(
            [&](std::uint64_t) {
                return nand::PageImage::random(Rng::mix(seed, k));
            },
            1, wo)));
    }
    const Expr and2 = leaves[0] & leaves[1];
    const Expr and30 = Expr::And(leaves);
    out["core.plan_us.and2"] = usPerCall(5, 2'000, [&](int) {
        keep(drive.planFor(and2).commands.size());
    });
    out["core.plan_us.and30"] = usPerCall(5, 500, [&](int) {
        keep(drive.planFor(and30).commands.size());
    });
}

void
probePool(Metrics &out)
{
    WorkerPool pool(4);
    const WorkerPool::LaneFn empty = [](std::uint32_t) {};
    out["sim.pool_handoff_us"] =
        usPerCall(5, 2'000, [&](int) { pool.run(empty); });
}

/** Submit @p n independent reads arriving together, then drain: every
 *  admission rescans the pending list, so cost per request grows with
 *  the backlog. */
void
probeAdmission(std::uint64_t seed, Metrics &out)
{
    FlashCosmosDrive::Config cfg;
    cfg.channels = 2;
    cfg.dies = 2;
    cfg.workers = 1;
    FlashCosmosDrive drive(cfg);
    std::vector<core::VectorId> pool;
    for (std::uint32_t v = 0; v < 8; ++v) {
        FlashCosmosDrive::WriteOptions wo;
        wo.homeColumn = v;
        pool.push_back(drive.fcWritePages(
            [&](std::uint64_t) {
                return nand::PageImage::random(Rng::mix(seed, v));
            },
            1, wo));
    }
    for (const auto &[name, n] :
         {std::pair{"engine.admission_us.backlog64", 64},
          std::pair{"engine.admission_us.backlog1024", 1024}}) {
        std::vector<core::DigestSink> sinks(n);
        const int batches = 5;
        const double us_per_batch = usPerCall(batches, 1, [&](int) {
            FlashCosmosDrive::RequestOptions ro;
            ro.arrival = drive.now() + 1000;
            for (int i = 0; i < n; ++i)
                drive.submitReadVector(pool[i % pool.size()], sinks[i],
                                       nullptr, ro);
            drive.waitAll();
        });
        keep(sinks[0].digest());
        out[name] = us_per_batch / n;
    }
}

/** Striped allocate/free churn on the FTL, collecting whenever a
 *  column hits its free-block reserve. */
void
probeFtl(Metrics &out)
{
    ssd::Ftl ftl(4, nand::Geometry::tiny());
    const std::uint32_t cols = ftl.columns();
    constexpr int kLive = 8;
    constexpr int kRounds = 20'000;
    std::vector<std::vector<ssd::Lpn>> ring(kLive);
    std::chrono::duration<double> collect{0};
    std::uint64_t collects = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kRounds; ++i) {
        for (ssd::Lpn lpn : ring[i % kLive])
            ftl.free(lpn);
        for (std::uint32_t c = 0; c < cols; ++c) {
            while (ftl.gcNeeded(c)) {
                const auto c0 = std::chrono::steady_clock::now();
                ssd::Ftl::GcPlan plan;
                const bool ok = ftl.collect(c, {}, &plan);
                collect += std::chrono::steady_clock::now() - c0;
                if (!ok)
                    break;
                ++collects;
                keep(plan.moves.size());
            }
        }
        ring[i % kLive] = ftl.allocateStriped(cols);
    }
    const std::chrono::duration<double> total =
        std::chrono::steady_clock::now() - t0;
    out["ssd.alloc_ns"] =
        (total - collect).count() * 1e9 / (double(kRounds) * cols);
    out["ssd.collect_us"] =
        collects ? collect.count() * 1e6 / double(collects) : 0.0;
}

} // namespace

void
runProbes(std::uint64_t seed, Metrics &out)
{
    probeNand(seed, out);
    probeUtil(seed, out);
    probePlanner(seed, out);
    probePool(out);
    probeAdmission(seed, out);
    probeFtl(out);
}

} // namespace fcos::fcbench
