#include "core/traffic.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>

#include "obs/metrics.h"
#include "util/fnv.h"
#include "util/rng.h"
#include "util/units.h"

namespace fcos::core {
namespace {

constexpr std::size_t kPoolGroups = 4;
constexpr std::size_t kVectorBits = 1000; ///< 4 tiny-geometry pages

/** Request class of open-loop slot @p i (6:2:2 read:write:compute). */
std::size_t
classOfSlot(std::uint32_t i)
{
    const std::uint32_t slot = i % 10;
    return slot < 6 ? 0 : (slot < 8 ? 1 : 2);
}

ClassLatency
summarize(std::vector<Time> &lat)
{
    ClassLatency s;
    s.count = lat.size();
    if (lat.empty())
        return s;
    std::sort(lat.begin(), lat.end());
    s.p50 = lat[(lat.size() - 1) / 2];
    s.p99 = lat[(lat.size() - 1) * 99 / 100];
    return s;
}

} // namespace

std::string
TrafficConfig::label() const
{
    char buf[64];
    const auto &w = drive.admission.weights;
    std::snprintf(buf, sizeof buf, "%gus %u:%u:%u", interArrivalUs, w[0],
                  w[1], w[2]);
    return buf;
}

TrafficPoint
runMixedTraffic(const TrafficConfig &cfg)
{
    FlashCosmosDrive drive(cfg.drive);

    const std::uint32_t columns = cfg.drive.columnCount();
    const auto home = [columns](std::size_t g) {
        return static_cast<std::uint32_t>((g * 3) % columns);
    };

    // Operand pool: two co-located vectors per group, groups spread
    // over home columns so independent requests land on distinct dies.
    Rng rng = Rng::seeded(20260808);
    std::vector<VectorId> pool;
    for (std::size_t g = 0; g < kPoolGroups; ++g) {
        for (int v = 0; v < 2; ++v) {
            BitVector vec(kVectorBits);
            vec.randomize(rng);
            FlashCosmosDrive::WriteOptions opts;
            opts.group = g + 1;
            opts.homeColumn = home(g);
            pool.push_back(drive.fcWrite(vec, opts));
        }
    }

    const Time t0 = drive.now();
    const Time gap = usToTime(cfg.interArrivalUs);

    std::size_t read_count = 0;
    for (std::uint32_t i = 0; i < cfg.requests; ++i)
        read_count += classOfSlot(i) == 0;
    std::vector<DigestSink> sinks(read_count);
    std::vector<Time> lats[3];

    std::size_t r = 0;
    for (std::uint32_t i = 0; i < cfg.requests; ++i) {
        const std::size_t cls = classOfSlot(i);
        const std::size_t g = i % kPoolGroups;
        FlashCosmosDrive::RequestOptions ro;
        ro.arrival = t0 + gap * i;
        ro.onOutcome =
            [&lats, cls](const engine::RequestQueue::Outcome &oc) {
                lats[cls].push_back(oc.completed - oc.arrival);
            };
        if (cls == 0) {
            drive.submitReadVector(pool[(i * 5 + 1) % pool.size()],
                                   sinks[r++], nullptr, ro);
        } else if (cls == 1) {
            BitVector vec(kVectorBits);
            vec.randomize(rng);
            FlashCosmosDrive::WriteOptions opts;
            opts.group = g + 1;
            opts.homeColumn = home(g);
            drive.submitWrite(vec, opts, ro);
        } else {
            FlashCosmosDrive::WriteOptions opts;
            opts.group = g + 1;
            opts.homeColumn = home(g);
            drive.submitCompute(Expr::leaf(pool[2 * g]) &
                                    Expr::leaf(pool[2 * g + 1]),
                                opts, nullptr, ro);
        }
        // Paced (open-loop) submission: drain the clock up to the
        // current arrival so the staged-request window stays bounded.
        if ((i & 31) == 31)
            drive.advanceTo(ro.arrival);
    }
    drive.waitAll();

    TrafficPoint p;
    for (int c = 0; c < 3; ++c)
        p.byClass[c] = summarize(lats[c]);
    p.makespan = drive.now() - t0;
    p.energyJ = drive.engine().totalEnergyJ();
    // The traffic digest folds per-request stream digests in
    // submission order.
    std::uint64_t d = kFnvOffset;
    for (const DigestSink &s : sinks)
        d = fnvStep(d, s.digest());
    p.digest = d;
    return p;
}

namespace {

/** Request class of closed-loop op @p n (6:3:1 read:write:compute). */
std::size_t
classOfOp(std::uint64_t n)
{
    const std::uint64_t slot = n % 10;
    if (slot == 7)
        return 2;
    return (slot == 3 || slot == 5 || slot == 9) ? 1 : 0;
}

} // namespace

std::string
ClosedLoopConfig::label() const
{
    char buf[64];
    const auto &w = drive.admission.weights;
    std::snprintf(buf, sizeof buf, "%lluk x%u %u:%u:%u",
                  static_cast<unsigned long long>(requests / 1000),
                  inflight, w[0], w[1], w[2]);
    return buf;
}

ClosedLoopPoint
runClosedLoopTraffic(const ClosedLoopConfig &cfg)
{
    FlashCosmosDrive drive(cfg.drive);

    const std::uint32_t columns = cfg.drive.columnCount();
    const std::uint32_t inflight = std::max(1u, cfg.inflight);
    const std::uint32_t slots = std::max(1u, cfg.slots);
    const std::uint64_t seed = 0x50a6'20260808ULL;
    const auto home = [columns](std::uint64_t g) {
        return static_cast<std::uint32_t>((g * 3) % columns);
    };
    const auto slotHome = [columns](std::uint32_t s) {
        return static_cast<std::uint32_t>((s * 5 + 1) % columns);
    };
    /** Single-page image of write @p n (procedural: no host payload
     *  is materialized, so a million writes stay O(1) memory). */
    const auto pageGen = [seed](std::uint64_t n) {
        return [seed, n](std::uint64_t) {
            return nand::PageImage::random(Rng::mix(seed, n));
        };
    };
    // Churn groups sit far above the stable pool ids and far below the
    // drive's auto-group range.
    constexpr std::uint64_t kChurnGroupBase = 1000;
    constexpr std::uint64_t kResidentGroup = 999;
    const std::uint32_t residents = std::max(1u, cfg.residents);
    const std::uint32_t resident_home = 2 % columns;

    // Stable compute-operand pool: two co-located single-page vectors
    // per group, never trimmed. GC must relocate these live sub-blocks
    // as units whenever churn garbage accumulates around them.
    std::vector<VectorId> pool;
    for (std::uint64_t g = 0; g < kPoolGroups; ++g) {
        for (std::uint64_t v = 0; v < 2; ++v) {
            FlashCosmosDrive::WriteOptions wo;
            wo.group = g + 1;
            wo.homeColumn = home(g);
            pool.push_back(
                drive.submitWritePages(pageGen(g * 2 + v), 1, wo, {})
                    .vector);
        }
    }
    // Churn working set: the vectors the closed loop overwrites and
    // trims — the invalid-capacity source that forces recycling.
    std::vector<VectorId> slot_vec(slots);
    for (std::uint32_t s = 0; s < slots; ++s) {
        FlashCosmosDrive::WriteOptions wo;
        wo.group = kChurnGroupBase + s;
        wo.homeColumn = slotHome(s);
        slot_vec[s] =
            drive.submitWritePages(pageGen(1000 + s), 1, wo, {}).vector;
    }
    // Resident working set: one stripe row per vector, all in one
    // group, so 8 successive residents pack the 8 wordlines of one
    // sub-block per column. Out-of-phase overwrites punch holes into
    // those shared sub-blocks — the garbage only live-page relocation
    // can reclaim.
    std::vector<VectorId> resident_vec(residents);
    for (std::uint32_t r = 0; r < residents; ++r) {
        FlashCosmosDrive::WriteOptions wo;
        wo.group = kResidentGroup;
        wo.homeColumn = resident_home;
        resident_vec[r] =
            drive.submitWritePages(pageGen(3000 + r), columns, wo, {})
                .vector;
    }
    drive.waitAll();
    const Time t0 = drive.now();

    // One chain per inflight unit; chain c serves ops c, c+inflight,
    // c+2*inflight, ... — a fixed per-chain sequence, so the schedule
    // (and the digest fold) is worker-invariant.
    struct Chain
    {
        DigestSink sink;
        FlashCosmosDrive::ReadStats stats;
        std::uint64_t next = 0;
        VectorId scratch = kDriveNoVector;
    };
    std::vector<Chain> chains(inflight);
    obs::Histogram lats[3];
    std::uint64_t completed = 0;
    std::uint64_t write_counter = 2000; // page-image stream, post-setup
    // Residents are rewritten in a sequential sweep, not hashed: the
    // FTL reclaims holes only when a whole sub-block dies (unit moves
    // preserve wordline offsets), so a sweep — which kills the 8
    // wordlines of each resident sub-block back to back — keeps the
    // partially-dead sub count bounded. Hashed selection drains subs
    // so slowly that holes accumulate past device capacity.
    std::uint64_t resident_sweep = 0;

    std::function<void(std::uint32_t)> submitNext =
        [&](std::uint32_t c) {
            Chain &ch = chains[c];
            if (ch.next >= cfg.requests)
                return;
            const std::uint64_t n = ch.next;
            ch.next += inflight;
            const std::size_t cls = classOfOp(n);
            FlashCosmosDrive::RequestOptions ro;
            ro.onOutcome =
                [&, c, cls](const engine::RequestQueue::Outcome &oc) {
                    lats[cls].record(oc.completed - oc.arrival);
                    ++completed;
                    submitNext(c); // closed loop: completion refills
                };
            const std::uint32_t s =
                static_cast<std::uint32_t>((n * 7 + c) % slots);
            const std::uint64_t sel = n % 10;
            if (cls == 0) {
                // Read whatever version of the slot is current at
                // submit — deterministic, since submits happen in
                // serial contexts on the simulated clock.
                drive.submitReadVector(slot_vec[s], ch.sink, &ch.stats,
                                       ro);
            } else if (cls == 1 && sel == 9) {
                // Resident overwrite: invalidates one wordline of a
                // packed, mostly-live sub-block per column.
                const std::uint32_t r = static_cast<std::uint32_t>(
                    resident_sweep++ % residents);
                FlashCosmosDrive::WriteOptions wo;
                wo.group = kResidentGroup;
                wo.homeColumn = resident_home;
                wo.replaces = resident_vec[r];
                resident_vec[r] =
                    drive
                        .submitWritePages(pageGen(write_counter++),
                                          columns, wo, ro)
                        .vector;
            } else if (cls == 1) {
                FlashCosmosDrive::WriteOptions wo;
                wo.group = kChurnGroupBase + s;
                wo.homeColumn = slotHome(s);
                if (sel == 5) {
                    // Explicit trim, then append (the two-call form).
                    drive.trimVector(slot_vec[s]);
                } else {
                    // Overwrite semantics: one call trims + appends.
                    wo.replaces = slot_vec[s];
                }
                slot_vec[s] =
                    drive
                        .submitWritePages(pageGen(write_counter++), 1,
                                          wo, ro)
                        .vector;
            } else {
                // In-flash compute over a stable pair. The scratch
                // result must co-locate with its operands (program-
                // from-latch stays on the operand column), so it is
                // trimmed right at completion — otherwise every chain
                // could pile a scratch sub-block onto one column.
                const std::uint64_t g = (c + n) % kPoolGroups;
                FlashCosmosDrive::WriteOptions wo;
                wo.homeColumn = home(g);
                ro.onOutcome =
                    [&, c, cls](const engine::RequestQueue::Outcome &oc) {
                        Chain &self = chains[c];
                        drive.trimVector(self.scratch);
                        self.scratch = kDriveNoVector;
                        lats[cls].record(oc.completed - oc.arrival);
                        ++completed;
                        submitNext(c);
                    };
                ch.scratch =
                    drive
                        .submitCompute(Expr::leaf(pool[2 * g]) &
                                           Expr::leaf(pool[2 * g + 1]),
                                       wo, &ch.stats, ro)
                        .vector;
            }
        };

    const auto wall0 = std::chrono::steady_clock::now();
    for (std::uint32_t c = 0; c < inflight; ++c) {
        chains[c].next = c;
        submitNext(c);
    }
    drive.waitAll();
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - wall0;

    ClosedLoopPoint p;
    p.completed = completed;
    for (int c = 0; c < 3; ++c)
        p.byClass[c] = {lats[c].count(), lats[c].quantile(0.5),
                        lats[c].quantile(0.99)};
    p.makespan = drive.now() - t0;
    p.energyJ = drive.engine().totalEnergyJ();
    std::uint64_t d = kFnvOffset;
    for (const Chain &ch : chains)
        d = fnvStep(d, ch.sink.digest());
    p.digest = d;
    p.wallSeconds = wall.count();
    p.requestsPerSecond =
        wall.count() > 0.0 ? completed / wall.count() : 0.0;
    p.liveVectors = drive.liveVectorCount();
    p.liveRequests = drive.admission().liveRequestCount();
    for (const Chain &ch : chains)
        p.peakStreamPages =
            std::max(p.peakStreamPages, ch.stats.streamPeakPages);
    const FlashCosmosDrive::GcTotals &gc = drive.gcTotals();
    p.gcRuns = gc.runs;
    p.gcPageCopies = gc.pageCopies;
    p.gcBlocksErased = gc.blocksErased;
    p.hostPagesWritten = gc.hostPagesWritten;
    return p;
}

std::vector<TrafficConfig>
defaultTrafficSweep()
{
    std::vector<TrafficConfig> sweep;
    for (double gap_us : {50.0, 10.0, 2.0}) {
        for (int qos = 0; qos < 2; ++qos) {
            TrafficConfig cfg;
            cfg.interArrivalUs = gap_us;
            if (qos == 1)
                cfg.drive.admission.weights = {4, 2, 1};
            sweep.push_back(cfg);
        }
    }
    return sweep;
}

TablePrinter
trafficReport(const std::vector<TrafficConfig> &configs,
              std::vector<TrafficPoint> *points)
{
    TablePrinter table("mixed traffic: simulated throughput vs latency");
    table.setHeader({"config", "reqs", "rd p50us", "rd p99us",
                     "wr p50us", "wr p99us", "cp p50us", "cp p99us",
                     "span us", "energy J", "digest"});
    for (const TrafficConfig &cfg : configs) {
        const TrafficPoint p = runMixedTraffic(cfg);
        char digest[24];
        std::snprintf(digest, sizeof digest, "%016llx",
                      static_cast<unsigned long long>(p.digest));
        table.addRow({cfg.label(),
                      TablePrinter::cellInt(cfg.requests),
                      TablePrinter::cell(timeToUs(p.byClass[0].p50), 1),
                      TablePrinter::cell(timeToUs(p.byClass[0].p99), 1),
                      TablePrinter::cell(timeToUs(p.byClass[1].p50), 1),
                      TablePrinter::cell(timeToUs(p.byClass[1].p99), 1),
                      TablePrinter::cell(timeToUs(p.byClass[2].p50), 1),
                      TablePrinter::cell(timeToUs(p.byClass[2].p99), 1),
                      TablePrinter::cell(timeToUs(p.makespan), 1),
                      TablePrinter::cellSci(p.energyJ, 3), digest});
        if (points)
            points->push_back(p);
    }
    return table;
}

} // namespace fcos::core
