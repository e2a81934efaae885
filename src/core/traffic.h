/**
 * @file
 * Mixed-traffic generator and throughput-vs-latency sweep over the
 * drive's concurrent request API.
 *
 * An open-loop arrival process submits interleaved read / write /
 * compute requests (paced with FlashCosmosDrive::advanceTo so the
 * staged-request window stays bounded) and collects per-class
 * end-to-end latency quantiles — simulated arrival-to-completion,
 * queue wait included. The simulated side of every point (quantiles,
 * makespan, energy, payload digest) is bit-deterministic at any
 * worker count; the wall-clock side (requests/second of the host
 * simulator) is measured per run. bench/mixed_traffic prints both,
 * and the golden test pins the deterministic table.
 */

#ifndef FCOS_CORE_TRAFFIC_H
#define FCOS_CORE_TRAFFIC_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/drive.h"
#include "util/table.h"

namespace fcos::core {

/** The drive both traffic generators serve by default: tiny geometry,
 *  2 channels x 2 dies (8 plane columns). */
inline FlashCosmosDrive::Config
trafficDrive()
{
    FlashCosmosDrive::Config dc;
    dc.channels = 2;
    dc.dies = 2;
    return dc;
}

struct TrafficConfig
{
    /** Drive shape, worker lanes (0 = FCOS_WORKERS env default; results
     *  are worker-invariant) and admission window / QoS weights. */
    FlashCosmosDrive::Config drive = trafficDrive();
    /** Open-loop request count (6:2:2 read:write:compute mix). */
    std::uint32_t requests = 120;
    /** Mean inter-arrival gap of the open-loop process. */
    double interArrivalUs = 10.0;

    /** "20us 4:2:1" style row label. */
    std::string label() const;
};

/** Per-class simulated latency summary (arrival -> completion). */
struct ClassLatency
{
    std::uint64_t count = 0;
    Time p50 = 0;
    Time p99 = 0;
};

struct TrafficPoint
{
    ClassLatency byClass[3]; ///< indexed by engine::RequestClass
    /** Traffic span on the simulated clock (first arrival to last
     *  completion). */
    Time makespan = 0;
    double energyJ = 0.0;
    /** Order-sensitive fold of every read request's stream digest —
     *  the cross-worker-count determinism certificate. */
    std::uint64_t digest = 0;
};

/** Run one mixed-traffic configuration to completion. */
TrafficPoint runMixedTraffic(const TrafficConfig &cfg);

/**
 * Closed-loop steady-state generator: @p inflight independent request
 * chains, each keeping exactly one request in flight, continuously
 * reading, overwriting, trimming, and computing over a bounded working
 * set until @p requests requests have completed. Overwrites and trims
 * invalidate old pages, so the drive must recycle capacity (GC) to
 * serve the stream — unlike the open-loop mixed sweep, which only
 * appends. Every drive-side quantity is bit-deterministic at any
 * worker count; host memory stays O(working set + inflight) no matter
 * how many requests are served — the soak tier's contract.
 */
struct ClosedLoopConfig
{
    /** Drive shape, worker lanes and admission (as TrafficConfig). */
    FlashCosmosDrive::Config drive = trafficDrive();
    /** Closed-loop requests to serve (6:3:1 read:write:compute). */
    std::uint64_t requests = 1'000'000;
    /** Concurrent request chains (each chain: one request at a time). */
    std::uint32_t inflight = 8;
    /** Churn working set: single-page vectors being overwritten and
     *  trimmed (the invalid-capacity source GC reclaims). */
    std::uint32_t slots = 16;
    /** Resident working set: one-row vectors packed into a shared
     *  placement group (8 per sub-block wordline-stacked) and
     *  overwritten out of phase — garbage accumulates as holes in
     *  mostly-live sub-blocks, so GC has to *relocate* live pages
     *  (copyback traffic), not just erase dead blocks. Sized to keep
     *  the drive ~2/3 full. */
    std::uint32_t residents = 40;

    std::string label() const;
};

struct ClosedLoopPoint
{
    std::uint64_t completed = 0;
    /** Per-class end-to-end latency. Recorded in obs::Histogram's
     *  log2 buckets, so a million requests stay O(1) memory; p50/p99
     *  are bucket upper bounds clamped to the observed max, the
     *  metrics report's convention. */
    ClassLatency byClass[3];
    Time makespan = 0;
    double energyJ = 0.0;
    /** Order-sensitive fold of per-chain read digests — the
     *  cross-worker-count determinism certificate. */
    std::uint64_t digest = 0;
    double wallSeconds = 0.0;
    double requestsPerSecond = 0.0;

    // Steady-state bookkeeping at quiesce:
    std::uint64_t liveVectors = 0;  ///< stored vectors (bounded)
    std::uint64_t liveRequests = 0; ///< must be 0 after waitAll
    std::uint64_t peakStreamPages = 0;
    std::uint64_t gcRuns = 0;
    std::uint64_t gcPageCopies = 0;
    std::uint64_t gcBlocksErased = 0;
    std::uint64_t hostPagesWritten = 0;
};

/** Run one closed-loop configuration to completion. */
ClosedLoopPoint runClosedLoopTraffic(const ClosedLoopConfig &cfg);

/** The default sweep: arrival rates x QoS weight settings, serial. */
std::vector<TrafficConfig> defaultTrafficSweep();

/**
 * Deterministic throughput-vs-latency table over @p configs (the
 * wall-clock columns are deliberately excluded so the table can be
 * pinned as a golden). Points are appended to @p points when given.
 */
TablePrinter trafficReport(const std::vector<TrafficConfig> &configs,
                           std::vector<TrafficPoint> *points = nullptr);

} // namespace fcos::core

#endif // FCOS_CORE_TRAFFIC_H
