/**
 * @file
 * Mixed traffic — overlapped read / write / compute requests through
 * the drive's admission queue (the concurrent request API).
 *
 * Two tables. The first is the deterministic throughput-vs-latency
 * sweep over arrival rates and QoS weight settings: per-class
 * simulated p50/p99 end-to-end latency (arrival to completion, queue
 * wait included), traffic span, energy, and the payload digest — all
 * bit-identical at any worker count, and pinned as a golden by
 * tests/core/traffic_golden_test.cc. The second measures the host
 * simulator itself: wall-clock requests/second of the heaviest sweep
 * point at 1, 2, and 4 workers, with the digest certifying that the
 * worker count never perturbed the simulated schedule.
 */

#include "bench/bench_util.h"
#include "core/traffic.h"
#include "util/units.h"

using namespace fcos;

int
main(int argc, char **argv)
{
    fcos::bench::initObs(argc, argv);
    bench::header("Mixed traffic",
                  "overlapped I/O + compute through conflict-grained "
                  "admission (throughput vs latency)");

    std::vector<core::TrafficPoint> points;
    TablePrinter table =
        core::trafficReport(core::defaultTrafficSweep(), &points);
    table.print();
    std::printf("\n");

    if (points.size() >= 6) {
        // Rows alternate 1:1:1 / 4:2:1 per arrival rate; the last
        // pair is the 2us (most contended) rate.
        const core::TrafficPoint &flat = points[4];
        const core::TrafficPoint &qos = points[5];
        bench::anchor("read p99, 2us arrivals, qos 4:2:1 vs 1:1:1",
                      "lower (reads favored)",
                      bench::ratioStr(
                          timeToUs(qos.byClass[0].p99) /
                          timeToUs(flat.byClass[0].p99)));
        bench::anchor("span, 2us arrivals, qos 4:2:1 vs 1:1:1",
                      "~1x (work conserving)",
                      bench::ratioStr(timeToUs(qos.makespan) /
                                      timeToUs(flat.makespan)));
    }

    // Host-simulator throughput of the most contended point at 1/2/4
    // worker lanes. The digest column is the determinism certificate:
    // identical digests mean identical simulated schedules.
    TablePrinter wall("host simulator: wall-clock requests/second");
    wall.setHeader({"workers", "reqs", "wall s", "req/s", "digest ok"});
    core::TrafficConfig heavy;
    heavy.interArrivalUs = 2.0;
    std::uint64_t base_digest = 0;
    for (std::uint32_t workers : {1u, 2u, 4u}) {
        heavy.drive.workers = workers;
        const core::TrafficPoint p = core::runMixedTraffic(heavy);
        if (workers == 1)
            base_digest = p.digest;
        wall.addRow({TablePrinter::cellInt(workers),
                     TablePrinter::cellInt(heavy.requests),
                     TablePrinter::cell(p.wallSeconds, 4),
                     TablePrinter::cell(p.requestsPerSecond, 1),
                     p.digest == base_digest ? "yes" : "NO"});
    }
    wall.print();
    return 0;
}
