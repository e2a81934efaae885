/**
 * @file
 * Mixed traffic — overlapped read / write / compute requests through
 * the drive's admission queue (the concurrent request API).
 *
 * The deterministic throughput-vs-latency sweep over arrival rates
 * and QoS weight settings: per-class simulated p50/p99 end-to-end
 * latency (arrival to completion, queue wait included), traffic span,
 * energy, and the payload digest — all bit-identical at any worker
 * count, and pinned as a golden by tests/core/traffic_golden_test.cc.
 * Host throughput of open-loop serving is measured by fcbench's
 * `serve_query` workload.
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
    return 0;
}
