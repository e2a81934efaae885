/**
 * @file
 * Pins the mixed-traffic throughput-vs-latency sweep (the table
 * bench/mixed_traffic prints) as a golden: per-class simulated p50/p99
 * latency, traffic span, energy, and payload digest for every arrival
 * rate x QoS weight point. Also proves the sweep's heaviest point is
 * bit-identical across worker counts via the stream-digest fold.
 */

#include <gtest/gtest.h>

#include "core/traffic.h"
#include "tests/support/golden.h"

namespace fcos::core {
namespace {

TEST(TrafficGoldenTest, SweepTableMatchesGolden)
{
    TablePrinter table = trafficReport(defaultTrafficSweep());
    EXPECT_TRUE(test::MatchesGolden(
        table.toString(), "golden/mixed_traffic_sweep.txt"));
}

TEST(TrafficGoldenTest, DigestIsWorkerCountInvariant)
{
    TrafficConfig heavy;
    heavy.interArrivalUs = 2.0;
    TrafficPoint base;
    for (std::uint32_t workers : {1u, 2u, 4u}) {
        heavy.drive.workers = workers;
        const TrafficPoint p = runMixedTraffic(heavy);
        if (workers == 1) {
            base = p;
            continue;
        }
        EXPECT_EQ(p.digest, base.digest) << workers << " workers";
        EXPECT_EQ(p.makespan, base.makespan) << workers << " workers";
        EXPECT_EQ(p.byClass[0].p99, base.byClass[0].p99)
            << workers << " workers";
        EXPECT_DOUBLE_EQ(p.energyJ, base.energyJ)
            << workers << " workers";
    }
}

} // namespace
} // namespace fcos::core
