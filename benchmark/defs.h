/**
 * @file
 * The benchmark's one definitions table: its workloads and its
 * end-to-end and per-layer metrics. `fcbench --describe` renders the
 * table as BENCHMARK.json and `fcbench --compare` takes directions and
 * bounds from it, so the three cannot drift apart.
 */

#ifndef FCBENCH_DEFS_H
#define FCBENCH_DEFS_H

#include <span>
#include <string>
#include <string_view>

namespace fcos::fcbench {

struct WorkloadDef
{
    const char *name;
    const char *why;
};

struct MetricDef
{
    const char *name;
    const char *unit;
    bool higherIsBetter;
    /** Share of the parent's median by which an end-to-end metric may
     *  worsen before a change counts as a regression. Per-layer metrics
     *  carry no bound (0). */
    double bound;
};

/** Seconds one untraced run measures (BENCHMARK.json "run_seconds"). */
inline constexpr int kRunSeconds = 25;

std::span<const WorkloadDef> workloads();
std::span<const MetricDef> endToEndMetrics();
std::span<const MetricDef> perLayerMetrics();

/** Definition of @p name in either list, or nullptr. */
const MetricDef *findMetric(std::string_view name);

/** True if @p name is one of workloads(). */
bool isWorkload(std::string_view name);

/** BENCHMARK.json, byte for byte. */
std::string describeJson();

} // namespace fcos::fcbench

#endif // FCBENCH_DEFS_H
