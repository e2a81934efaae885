#include "defs.h"

#include <cstdio>

namespace fcos::fcbench {

namespace {

// Each workload stresses a different layer; see README.md for the
// layer -> end-to-end table these were chosen against.
constexpr WorkloadDef kWorkloads[] = {
    {"bulk_and3",
     "IMS shape: AND of 3 uniform operands over the Table-1 SSD; the "
     "engine scheduler, ordered result stream and plane-parallel waves "
     "dominate host time"},
    {"bulk_bmi",
     "BMI shape: one 30-wordline MWS per column over 98%-density "
     "bitmaps; NAND page materialization dominates, isolating the nand "
     "layer"},
    {"serve_query",
     "open loop at 80k req/s on a 2x2-die drive, reads and in-flash ANDs "
     "over a stable pool: admission, event queue and pool handoff, no GC"},
    {"serve_soak",
     "closed loop, 8 chains, 6:3:1 read/write/compute with overwrites "
     "forcing GC copyback: the serve_query front end plus writes, "
     "conflicts and GC"},
};

// "ops" are operand pages sensed (bulk_*) or completed requests
// (serve_*). On a shared 4-core VM, where even a bare CPU loop drifts
// ~5% between 20-second windows, ten seeds spread host throughput by
// 2-9%, hence the widest bound the benchmark allows; memory repeats
// within 2%.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", false, 0.25},
    {"ops_per_s.w1", "1/s", true, 0.25},
    {"ops_per_s.w4", "1/s", true, 0.25},
    {"peak_rss_mib", "MiB", false, 0.1},
};

// Per request (serve_*) or per result page (bulk_*) unless the name
// says otherwise. Names follow the src/ module that owns the layer;
// sim_* and write_amp are the modelled drive's own clock and ledger.
constexpr MetricDef kPerLayer[] = {
    {"core.submit_us.w1", "us", false, 0},
    {"core.submit_us.w4", "us", false, 0},
    {"core.drain_us.w1", "us", false, 0},
    {"core.drain_us.w4", "us", false, 0},
    {"core.write_us_per_page", "us", false, 0},
    {"core.plan_us.and2", "us", false, 0},
    {"core.plan_us.and30", "us", false, 0},
    {"nand.materialize_us.p50", "us", false, 0},
    {"nand.materialize_us.p98", "us", false, 0},
    {"nand.mws_us.wl3", "us", false, 0},
    {"nand.mws_us.wl30", "us", false, 0},
    {"nand.senses_per_page", "count", false, 0},
    {"util.and_gbps", "GB/s", true, 0},
    {"sim.events_per_req", "count", false, 0},
    {"sim.wave_size_mean", "count", true, 0},
    {"sim.heap_bypass_frac", "ratio", true, 0},
    {"sim.host_ns_per_event.w1", "ns", false, 0},
    {"sim.host_ns_per_event.w4", "ns", false, 0},
    {"sim.pool_handoff_us", "us", false, 0},
    {"sim.pool_idle_frac", "ratio", false, 0},
    {"engine.die_ops_per_req", "count", false, 0},
    {"engine.plane_util_pct", "%", true, 0},
    {"engine.channel_util_pct", "%", true, 0},
    {"engine.queue_wait_us_mean", "us", false, 0},
    {"engine.admission_wait_us.read", "us", false, 0},
    {"engine.admission_wait_us.write", "us", false, 0},
    {"engine.admission_wait_us.compute", "us", false, 0},
    {"engine.admission_inflight_peak", "count", true, 0},
    {"engine.admission_backlog_peak", "count", false, 0},
    {"engine.admission_us.backlog64", "us", false, 0},
    {"engine.admission_us.backlog1024", "us", false, 0},
    {"engine.stream_peak_pages", "count", false, 0},
    {"ssd.gc_runs", "count", false, 0},
    {"ssd.gc_copies_per_kwrite", "count", false, 0},
    {"ssd.erases_per_kwrite", "count", false, 0},
    {"ssd.alloc_ns", "ns", false, 0},
    {"ssd.collect_us", "us", false, 0},
    {"obs.overhead_pct", "%", false, 0},
    {"sim_makespan_ms", "ms", false, 0},
    {"sim_energy_mj", "mJ", false, 0},
    {"sim_read_p50_us", "us", false, 0},
    {"sim_read_p999_us", "us", false, 0},
    {"sim_compute_p999_us", "us", false, 0},
    {"sim_write_p999_us", "us", false, 0},
    {"sim_kiops", "kIOPS", true, 0},
    {"write_amp", "ratio", false, 0},
};

const char *
better(const MetricDef &m)
{
    return m.higherIsBetter ? "higher" : "lower";
}

} // namespace

std::span<const WorkloadDef>
workloads()
{
    return kWorkloads;
}

std::span<const MetricDef>
endToEndMetrics()
{
    return kEndToEnd;
}

std::span<const MetricDef>
perLayerMetrics()
{
    return kPerLayer;
}

const MetricDef *
findMetric(std::string_view name)
{
    for (const MetricDef &m : kEndToEnd)
        if (name == m.name)
            return &m;
    for (const MetricDef &m : kPerLayer)
        if (name == m.name)
            return &m;
    return nullptr;
}

bool
isWorkload(std::string_view name)
{
    for (const WorkloadDef &w : kWorkloads)
        if (name == w.name)
            return true;
    return false;
}

std::string
describeJson()
{
    // Every string in the tables is plain ASCII without quotes or
    // backslashes, so it is emitted verbatim.
    std::string out;
    char buf[512];
    out += "{\n";
    out += "  \"command\": [\"bash\", \"benchmark/run.sh\"],\n";
    out += "  \"paths\": [\"benchmark\"],\n";
    std::snprintf(buf, sizeof buf, "  \"run_seconds\": %d,\n", kRunSeconds);
    out += buf;
    out += "  \"workloads\": [\n";
    for (std::size_t i = 0; i < std::size(kWorkloads); ++i) {
        std::snprintf(buf, sizeof buf,
                      "    {\"name\": \"%s\", \"why\": \"%s\"}%s\n",
                      kWorkloads[i].name, kWorkloads[i].why,
                      i + 1 < std::size(kWorkloads) ? "," : "");
        out += buf;
    }
    out += "  ],\n  \"end_to_end\": [\n";
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
        const MetricDef &m = kEndToEnd[i];
        std::snprintf(buf, sizeof buf,
                      "    {\"name\": \"%s\", \"unit\": \"%s\", \"better\": "
                      "\"%s\", \"bound\": %g}%s\n",
                      m.name, m.unit, better(m), m.bound,
                      i + 1 < std::size(kEndToEnd) ? "," : "");
        out += buf;
    }
    out += "  ],\n  \"per_layer\": [\n";
    for (std::size_t i = 0; i < std::size(kPerLayer); ++i) {
        const MetricDef &m = kPerLayer[i];
        std::snprintf(buf, sizeof buf,
                      "    {\"name\": \"%s\", \"unit\": \"%s\", \"better\": "
                      "\"%s\"}%s\n",
                      m.name, m.unit, better(m),
                      i + 1 < std::size(kPerLayer) ? "," : "");
        out += buf;
    }
    out += "  ]\n}\n";
    return out;
}

} // namespace fcos::fcbench
