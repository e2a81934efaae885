/**
 * @file
 * `fcbench --compare BASE CHANGE`: reads the "workload metric unit
 * value" lines two sets of runs appended to their results files and
 * gives each (workload, metric) a verdict.
 *
 *  - better: over at least ten run pairs (i-th base run against i-th
 *    change run), the change wins at least 9 in 10 (ties count for
 *    neither side) and the medians differ by more than the base runs'
 *    quartile spread;
 *  - worse: the change's median is worse than the base median by more
 *    than the metric's bound (per-layer metrics, which have no bound:
 *    the change loses 9 of 10 pairs by more than the base spread);
 *  - unresolved: the base spread is wider than the bound and the change
 *    does not beat every base run, or a per-layer metric moved by less
 *    than the rules above can call;
 *  - same: otherwise.
 *
 * Exits 1 if any end-to-end metric is worse on any workload.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "defs.h"
#include "stats.h"

namespace fcos::fcbench {

namespace {

using Key = std::pair<std::string, std::string>; // (workload, metric)
using Runs = std::map<Key, std::vector<double>>;

/** Values per (workload, metric) in file order; @p path may be a
 *  results file or the directory holding results.txt. */
bool
load(const std::string &path, Runs &runs)
{
    std::string file = path;
    if (std::filesystem::is_directory(path))
        file = path + "/results.txt";
    std::ifstream in(file);
    if (!in) {
        std::fprintf(stderr, "fcbench: cannot read %s\n", file.c_str());
        return false;
    }
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string workload, metric, unit;
        double value = 0.0;
        if (fields >> workload >> metric >> unit >> value)
            runs[{workload, metric}].push_back(value);
    }
    return true;
}

const char *
verdict(const MetricDef &d, const std::vector<double> &base,
        const std::vector<double> &change)
{
    if (base == change)
        return "same";
    const Summary b = summarize(base);
    const Summary c = summarize(change);
    const double sign = d.higherIsBetter ? 1.0 : -1.0;
    const double spread = b.q3 - b.q1;
    std::size_t wins = 0, losses = 0;
    const std::size_t pairs = std::min(base.size(), change.size());
    for (std::size_t i = 0; i < pairs; ++i) {
        const double diff = sign * (change[i] - base[i]);
        wins += diff > 0;
        losses += diff < 0;
    }
    // The pairs rule needs at least ten pairs.
    const bool enough = pairs >= 10;
    const double gain = sign * (c.median - b.median);
    if (enough && wins * 10 >= pairs * 9 && std::abs(gain) > spread)
        return "better";
    if (d.bound <= 0) {
        if (enough && losses * 10 >= pairs * 9 && std::abs(gain) > spread)
            return "worse";
        return std::abs(gain) > spread ? "unresolved" : "same";
    }
    const double scale = std::abs(b.median);
    const auto [bmin, bmax] = std::minmax_element(base.begin(), base.end());
    const auto [cmin, cmax] = std::minmax_element(change.begin(), change.end());
    const bool beats_all =
        d.higherIsBetter ? *cmin > *bmax : *cmax < *bmin;
    if (spread > d.bound * scale && !beats_all)
        return "unresolved";
    return -gain > d.bound * scale ? "worse" : "same";
}

} // namespace

int
compareMain(const std::string &base_path, const std::string &change_path)
{
    Runs base, change;
    if (!load(base_path, base) || !load(change_path, change))
        return 2;
    std::printf("%-12s %-34s %-6s %32s %32s %8s  %s\n", "workload",
                "metric", "unit", "base median [q1, q3]",
                "change median [q1, q3]", "delta", "verdict");
    bool worse = false;
    for (const auto &[key, bvals] : base) {
        const auto it = change.find(key);
        const MetricDef *d = findMetric(key.second);
        if (it == change.end() || !d)
            continue;
        const Summary b = summarize(bvals);
        const Summary c = summarize(it->second);
        const char *v = verdict(*d, bvals, it->second);
        char bs[64], cs[64];
        std::snprintf(bs, sizeof bs, "%.5g [%.5g, %.5g]", b.median, b.q1,
                      b.q3);
        std::snprintf(cs, sizeof cs, "%.5g [%.5g, %.5g]", c.median, c.q1,
                      c.q3);
        const double delta =
            b.median != 0 ? (c.median / b.median - 1.0) * 100.0 : 0.0;
        std::printf("%-12s %-34s %-6s %32s %32s %+7.2f%%  %s\n",
                    key.first.c_str(), d->name, d->unit, bs, cs, delta, v);
        worse |= d->bound > 0 && std::string(v) == "worse";
    }
    return worse ? 1 : 0;
}

} // namespace fcos::fcbench
