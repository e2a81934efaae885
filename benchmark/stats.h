/**
 * @file
 * Median and quartiles of a sample, computed exactly as Python's
 * statistics.median and statistics.quantiles(values, n=4) do, so the
 * spreads fcbench reports match the ones its users compute.
 */

#ifndef FCBENCH_STATS_H
#define FCBENCH_STATS_H

#include <algorithm>
#include <vector>

namespace fcos::fcbench {

struct Summary
{
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
};

inline Summary
summarize(std::vector<double> v)
{
    Summary s;
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    s.median = n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    if (n < 2) {
        s.q1 = s.q3 = s.median;
        return s;
    }
    // "exclusive" method: position i * (n + 1) / 4, clamped to the data.
    const auto quartile = [&](std::size_t i) {
        const std::size_t m = n + 1;
        std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
        const double delta = static_cast<double>(i * m) - 4.0 * j;
        return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    };
    s.q1 = quartile(1);
    s.q3 = quartile(3);
    return s;
}

} // namespace fcos::fcbench

#endif // FCBENCH_STATS_H
