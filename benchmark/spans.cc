#include "spans.h"

#include <cstdio>

namespace fcos::fcbench {

namespace {

std::int64_t
nsSince(std::chrono::steady_clock::time_point origin)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

} // namespace

Spans::Spans() : origin_(std::chrono::steady_clock::now()) {}

void
Spans::open(const char *name, std::uint64_t request)
{
    const std::int64_t t = nsSince(origin_);
    const std::uint32_t parent = open_.empty() ? kNoParent : open_.back();
    open_.push_back(static_cast<std::uint32_t>(spans_.size()));
    spans_.push_back(Span{name, t, t, 0, parent, lane_, request});
}

void
Spans::close()
{
    Span &s = spans_[open_.back()];
    open_.pop_back();
    s.end = nsSince(origin_);
    if (s.parent != kNoParent)
        spans_[s.parent].childNs += s.end - s.begin;
}

double
Spans::selfSeconds(std::string_view name, std::uint32_t lane) const
{
    std::int64_t ns = 0;
    for (const Span &s : spans_)
        if (s.lane == lane && name == s.name)
            ns += s.end - s.begin - s.childNs;
    return static_cast<double>(ns) * 1e-9;
}

bool
Spans::writeChromeJson(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(
            f,
            "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
            "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
            "\"parent\": %lld, \"request\": %llu}}%s\n",
            s.name, s.lane, static_cast<double>(s.begin) * 1e-3,
            static_cast<double>(s.end - s.begin) * 1e-3, i,
            s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
            static_cast<unsigned long long>(s.request),
            i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

} // namespace fcos::fcbench
