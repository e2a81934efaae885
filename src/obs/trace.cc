#include "obs/trace.h"

#include "util/fnv.h"
#include "util/log.h"

namespace fcos::obs {

std::uint32_t
Tracer::newProcess(std::string name)
{
    processes_.push_back(std::move(name));
    next_tid_.push_back(0);
    return static_cast<std::uint32_t>(processes_.size() - 1);
}

std::uint32_t
Tracer::newTrack(std::uint32_t pid, std::string name)
{
    fcos_assert(pid < processes_.size(), "track under unknown pid %u",
                pid);
    tracks_.push_back(Track{pid, next_tid_[pid]++, std::move(name), {}});
    return static_cast<std::uint32_t>(tracks_.size() - 1);
}

void
Tracer::span(std::uint32_t track, const char *name, Time begin, Time end)
{
    if (track >= tracks_.size())
        return; // stale handle from a previous session: drop
    fcos_assert(begin <= end, "span ends before it begins");
    tracks_[track].events.push_back(Event{name, begin, end, false});
    ++events_;
}

void
Tracer::overlay(std::uint32_t track, const char *name, Time begin,
                Time end)
{
    if (track >= tracks_.size())
        return;
    fcos_assert(begin <= end, "overlay ends before it begins");
    tracks_[track].events.push_back(Event{name, begin, end, true});
    ++events_;
}

namespace {

/** trace_event "ts" is microseconds; print at ns resolution. */
void
appendTs(std::string &out, Time ns)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                  (unsigned long long)(ns / 1000),
                  (unsigned long long)(ns % 1000));
    out += buf;
}

} // namespace

std::string
Tracer::toJson() const
{
    std::string out;
    out.reserve(128 + events_ * 72);
    out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    bool first = true;
    auto sep = [&] {
        if (!first)
            out += ",\n";
        first = false;
    };

    for (std::uint32_t pid = 0; pid < processes_.size(); ++pid) {
        sep();
        out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
        out += std::to_string(pid);
        out += ",\"tid\":0,\"args\":{\"name\":\"";
        out += processes_[pid];
        out += "\"}}";
    }
    for (const Track &t : tracks_) {
        sep();
        out += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":";
        out += std::to_string(t.pid);
        out += ",\"tid\":";
        out += std::to_string(t.tid);
        out += ",\"args\":{\"name\":\"";
        out += t.name;
        out += "\"}}";
    }

    for (const Track &t : tracks_) {
        const std::string ids = ",\"pid\":" + std::to_string(t.pid) +
                                ",\"tid\":" + std::to_string(t.tid);
        for (const Event &e : t.events) {
            sep();
            if (e.complete) {
                out += "{\"ph\":\"X\",\"name\":\"";
                out += e.name;
                out += "\"";
                out += ids;
                out += ",\"ts\":";
                appendTs(out, e.begin);
                out += ",\"dur\":";
                appendTs(out, e.end - e.begin);
                out += "}";
            } else {
                out += "{\"ph\":\"B\",\"name\":\"";
                out += e.name;
                out += "\"";
                out += ids;
                out += ",\"ts\":";
                appendTs(out, e.begin);
                out += "}";
                sep();
                out += "{\"ph\":\"E\"";
                out += ids;
                out += ",\"ts\":";
                appendTs(out, e.end);
                out += "}";
            }
        }
    }
    out += "\n]}\n";
    return out;
}

std::uint64_t
Tracer::digest() const
{
    return fnv1a(toJson());
}

bool
Tracer::writeFile(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string json = toJson();
    const bool ok =
        std::fwrite(json.data(), 1, json.size(), f) == json.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace fcos::obs
