/**
 * @file
 * Span tracer producing Chrome trace_event JSON (Perfetto-loadable).
 *
 * Tracks mirror the simulator's hardware hierarchy: each channel is a
 * trace *process* (pid) whose *threads* (tids) are the channel bus,
 * the accelerator port, and the (die, plane) facilities behind it; the
 * drive itself is one more process carrying the request track and the
 * external link. Timestamps are **simulated** nanoseconds (exported as
 * fractional microseconds, the trace_event unit), so a timeline shows
 * where simulated time goes — never host scheduling noise.
 *
 * Two span flavours:
 *  - span():    a B/E pair on a serialized track. Callers guarantee
 *               spans of one track never overlap (true for Facility
 *               bookings — FIFO, non-overlapping by construction);
 *  - overlay(): an X (complete) event for intervals that may overlap
 *               on their track, e.g. queue-wait windows of ops stacked
 *               behind one plane.
 *
 * Recording happens only in serial simulation contexts (construction
 * and the event queue's commit phase), so the event stream — and the
 * digest of the exported JSON — is bit-identical for any worker count.
 * Span names must be string literals (or otherwise outlive the
 * tracer): only the pointer is stored.
 */

#ifndef FCOS_OBS_TRACE_H
#define FCOS_OBS_TRACE_H

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.h"

namespace fcos::obs {

class Tracer
{
  public:
    /** Register a trace process; @return its pid. */
    std::uint32_t newProcess(std::string name);

    /** Register a track (thread) under @p pid; @return the track id
     *  used by span()/overlay(). Tids are assigned in registration
     *  order within the process. */
    std::uint32_t newTrack(std::uint32_t pid, std::string name);

    /** Record a serialized occupancy [begin, end] as a B/E pair.
     *  Per track, calls must arrive with non-decreasing @p begin and
     *  begin >= the previous span's end. */
    void span(std::uint32_t track, const char *name, Time begin,
              Time end);

    /** Record a possibly-overlapping interval as an X event. Per
     *  track, calls must arrive with non-decreasing @p begin. */
    void overlay(std::uint32_t track, const char *name, Time begin,
                 Time end);

    std::uint64_t events() const { return events_; }
    std::size_t tracks() const { return tracks_.size(); }

    /** Serialize as Chrome trace_event JSON (one event per line). */
    std::string toJson() const;

    /** fnvDigestBytes() of toJson() — the determinism certificate. */
    std::uint64_t digest() const;

    /** Write toJson() to @p path, and its digest() to @p digest if
     *  given, rendering the JSON once, a chunk at a time.
     *  @return success. */
    bool writeFile(const std::string &path,
                   std::uint64_t *digest = nullptr) const;

  private:
    /** Render toJson()'s bytes in order, in chunks of about 1 MiB,
     *  through @p emit. */
    void render(const std::function<void(std::string_view)> &emit) const;

    struct Event
    {
        const char *name;
        Time begin;
        Time end;
        bool complete; ///< X event instead of a B/E pair
    };

    struct Track
    {
        std::uint32_t pid;
        std::uint32_t tid;
        std::string name;
        std::vector<Event> events;
    };

    std::vector<std::string> processes_; ///< index == pid
    std::vector<std::uint32_t> next_tid_;
    std::vector<Track> tracks_;
    std::uint64_t events_ = 0;
};

} // namespace fcos::obs

#endif // FCOS_OBS_TRACE_H
