/**
 * @file
 * Host-clock spans the benchmark records around its own calls into the
 * drive (submit*, advanceTo, waitAll, fcRead, fcWritePages). Spans nest
 * on the benchmark's thread: a span's parent is the innermost span open
 * when it starts (a closed-loop submit made from a completion callback
 * is a child of the waitAll that ran the callback). Spans are kept in
 * memory and written as Chrome trace_event JSON when the traced pass
 * ends; the simulator's simulated-time trace is separate.
 */

#ifndef FCBENCH_SPANS_H
#define FCBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fcos::fcbench {

class Spans
{
  public:
    Spans();

    /** Chrome "tid" of spans opened from now on (the worker count of
     *  the pass being traced). */
    void setLane(std::uint32_t lane) { lane_ = lane; }

    /** Open a span named @p name (a string literal) tagged with
     *  @p request (0 = none); spans close in reverse order of opening. */
    void open(const char *name, std::uint64_t request = 0);
    void close();

    /** Summed self time (duration minus direct children) of the spans
     *  named @p name on @p lane. */
    double selfSeconds(std::string_view name, std::uint32_t lane) const;

    /** Write every span as Chrome trace_event JSON; @return success. */
    bool writeChromeJson(const std::string &path) const;

  private:
    static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

    struct Span
    {
        const char *name;
        std::int64_t begin;
        std::int64_t end;
        std::int64_t childNs;
        std::uint32_t parent;
        std::uint32_t lane;
        std::uint64_t request;
    };

    std::chrono::steady_clock::time_point origin_;
    std::uint32_t lane_ = 0;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> open_;
};

/** RAII span; a no-op when @p spans is null (untraced runs). */
class SpanScope
{
  public:
    SpanScope(Spans *spans, const char *name, std::uint64_t request = 0)
        : spans_(spans)
    {
        if (spans_)
            spans_->open(name, request);
    }
    ~SpanScope()
    {
        if (spans_)
            spans_->close();
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Spans *spans_;
};

} // namespace fcos::fcbench

#endif // FCBENCH_SPANS_H
