/**
 * @file
 * The four benchmark workloads as "cells": one drive set up for one
 * workload at one worker count, driven only through the drive's public
 * fcWritePages / fcRead / submit* / advanceTo / waitAll calls. Inputs
 * come from the seed alone, and unit k of a cell is the same work at
 * any worker count, so 1- and 4-worker cells must return equal digests.
 */

#ifndef FCBENCH_WORKLOADS_H
#define FCBENCH_WORKLOADS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/drive.h"
#include "spans.h"

namespace fcos::fcbench {

using Metrics = std::map<std::string, double>;

inline double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

struct Params
{
    std::uint64_t seed = 1;
    std::uint32_t workers = 1;
    /** Multiplier on every workload size (smoke runs, trace slices). */
    double scale = 1.0;
};

/** One unit of work on one cell. */
struct Rep
{
    double seconds = 0.0;        ///< host wall time of the timed region
    std::uint64_t ops = 0;       ///< operand pages sensed or requests
    std::uint64_t digest = 0;    ///< fold of every result returned
    std::uint64_t attempted = 0; ///< results checked
    std::uint64_t failed = 0;    ///< wrong results + incomplete requests
};

/** What a cell served since Cell::beginWindow(). */
struct Window
{
    std::uint64_t units = 0;       ///< requests, or result pages (bulk)
    std::uint64_t resultPages = 0; ///< pages streamed to result sinks
    /** Simulated arrival->completion latency per request class. */
    std::vector<Time> read, write, compute;
};

class Cell
{
  public:
    explicit Cell(const core::FlashCosmosDrive::Config &cfg) : drive_(cfg) {}
    virtual ~Cell() = default;
    Cell(const Cell &) = delete;
    Cell &operator=(const Cell &) = delete;

    /** Run the next unit. Result checks run after the timed region. */
    virtual Rep rep(Spans *spans) = 0;

    /** Units the traced pass runs: fixed per workload, so the
     *  simulated-clock metrics of that pass repeat exactly at a seed. */
    virtual std::uint32_t tracedReps() const = 0;

    core::FlashCosmosDrive &drive() { return drive_; }

    /** Start recording into window(). */
    void beginWindow()
    {
        window_ = Window{};
        measuring_ = true;
    }
    const Window &window() const { return window_; }

    /** Pages the set-up wrote through fcWritePages. */
    std::uint64_t setupPages() const { return setup_pages_; }

    /** Most requests waiting for admission after any advanceTo. */
    std::size_t backlogPeak() const { return backlog_peak_; }

  protected:
    core::FlashCosmosDrive drive_;
    bool measuring_ = false;
    Window window_;
    std::uint64_t setup_pages_ = 0;
    std::size_t backlog_peak_ = 0;
};

/** Set up @p workload (construction, operand writes, warm-up). Calls
 *  into the drive are recorded under @p spans when it is non-null. */
std::unique_ptr<Cell> makeCell(std::string_view workload, const Params &p,
                               Spans *spans);

/** Time each layer's public function in isolation ("probes"), adding
 *  the probe metrics of the per-layer table to @p out. */
void runProbes(std::uint64_t seed, Metrics &out);

} // namespace fcos::fcbench

#endif // FCBENCH_WORKLOADS_H
