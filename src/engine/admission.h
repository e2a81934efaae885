/**
 * @file
 * Admission/request queue in front of the command scheduler: the layer
 * that turns drain-per-op execution into a served request stream.
 *
 * Callers submit *requests* — an issue closure plus the conflict
 * footprint it will touch — instead of running ops back to back. The
 * queue admits requests onto the engine's shared event clock subject
 * to three policies:
 *
 *  - **bounded depth** (Config::depth): at most that many requests are
 *    in flight at once; the rest wait in arrival order. This is the
 *    backpressure window a real controller's command slots impose.
 *
 *  - **conflict-grained serialization**: each request declares read
 *    and write key sets (block-grained (die, plane, block) keys in the
 *    drive's usage, the lock-per-page idea of TrustedSSD's firmware at
 *    the granularity our FTL allocates). Two requests conflict when
 *    either writes a key the other touches. Conflicting requests are
 *    admitted strictly in arrival order; independent requests overtake
 *    and overlap on the shared timeline. Keys are acquired atomically
 *    at admission, so there is no lock-order deadlock.
 *
 *  - **QoS arbitration**: requests carry a class (Read / Write /
 *    Compute) and admission among eligible candidates is weighted fair
 *    queueing over Config::weights — integer virtual-time tags, so the
 *    schedule is bit-deterministic. Per-class queue-wait histograms
 *    land in the obs metrics registry ("engine.admission.wait.*").
 *
 * Completion is per-request: the issue closure registers engine work
 * via addWork()/workDone() (the drive wires workDone into each column
 * program's onComplete), and the request completes — keys released,
 * outcome reported, next admissions attempted — at the simulated
 * instant its last unit of work finishes. Everything here runs in
 * serial simulation contexts (host stack between runs, arrival events,
 * completion callbacks), so a concurrent schedule is bit-identical at
 * any worker count; a request stream submitted serially (each awaited
 * before the next) degenerates to exactly the seed's drain-per-op
 * behavior.
 */

#ifndef FCOS_ENGINE_ADMISSION_H
#define FCOS_ENGINE_ADMISSION_H

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "engine/scheduler.h"
#include "obs/obs.h"

namespace fcos::engine {

/** QoS class of a request (ordinary FTL I/O vs compute batches). */
enum class RequestClass : std::uint8_t
{
    Read = 0,
    Write = 1,
    Compute = 2,
};

inline constexpr std::size_t kRequestClassCount = 3;

const char *requestClassName(RequestClass cls);

using RequestId = std::uint64_t;

class RequestQueue
{
  public:
    struct Config
    {
        /** Admission window: max requests in flight at once. */
        std::uint32_t depth = 8;
        /** WFQ weights per class (Read, Write, Compute): under
         *  contention a class receives admissions proportional to its
         *  weight. All weights must be >= 1. */
        std::array<std::uint32_t, kRequestClassCount> weights = {1, 1, 1};
    };

    /** Lifecycle timestamps of a finished request. */
    struct Outcome
    {
        Time arrival = 0;   ///< when the request entered the queue
        Time admitted = 0;  ///< when it won admission (issue ran)
        Time completed = 0; ///< when its last unit of work finished
    };

    /** Runs at admission (a serial context): submit the request's
     *  engine work, registering it via addWork(). Must register at
     *  least one unit. */
    using IssueFn = std::function<void(RequestId)>;
    /** Runs at completion (a serial context), after the request's keys
     *  are released and before further admissions are attempted. */
    using DoneFn = std::function<void(const Outcome &)>;

    RequestQueue(CommandScheduler &sched, const Config &cfg);

    /**
     * Submit a request of class @p cls arriving at @p arrival (clamped
     * to now; future arrivals are staged as events on the engine
     * clock). @p read_keys / @p write_keys are the conflict footprint
     * (arbitrary 64-bit resource keys; duplicates allowed). The
     * request is admitted — @p issue invoked — as soon as it is
     * eligible, possibly synchronously within this call.
     */
    RequestId submit(RequestClass cls, Time arrival,
                     std::vector<std::uint64_t> read_keys,
                     std::vector<std::uint64_t> write_keys, IssueFn issue,
                     DoneFn done = {});

    /** Register one unit of engine work against an in-flight request
     *  (called from its issue closure or a continuation). */
    void addWork(RequestId id);

    /** Retire one unit of work; the last retirement completes the
     *  request at the current simulated time. */
    void workDone(RequestId id);

    /** True when no request is staged, pending, or in flight. */
    bool idle() const { return reqs_.empty(); }

    /** Requests holding any state: staged + pending + in flight. The
     *  steady-state memory bound — completed requests are erased, so
     *  this never grows with traffic served. */
    std::size_t liveRequestCount() const { return reqs_.size(); }

    /** Union of every live request's read and write keys, sorted and
     *  deduped — the busy set the drive's GC victim selection must
     *  avoid (those requests captured physical addresses at submit).
     *  O(live requests), not O(completed). */
    std::vector<std::uint64_t> liveKeys() const;

    std::size_t inFlightCount() const { return in_flight_.size(); }
    /** Arrived but not yet admitted. */
    std::size_t pendingCount() const { return pending_.size(); }
    std::uint64_t admittedCount(RequestClass cls) const
    {
        return admitted_[static_cast<std::size_t>(cls)];
    }
    std::uint64_t completedCount() const { return completed_; }
    const Config &config() const { return cfg_; }

  private:
    struct Request
    {
        RequestClass cls = RequestClass::Read;
        Time arrival = 0;
        Time admitted = 0;
        std::vector<std::uint64_t> reads;  ///< sorted, deduped
        std::vector<std::uint64_t> writes; ///< sorted, deduped
        IssueFn issue;
        DoneFn done;
        std::uint64_t outstanding = 0;
        bool issued = false;
        bool arrived = false;
    };

    /** Does (a_reads, a_writes) — sorted — conflict with r? */
    static bool conflicts(const Request &r,
                          const std::vector<std::uint64_t> &a_reads,
                          const std::vector<std::uint64_t> &a_writes);

    void onArrival(RequestId id);
    /** Admit every currently eligible request (WFQ order). */
    void pumpAdmission();
    void complete(RequestId id, Request &r);

    CommandScheduler &sched_;
    Config cfg_;
    RequestId next_id_ = 1;
    /** Every live request: staged, pending, or in flight. */
    std::unordered_map<RequestId, Request> reqs_;
    /** Arrived, not yet admitted — in arrival order (the order
     *  conflicting requests serialize in). */
    std::vector<RequestId> pending_;
    std::vector<RequestId> in_flight_;
    /** Integer WFQ virtual-time tag per class (units of
     *  kServiceScale / weight per admission). */
    std::uint64_t service_[kRequestClassCount] = {};
    std::uint64_t admitted_[kRequestClassCount] = {};
    std::uint64_t completed_ = 0;

    /** Metrics epoch at construction (a queue built outside a
     *  capture stays quiet in it) and the lazily resolved per-class
     *  queue-wait histograms (+ peak in-flight gauge); all recording
     *  happens in serial contexts. */
    std::uint64_t m_epoch_ = 0;
    obs::Histogram *wait_hist_[kRequestClassCount] = {};
    obs::Gauge *inflight_peak_ = nullptr;
};

} // namespace fcos::engine

#endif // FCOS_ENGINE_ADMISSION_H
