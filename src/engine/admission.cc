#include "engine/admission.h"

#include <algorithm>

#include "util/log.h"

namespace fcos::engine {

namespace {

/** Virtual-time quantum numerator: one admission of a weight-w class
 *  advances its tag by kServiceScale / w, so higher weights mean
 *  smaller steps and proportionally more admissions. The value only
 *  needs enough headroom that integer division keeps distinct weights
 *  distinct. */
constexpr std::uint64_t kServiceScale = 1 << 20;

void
sortKeys(std::vector<std::uint64_t> &keys)
{
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
}

/** Any element of @p sorted (ascending, unique) present in @p probe? */
bool
intersects(const std::vector<std::uint64_t> &sorted,
           const std::vector<std::uint64_t> &probe)
{
    if (sorted.empty() || probe.empty())
        return false;
    for (std::uint64_t k : probe) {
        if (std::binary_search(sorted.begin(), sorted.end(), k))
            return true;
    }
    return false;
}

} // namespace

const char *
requestClassName(RequestClass cls)
{
    switch (cls) {
    case RequestClass::Read:
        return "read";
    case RequestClass::Write:
        return "write";
    case RequestClass::Compute:
        return "compute";
    }
    return "?";
}

RequestQueue::RequestQueue(CommandScheduler &sched, const Config &cfg)
    : sched_(sched), cfg_(cfg), m_epoch_(obs::metricsEpoch())
{
    fcos_assert(cfg_.depth >= 1, "admission depth must be >= 1");
    for (std::size_t c = 0; c < kRequestClassCount; ++c)
        fcos_assert(cfg_.weights[c] >= 1,
                    "QoS weight for class %zu must be >= 1", c);
}

bool
RequestQueue::conflicts(const Request &r,
                        const std::vector<std::uint64_t> &a_reads,
                        const std::vector<std::uint64_t> &a_writes)
{
    // Readers share; a write excludes everyone touching the key.
    return intersects(r.writes, a_writes) ||
           intersects(r.writes, a_reads) ||
           intersects(r.reads, a_writes);
}

RequestId
RequestQueue::submit(RequestClass cls, Time arrival,
                     std::vector<std::uint64_t> read_keys,
                     std::vector<std::uint64_t> write_keys, IssueFn issue,
                     DoneFn done)
{
    fcos_assert(issue != nullptr, "request needs an issue closure");
    const RequestId id = next_id_++;
    Request &r = reqs_[id];
    r.cls = cls;
    r.arrival = std::max(arrival, sched_.queue().now());
    r.reads = std::move(read_keys);
    r.writes = std::move(write_keys);
    sortKeys(r.reads);
    sortKeys(r.writes);
    r.issue = std::move(issue);
    r.done = std::move(done);
    if (r.arrival <= sched_.queue().now()) {
        onArrival(id);
    } else {
        // Stage the arrival on the engine clock; same-time arrivals
        // keep submission order via the queue's FIFO tie-break.
        sched_.queue().schedule(r.arrival, [this, id] { onArrival(id); });
    }
    return id;
}

std::vector<std::uint64_t>
RequestQueue::liveKeys() const
{
    std::vector<std::uint64_t> keys;
    for (const auto &[id, r] : reqs_) {
        (void)id;
        keys.insert(keys.end(), r.reads.begin(), r.reads.end());
        keys.insert(keys.end(), r.writes.begin(), r.writes.end());
    }
    sortKeys(keys);
    return keys;
}

void
RequestQueue::onArrival(RequestId id)
{
    Request &r = reqs_.at(id);
    fcos_assert(!r.arrived, "request %llu arrived twice",
                static_cast<unsigned long long>(id));
    r.arrived = true;
    pending_.push_back(id);
    pumpAdmission();
}

void
RequestQueue::pumpAdmission()
{
    for (;;) {
        if (in_flight_.size() >= cfg_.depth || pending_.empty())
            return;

        // First admissible request of each class, scanning in arrival
        // order: a request is blocked by any in-flight conflict and by
        // any conflicting *earlier* pending request (order among
        // conflicting requests is arrival order, always).
        constexpr std::size_t kNone = static_cast<std::size_t>(-1);
        std::size_t cand[kRequestClassCount];
        for (auto &c : cand)
            c = kNone;
        std::size_t found = 0;
        std::vector<std::uint64_t> earlier_reads, earlier_writes;
        for (std::size_t i = 0;
             i < pending_.size() && found < kRequestClassCount; ++i) {
            const Request &r = reqs_.at(pending_[i]);
            const auto ci = static_cast<std::size_t>(r.cls);
            if (cand[ci] == kNone &&
                !conflicts(r, earlier_reads, earlier_writes)) {
                bool blocked = false;
                for (RequestId fid : in_flight_) {
                    const Request &f = reqs_.at(fid);
                    if (conflicts(f, r.reads, r.writes)) {
                        blocked = true;
                        break;
                    }
                }
                if (!blocked) {
                    cand[ci] = i;
                    ++found;
                }
            }
            earlier_reads.insert(earlier_reads.end(), r.reads.begin(),
                                 r.reads.end());
            earlier_writes.insert(earlier_writes.end(), r.writes.begin(),
                                  r.writes.end());
        }
        if (found == 0)
            return;

        // Weighted fair queueing over the candidate classes: smallest
        // virtual finish tag wins; ties break toward the lower class
        // index. Integer arithmetic keeps the schedule bit-stable.
        std::size_t best_cls = kNone;
        std::uint64_t best_tag = 0;
        for (std::size_t c = 0; c < kRequestClassCount; ++c) {
            if (cand[c] == kNone)
                continue;
            const std::uint64_t tag =
                service_[c] + kServiceScale / cfg_.weights[c];
            if (best_cls == kNone || tag < best_tag) {
                best_cls = c;
                best_tag = tag;
            }
        }
        service_[best_cls] = best_tag;

        const RequestId id = pending_[cand[best_cls]];
        pending_.erase(pending_.begin() +
                       static_cast<std::ptrdiff_t>(cand[best_cls]));
        in_flight_.push_back(id);
        ++admitted_[best_cls];

        Request &r = reqs_.at(id);
        r.admitted = sched_.queue().now();
        if (obs::metricsLive(m_epoch_)) {
            if (!inflight_peak_) {
                for (std::size_t c = 0; c < kRequestClassCount; ++c) {
                    wait_hist_[c] = &obs::metrics().histogram(
                        std::string("engine.admission.wait.") +
                        requestClassName(static_cast<RequestClass>(c)));
                }
                inflight_peak_ = &obs::metrics().gauge(
                    "engine.admission.inflight_peak");
            }
            wait_hist_[best_cls]->record(r.admitted - r.arrival);
            inflight_peak_->noteMax(
                static_cast<double>(in_flight_.size()));
        }

        // Issue runs on this (serial) stack and registers the
        // request's engine work. Take the closure out first: addWork /
        // workDone inside it may not complete the request (work cannot
        // retire synchronously), but keeping `r` borrowed across user
        // code would be fragile against rehashes from nested submits.
        IssueFn issue = std::move(r.issue);
        issue(id);
        Request &r2 = reqs_.at(id);
        r2.issued = true;
        fcos_assert(r2.outstanding > 0,
                    "request %llu issued no engine work",
                    static_cast<unsigned long long>(id));
    }
}

void
RequestQueue::addWork(RequestId id)
{
    Request &r = reqs_.at(id);
    fcos_assert(!r.issued || r.outstanding > 0,
                "late addWork on a request with no work in flight");
    ++r.outstanding;
}

void
RequestQueue::workDone(RequestId id)
{
    auto it = reqs_.find(id);
    fcos_assert(it != reqs_.end(), "workDone on unknown request %llu",
                static_cast<unsigned long long>(id));
    Request &r = it->second;
    fcos_assert(r.outstanding > 0, "workDone underflow on request %llu",
                static_cast<unsigned long long>(id));
    --r.outstanding;
    if (r.outstanding == 0 && r.issued)
        complete(id, r);
}

void
RequestQueue::complete(RequestId id, Request &r)
{
    const Outcome oc{r.arrival, r.admitted, sched_.queue().now()};
    DoneFn done = std::move(r.done);
    auto pos = std::find(in_flight_.begin(), in_flight_.end(), id);
    fcos_assert(pos != in_flight_.end(),
                "completed request %llu not in flight",
                static_cast<unsigned long long>(id));
    in_flight_.erase(pos);
    ++completed_;
    reqs_.erase(id);
    // The done hook may submit follow-up requests (closed-loop
    // traffic); the queue is consistent by this point.
    if (done)
        done(oc);
    pumpAdmission();
}

} // namespace fcos::engine
