#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <optional>
#include <vector>

#include "core/result_sink.h"
#include "util/rng.h"

namespace fcos::fcbench {

using core::Expr;
using core::FlashCosmosDrive;
using core::VectorId;
using Outcome = engine::RequestQueue::Outcome;

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    return (h ^ v) * kFnvPrime;
}

/** @p n scaled by @p scale, at least @p floor. */
std::uint64_t
scaled(std::uint64_t n, double scale, std::uint64_t floor)
{
    return std::max<std::uint64_t>(
        floor, static_cast<std::uint64_t>(std::llround(n * scale)));
}

// ---------------------------------------------------------------------
// Bulk compute: one fcRead of an AND over co-located operands on the
// Table-1 SSD (8 channels x 8 dies x 2 planes, 16-KiB pages).
// ---------------------------------------------------------------------

struct BulkShape
{
    std::uint32_t operands;
    double density;      ///< share of '1' bits per operand page
    std::uint64_t pages; ///< pages per operand == result pages per unit
};

/** Keeps a copy of every stride-th result page for the reference check. */
class SampleSink final : public core::ResultSink
{
  public:
    explicit SampleSink(std::uint64_t stride) : stride_(stride) {}

    void consume(const core::ResultChunk &chunk) override
    {
        if (chunk.index % stride_ == 0)
            pages.emplace_back(chunk.index, chunk.page);
    }

    std::vector<std::pair<std::uint64_t, BitVector>> pages;

  private:
    std::uint64_t stride_;
};

FlashCosmosDrive::Config
table1Config(std::uint32_t workers)
{
    FlashCosmosDrive::Config cfg;
    cfg.channels = 8;
    cfg.dies = 8;
    cfg.geometry = nand::Geometry::table1();
    cfg.workers = workers;
    return cfg;
}

class BulkCell final : public Cell
{
  public:
    /** The reference AND covers every kCheckStride-th result page. */
    static constexpr std::uint64_t kCheckStride = 16;

    BulkCell(const BulkShape &shape, const Params &p, Spans *spans)
        : Cell(table1Config(p.workers)), shape_(shape), seed_(p.seed),
          pages_(scaled(shape.pages, p.scale, 1))
    {
        std::vector<Expr> leaves;
        for (std::uint32_t k = 0; k < shape_.operands; ++k) {
            FlashCosmosDrive::WriteOptions wo;
            wo.group = 1;
            SpanScope s(spans, "fcWritePages");
            leaves.push_back(Expr::leaf(drive_.fcWritePages(
                [this, k](std::uint64_t j) { return image(k, j); }, pages_,
                wo)));
            setup_pages_ += pages_;
        }
        expr_.emplace(Expr::And(std::move(leaves)));
    }

    Rep rep(Spans *spans) override
    {
        core::DigestSink digest;
        core::PopcountSink ones;
        SampleSink sample(kCheckStride);
        std::vector<core::ResultSink *> sinks{&digest, &ones};
        // The first unit also keeps sample pages for the reference check;
        // the harness never times a cell's first unit.
        const bool check = !first_digest_.has_value();
        if (check)
            sinks.push_back(&sample);
        core::TeeSink tee(std::move(sinks));
        FlashCosmosDrive::ReadStats st;

        const auto t0 = std::chrono::steady_clock::now();
        {
            SpanScope s(spans, "fcRead");
            drive_.fcRead(*expr_, tee, &st);
        }
        Rep r;
        r.seconds = secondsSince(t0);

        r.ops = shape_.operands * pages_;
        r.digest = fold(fold(kFnvOffset, digest.digest()), ones.ones());
        r.attempted = pages_;
        if (st.streamChunks != pages_)
            r.failed += pages_;
        if (check) {
            r.failed += mismatchedSamples(sample);
            first_digest_ = r.digest;
        } else if (r.digest != *first_digest_) {
            r.failed += pages_;
        }
        if (measuring_) {
            window_.units += st.streamChunks;
            window_.resultPages += st.streamChunks;
        }
        return r;
    }

    std::uint32_t tracedReps() const override { return 1; }

  private:
    /** Page @p j of operand @p k: a seeded Bernoulli(density) image. */
    nand::PageImage image(std::uint32_t k, std::uint64_t j) const
    {
        return nand::PageImage::random(Rng::mix(Rng::mix(seed_, k), j),
                                       shape_.density);
    }

    /** Sampled pages that differ from the host-side AND of the
     *  materialized operand images (a missing sample counts too). */
    std::uint64_t mismatchedSamples(const SampleSink &sample) const
    {
        const std::uint64_t bits = nand::Geometry::table1().pageBits();
        const std::uint64_t expected =
            (pages_ + kCheckStride - 1) / kCheckStride;
        std::uint64_t bad = expected > sample.pages.size()
                                ? expected - sample.pages.size()
                                : 0;
        for (const auto &[j, page] : sample.pages) {
            BitVector ref = image(0, j).materialize(bits);
            for (std::uint32_t k = 1; k < shape_.operands; ++k)
                ref &= image(k, j).materialize(bits);
            bad += ref != page;
        }
        return bad;
    }

    BulkShape shape_;
    std::uint64_t seed_;
    std::uint64_t pages_;
    std::optional<Expr> expr_;
    std::optional<std::uint64_t> first_digest_;
};

// ---------------------------------------------------------------------
// Serving: the tiny-geometry 2 channel x 2 die drive (8 plane columns)
// behind the admission queue.
// ---------------------------------------------------------------------

constexpr std::uint32_t kServeColumns = 8;

FlashCosmosDrive::Config
serveConfig(std::uint32_t workers)
{
    FlashCosmosDrive::Config cfg;
    cfg.channels = 2;
    cfg.dies = 2;
    cfg.workers = workers;
    return cfg;
}

/** Home column of operand group @p g: groups spread over the dies so
 *  independent requests overlap. */
std::uint32_t
groupHome(std::uint64_t g)
{
    return static_cast<std::uint32_t>((g * 3) % kServeColumns);
}

/** Digest a streamed read of @p v must produce on the serving drive. */
std::uint64_t
servedDigest(const BitVector &v)
{
    return core::DigestSink::digestOf(v, nand::Geometry::tiny().pageBits());
}

/**
 * Open loop: Poisson arrivals at 80k req/s (~90% of the drive's
 * simulated capacity of ~88k req/s), half readVector of a pool vector,
 * half in-flash AND of a co-located pool pair (submitRead). Read-only,
 * so the FTL and GC stay idle. Arrivals are staged at their due
 * simulated time, so the generator is never late and latency runs from
 * the due time.
 */
class QueryCell final : public Cell
{
  public:
    static constexpr std::uint32_t kVectors = 8; ///< 4 co-located pairs
    static constexpr std::uint64_t kVectorPages = 2;
    static constexpr double kMeanGapNs = 12'500.0; ///< 80k req/s
    static constexpr std::uint64_t kUnitRequests = 4'000;

    QueryCell(const Params &p, Spans *spans)
        : Cell(serveConfig(p.workers)), rng_(Rng::mix(p.seed, 0x0A44)),
          requests_(scaled(kUnitRequests, p.scale, 64))
    {
        const std::uint64_t bits = nand::Geometry::tiny().pageBits();
        std::vector<BitVector> values;
        for (std::uint32_t v = 0; v < kVectors; ++v) {
            const std::uint64_t stream = Rng::mix(p.seed, v);
            auto gen = [stream](std::uint64_t j) {
                return nand::PageImage::random(Rng::mix(stream, j));
            };
            FlashCosmosDrive::WriteOptions wo;
            wo.group = v / 2 + 1;
            wo.homeColumn = groupHome(v / 2);
            {
                SpanScope s(spans, "fcWritePages");
                pool_.push_back(drive_.fcWritePages(gen, kVectorPages, wo));
            }
            setup_pages_ += kVectorPages;
            BitVector value(kVectorPages * bits);
            for (std::uint64_t j = 0; j < kVectorPages; ++j)
                value.paste(j * bits, gen(j).materialize(bits));
            read_digest_.push_back(servedDigest(value));
            values.push_back(std::move(value));
        }
        for (std::uint32_t g = 0; g < kVectors / 2; ++g) {
            and_expr_.push_back(Expr::leaf(pool_[2 * g]) &
                                Expr::leaf(pool_[2 * g + 1]));
            and_digest_.push_back(
                servedDigest(values[2 * g] & values[2 * g + 1]));
        }
    }

    Rep rep(Spans *spans) override
    {
        // The unit's request plan, drawn before the clock starts.
        const std::uint64_t n = requests_;
        plan_.resize(n);
        Time due = drive_.now();
        for (Planned &q : plan_) {
            due += static_cast<Time>(
                std::llround(-std::log1p(-rng_.nextDouble()) * kMeanGapNs));
            const std::uint64_t pick = rng_.nextU64();
            q = Planned{due, (pick & 1) != 0,
                        static_cast<std::uint32_t>((pick >> 1) % kVectors)};
        }
        sinks_.assign(n, core::DigestSink{});
        done_.assign(n, 0);
        late_ = 0;

        const auto t0 = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < n; ++i) {
            const Planned &q = plan_[i];
            FlashCosmosDrive::RequestOptions ro;
            ro.arrival = q.due;
            ro.onOutcome = [this, i](const Outcome &oc) { finish(i, oc); };
            {
                SpanScope s(spans, "submit", ++request_no_);
                if (q.query)
                    drive_.submitRead(and_expr_[q.target / 2], sinks_[i],
                                      nullptr, ro);
                else
                    drive_.submitReadVector(pool_[q.target], sinks_[i],
                                            nullptr, ro);
            }
            // Pace the clock behind the generator: every later arrival
            // is due no earlier than this one, so none is staged late.
            if ((i & 31) == 31) {
                SpanScope s(spans, "advanceTo");
                drive_.advanceTo(q.due);
                backlog_peak_ = std::max(backlog_peak_,
                                         drive_.admission().pendingCount());
            }
        }
        {
            SpanScope s(spans, "waitAll");
            drive_.waitAll();
        }
        Rep r;
        r.seconds = secondsSince(t0);

        r.digest = kFnvOffset;
        r.attempted = n;
        r.failed = late_;
        for (std::uint64_t i = 0; i < n; ++i) {
            const Planned &q = plan_[i];
            const std::uint64_t want = q.query ? and_digest_[q.target / 2]
                                               : read_digest_[q.target];
            r.ops += done_[i];
            r.failed += !done_[i] || sinks_[i].digest() != want;
            r.digest = fold(r.digest, sinks_[i].digest());
        }
        if (measuring_) {
            window_.units += r.ops;
            window_.resultPages += r.ops * kVectorPages;
        }
        return r;
    }

    /** 24k requests: over 10^4 samples per class, so p999 has at least
     *  ten samples beyond it. */
    std::uint32_t tracedReps() const override { return 6; }

  private:
    struct Planned
    {
        Time due;
        bool query;           ///< in-flash AND (else a vector read)
        std::uint32_t target; ///< pool vector (query: pair target / 2)
    };

    void finish(std::uint64_t i, const Outcome &oc)
    {
        done_[i] = 1;
        late_ += oc.arrival != plan_[i].due;
        if (measuring_)
            (plan_[i].query ? window_.compute : window_.read)
                .push_back(oc.completed - oc.arrival);
    }

    Rng rng_;
    std::uint64_t requests_;
    std::vector<VectorId> pool_;
    std::vector<Expr> and_expr_;
    std::vector<std::uint64_t> read_digest_;
    std::vector<std::uint64_t> and_digest_;
    std::vector<Planned> plan_;
    std::vector<core::DigestSink> sinks_;
    std::vector<std::uint8_t> done_;
    std::uint64_t late_ = 0;
    std::uint64_t request_no_ = 0;
};

/**
 * Closed loop in the shape of core::ClosedLoopConfig: 8 chains, each
 * with one request in flight, 6:3:1 read/write/compute over 16 churn
 * slots (overwritten and trimmed), a stable compute pool, and 40
 * residents packed 8 to a sub-block whose out-of-phase overwrites leave
 * holes that only GC copyback reclaims. Every read is checked against
 * the version of its slot current at submit.
 */
class SoakCell final : public Cell
{
  public:
    static constexpr std::uint32_t kGroups = 4;
    static constexpr std::uint32_t kChains = 8;
    static constexpr std::uint32_t kSlots = 16;
    static constexpr std::uint32_t kResidents = 40;
    static constexpr std::uint64_t kChurnGroupBase = 1000;
    static constexpr std::uint64_t kResidentGroup = 999;
    static constexpr std::uint32_t kResidentHome = 2;
    static constexpr std::uint64_t kUnitRequests = 5'000;
    static constexpr std::uint64_t kWarmupRequests = 20'000;

    SoakCell(const Params &p, Spans *spans)
        : Cell(serveConfig(p.workers)), seed_(Rng::mix(p.seed, 0x50A6)),
          requests_(scaled(kUnitRequests, p.scale, 64))
    {
        for (std::uint64_t g = 0; g < kGroups; ++g) {
            for (std::uint64_t v = 0; v < 2; ++v) {
                FlashCosmosDrive::WriteOptions wo;
                wo.group = g + 1;
                wo.homeColumn = groupHome(g);
                pool_.push_back(write(spans, g * 2 + v, 1, wo));
            }
        }
        for (std::uint32_t s = 0; s < kSlots; ++s) {
            slot_version_[s] = 1000 + s;
            slot_vec_[s] = write(spans, slot_version_[s], 1, churnOptions(s));
        }
        for (std::uint32_t r = 0; r < kResidents; ++r)
            resident_vec_[r] =
                write(spans, 3000 + r, kServeColumns, residentOptions());
        // Warm-up to GC steady state; part of set-up, never timed.
        run(scaled(kWarmupRequests, p.scale, 64), spans);
    }

    Rep rep(Spans *spans) override
    {
        const std::uint64_t n = requests_;
        const auto t0 = std::chrono::steady_clock::now();
        run(n, spans);
        Rep r;
        r.seconds = secondsSince(t0);

        const std::uint64_t bits = nand::Geometry::tiny().pageBits();
        r.ops = completed_;
        r.attempted = n;
        r.failed = n - completed_;
        r.digest = kFnvOffset;
        for (const ReadCheck &rc : reads_) {
            const std::uint64_t want =
                servedDigest(pageGen(rc.version)(0).materialize(bits));
            r.failed += !rc.done || rc.sink.digest() != want;
            r.digest = fold(r.digest, rc.sink.digest());
        }
        if (measuring_) {
            window_.units += completed_;
            window_.resultPages += reads_.size();
        }
        return r;
    }

    /** 100k requests: compute, every tenth op, gets 10^4 samples. */
    std::uint32_t tracedReps() const override { return 20; }

  private:
    struct Chain
    {
        std::uint64_t next = 0;
        std::uint64_t end = 0;
        VectorId scratch = core::kDriveNoVector;
    };

    struct ReadCheck
    {
        core::DigestSink sink;
        std::uint64_t version = 0;
        bool done = false;
    };

    /** Single-page image of version @p n (procedural: nothing is
     *  materialized drive-side). */
    std::function<nand::PageImage(std::uint64_t)>
    pageGen(std::uint64_t n) const
    {
        const std::uint64_t seed = Rng::mix(seed_, n);
        return [seed](std::uint64_t) {
            return nand::PageImage::random(seed);
        };
    }

    /** Set-up write of version @p n as a @p pages-page vector. */
    VectorId write(Spans *spans, std::uint64_t n, std::uint64_t pages,
                   const FlashCosmosDrive::WriteOptions &wo)
    {
        SpanScope s(spans, "fcWritePages");
        setup_pages_ += pages;
        return drive_.fcWritePages(pageGen(n), pages, wo);
    }

    static FlashCosmosDrive::WriteOptions churnOptions(std::uint32_t s)
    {
        FlashCosmosDrive::WriteOptions wo;
        wo.group = kChurnGroupBase + s;
        wo.homeColumn = (s * 5 + 1) % kServeColumns;
        return wo;
    }

    static FlashCosmosDrive::WriteOptions residentOptions()
    {
        FlashCosmosDrive::WriteOptions wo;
        wo.group = kResidentGroup;
        wo.homeColumn = kResidentHome;
        return wo;
    }

    /** Serve @p n requests over the chains, then drain. */
    void run(std::uint64_t n, Spans *spans)
    {
        spans_ = spans;
        reads_.clear();
        completed_ = 0;
        const std::uint64_t start = next_op_;
        next_op_ += n;
        for (std::uint32_t c = 0; c < kChains; ++c) {
            chains_[c].next = start + c;
            chains_[c].end = start + n;
            submitNext(c);
        }
        SpanScope s(spans, "waitAll");
        drive_.waitAll();
    }

    /** 6:3:1 read/write/compute by op number. */
    static std::size_t classOf(std::uint64_t n)
    {
        const std::uint64_t slot = n % 10;
        if (slot == 7)
            return 2;
        return (slot == 3 || slot == 5 || slot == 9) ? 1 : 0;
    }

    void submitNext(std::uint32_t c)
    {
        Chain &ch = chains_[c];
        if (ch.next >= ch.end)
            return;
        const std::uint64_t n = ch.next;
        ch.next += kChains;
        const std::size_t cls = classOf(n);
        // Slot choice as in core/traffic.cc; the seed varies the data.
        const auto s = static_cast<std::uint32_t>((n * 7 + c) % kSlots);
        FlashCosmosDrive::RequestOptions ro;
        ro.onOutcome = [this, c, cls](const Outcome &oc) {
            finish(c, cls, oc);
        };
        SpanScope span(spans_, "submit", n + 1);
        if (cls == 0) {
            reads_.push_back(ReadCheck{{}, slot_version_[s], false});
            ReadCheck *rc = &reads_.back();
            ro.onOutcome = [this, c, rc](const Outcome &oc) {
                rc->done = true;
                finish(c, 0, oc);
            };
            drive_.submitReadVector(slot_vec_[s], rc->sink, nullptr, ro);
        } else if (cls == 1 && n % 10 == 9) {
            // Resident overwrites sweep in order, so each packed
            // sub-block's wordlines die back to back and holes stay
            // bounded (see core/traffic.cc).
            const std::uint32_t r =
                static_cast<std::uint32_t>(resident_sweep_++ % kResidents);
            FlashCosmosDrive::WriteOptions wo = residentOptions();
            wo.replaces = resident_vec_[r];
            resident_vec_[r] =
                drive_
                    .submitWritePages(pageGen(next_version_++),
                                      kServeColumns, wo, ro)
                    .vector;
        } else if (cls == 1) {
            FlashCosmosDrive::WriteOptions wo = churnOptions(s);
            if (n % 10 == 5)
                drive_.trimVector(slot_vec_[s]); // trim, then append
            else
                wo.replaces = slot_vec_[s]; // overwrite in one call
            slot_version_[s] = next_version_++;
            slot_vec_[s] =
                drive_
                    .submitWritePages(pageGen(slot_version_[s]), 1, wo, ro)
                    .vector;
        } else {
            // The scratch result shares its operands' column and is
            // trimmed at completion, so compute never piles up capacity.
            const std::uint64_t g = (c + n) % kGroups;
            FlashCosmosDrive::WriteOptions wo;
            wo.homeColumn = groupHome(g);
            ro.onOutcome = [this, c](const Outcome &oc) {
                drive_.trimVector(chains_[c].scratch);
                chains_[c].scratch = core::kDriveNoVector;
                finish(c, 2, oc);
            };
            ch.scratch = drive_
                             .submitCompute(Expr::leaf(pool_[2 * g]) &
                                                Expr::leaf(pool_[2 * g + 1]),
                                            wo, nullptr, ro)
                             .vector;
        }
    }

    void finish(std::uint32_t c, std::size_t cls, const Outcome &oc)
    {
        ++completed_;
        if (measuring_) {
            std::vector<Time> &v = cls == 0   ? window_.read
                                   : cls == 1 ? window_.write
                                              : window_.compute;
            v.push_back(oc.completed - oc.arrival);
        }
        submitNext(c);
    }

    std::uint64_t seed_;
    std::uint64_t requests_;
    std::vector<VectorId> pool_;
    VectorId slot_vec_[kSlots] = {};
    std::uint64_t slot_version_[kSlots] = {};
    VectorId resident_vec_[kResidents] = {};
    std::uint64_t resident_sweep_ = 0;
    std::uint64_t next_version_ = 1 << 20; ///< above every set-up version
    std::uint64_t next_op_ = 0;
    Chain chains_[kChains];
    std::deque<ReadCheck> reads_; ///< stable addresses for the sinks
    std::uint64_t completed_ = 0;
    Spans *spans_ = nullptr;
};

} // namespace

std::unique_ptr<Cell>
makeCell(std::string_view workload, const Params &p, Spans *spans)
{
    if (workload == "bulk_and3")
        return std::make_unique<BulkCell>(BulkShape{3, 0.5, 2048}, p, spans);
    if (workload == "bulk_bmi")
        return std::make_unique<BulkCell>(BulkShape{30, 0.98, 8}, p, spans);
    if (workload == "serve_query")
        return std::make_unique<QueryCell>(p, spans);
    if (workload == "serve_soak")
        return std::make_unique<SoakCell>(p, spans);
    return nullptr;
}

} // namespace fcos::fcbench
