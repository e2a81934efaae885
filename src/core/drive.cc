#include "core/drive.h"

#include <algorithm>
#include <map>

#include "core/lowering.h"
#include "engine/result_stream.h"
#include "util/log.h"

namespace fcos::core {

namespace {

/** Config-level observability knobs must take effect before the engine
 *  (and its scheduler/queue) is constructed, because components
 *  capture the obs epoch at construction. Runs in cfg_'s initializer,
 *  which precedes engine_'s. */
const FlashCosmosDrive::Config &
applyObsKnobs(const FlashCosmosDrive::Config &cfg)
{
    if (!cfg.traceFile.empty())
        obs::enableTrace(cfg.traceFile);
    if (!cfg.metricsFile.empty())
        obs::enableMetrics(cfg.metricsFile);
    return cfg;
}

/** Emit adapter shared by every streamed read path: clamps page @p j
 *  to the vector's @p bits tail and hands it to @p sink. */
engine::OrderedChunkStream::Emit
sinkEmitter(ResultSink &sink, std::uint64_t page_bits,
            std::uint64_t bits)
{
    return [&sink, page_bits, bits](std::uint64_t j, BitVector page) {
        fcos_assert(!page.empty(), "column %llu produced no result",
                    (unsigned long long)j);
        std::uint64_t begin = j * page_bits;
        std::uint64_t len =
            std::min<std::uint64_t>(page_bits, bits - begin);
        sink.consume(ResultChunk{j, begin, len, page});
    };
}

/** Per-request state of a streamed (planned) read. */
struct StreamJob
{
    engine::OpStats os;
    std::unique_ptr<engine::OrderedChunkStream> stream;
};

/** Per-request state of a fallback read/compute: captured leaf pages
 *  per column, evaluated controller-side at completion. */
struct FallbackJob
{
    engine::OpStats os;
    std::vector<std::shared_ptr<std::map<VectorId, BitVector>>> vals;
    std::size_t leafReadsLeft = 0;
};

/** Per-request state of write-like ops (stats tallies only). */
struct OpJob
{
    engine::OpStats os;
};

} // namespace

FlashCosmosDrive::FlashCosmosDrive() : FlashCosmosDrive(Config{}) {}

FlashCosmosDrive::FlashCosmosDrive(const Config &cfg)
    : cfg_(applyObsKnobs(cfg)), engine_(cfg),
      rq_(engine_.scheduler(), cfg.admission),
      ftl_(cfg.dieCount(), cfg.geometry), planner_(*this)
{
    // Reserve one erased wordline per column for the final-NOT trick,
    // pinned so GC never relocates it (it must stay unprogrammed).
    erased_ref_.reserve(ftl_.columns());
    for (ssd::Lpn lpn : ftl_.allocateStriped(ftl_.columns())) {
        ftl_.pin(lpn);
        erased_ref_.push_back(ftl_.physOf(lpn));
    }
    // Request spans share the scheduler's "drive" trace process.
    const engine::CommandScheduler &sched = engine_.scheduler();
    if (obs::traceLive(sched.traceEpoch())) {
        trace_epoch_ = sched.traceEpoch();
        req_track_ = obs::trace().newTrack(sched.tracePid(), "requests");
    }
    if (obs::metricsOn())
        m_epoch_ = obs::metricsEpoch();
}

void
FlashCosmosDrive::setErrorInjector(nand::ErrorInjector *injector)
{
    engine_.farm().setErrorInjector(injector);
}

const FlashCosmosDrive::VectorInfo &
FlashCosmosDrive::info(VectorId id) const
{
    fcos_assert(id < vectors_.size(), "vector id %u out of range", id);
    fcos_assert(vectors_[id].live, "vector %u was trimmed", id);
    return vectors_[id];
}

std::vector<ssd::PhysPage>
FlashCosmosDrive::resolvePages(const std::vector<ssd::Lpn> &lpns) const
{
    std::vector<ssd::PhysPage> pages;
    pages.reserve(lpns.size());
    for (ssd::Lpn lpn : lpns)
        pages.push_back(ftl_.physOf(lpn));
    return pages;
}

VectorId
FlashCosmosDrive::allocVectorId(VectorInfo &&v)
{
    if (!free_ids_.empty()) {
        const VectorId id = free_ids_.back();
        free_ids_.pop_back();
        vectors_[id] = std::move(v);
        return id;
    }
    const VectorId id = static_cast<VectorId>(vectors_.size());
    vectors_.push_back(std::move(v));
    return id;
}

void
FlashCosmosDrive::trimVector(VectorId id)
{
    fcos_assert(id < vectors_.size(), "vector id %u out of range", id);
    VectorInfo &v = vectors_[id];
    fcos_assert(v.live, "double trim of vector %u", id);
    for (ssd::Lpn lpn : v.pages)
        ftl_.free(lpn);
    v.pages.clear();
    v.pages.shrink_to_fit();
    v.bits = 0;
    v.live = false;
    auto it = group_info_.find(v.group);
    fcos_assert(it != group_info_.end(), "vector %u lost its group", id);
    fcos_assert(it->second.live > 0, "group live-count underflow");
    if (--it->second.live == 0) {
        // Last vector of the group gone: release the group's write
        // cursors so its (now hole-ridden) sub-blocks can die and a
        // later reuse of the same group id starts fresh.
        ftl_.dropGroup(v.group);
        group_info_.erase(it);
    }
    free_ids_.push_back(id);
}

bool
FlashCosmosDrive::isStoredInverted(VectorId id) const
{
    return info(id).inverted;
}

std::uint64_t
FlashCosmosDrive::stringKey(VectorId id) const
{
    const VectorInfo &v = info(id);
    // Vectors of one group stack wordlines in lockstep; the chain
    // segment (orderInGroup / wordlinesPerSubBlock) identifies the
    // shared sub-block.
    return v.group * 4096 +
           v.orderInGroup / cfg_.geometry.wordlinesPerSubBlock;
}

std::size_t
FlashCosmosDrive::vectorBits(VectorId id) const
{
    return info(id).bits;
}

std::vector<ssd::PhysPage>
FlashCosmosDrive::vectorPages(VectorId id) const
{
    return resolvePages(info(id).pages);
}

FlashCosmosDrive::VectorInfo
FlashCosmosDrive::makeVector(std::size_t bits, std::uint64_t group,
                             bool inverted, std::uint64_t pages,
                             std::uint32_t home_column)
{
    fcos_assert(home_column < ftl_.columns(),
                "homeColumn %u out of %u columns", home_column,
                ftl_.columns());
    // Recycle capacity before allocating: GC runs as foreground work
    // ahead of the write that needed the room, exactly the blocking
    // collection a real FTL charges the triggering host write.
    maybeCollect();
    if (group == kAutoGroup)
        group = next_auto_group_++;
    GroupInfo &g = group_info_[group];
    if (g.count == 0) {
        g.pages = pages;
        g.homeColumn = home_column;
    } else {
        // Lockstep invariant (see class comment).
        fcos_assert(g.pages == pages,
                    "group %llu vectors must have equal page counts "
                    "(%llu vs %llu)",
                    (unsigned long long)group,
                    (unsigned long long)g.pages,
                    (unsigned long long)pages);
        fcos_assert(g.homeColumn == home_column,
                    "group %llu vectors must share homeColumn "
                    "(%u vs %u)",
                    (unsigned long long)group, g.homeColumn,
                    home_column);
    }
    VectorInfo v;
    v.bits = bits;
    v.inverted = inverted;
    v.live = true;
    v.group = group;
    v.orderInGroup = g.count++;
    ++g.live;
    v.pages = ftl_.allocateInGroup(group, pages, home_column);
    gc_.hostPagesWritten += pages;
    return v;
}

void
FlashCosmosDrive::maybeCollect()
{
    for (std::uint32_t col = 0; col < ftl_.columns(); ++col) {
        while (ftl_.gcNeeded(col)) {
            // The busy set is recomputed per victim: blocks any live
            // request captured physical addresses for must not move,
            // and each submitted GC plan protects its own destination
            // blocks against the next round.
            ssd::Ftl::GcPlan plan;
            if (!ftl_.collect(col, rq_.liveKeys(), &plan))
                break;
            submitGcPlan(plan);
        }
    }
}

void
FlashCosmosDrive::submitGcPlan(const ssd::Ftl::GcPlan &plan)
{
    ++gc_.runs;
    gc_.pageCopies += plan.moves.size();
    ++gc_.blocksErased;

    const std::uint32_t die = plan.column / cfg_.geometry.planesPerDie;
    const std::uint32_t plane = plan.column % cfg_.geometry.planesPerDie;

    // The request writes the victim (erase) and every destination
    // block: host traffic touching the recycled or refilled blocks
    // serializes after this request in arrival order.
    std::vector<std::uint64_t> write_keys;
    write_keys.reserve(plan.moves.size() + 1);
    write_keys.push_back(ssd::Ftl::blockKey(die, plane, plan.block));
    for (const ssd::Ftl::GcMove &m : plan.moves)
        write_keys.push_back(ssd::Ftl::blockKey(m.dst));

    auto moves =
        std::make_shared<std::vector<ssd::Ftl::GcMove>>(plan.moves);
    rq_.submit(
        engine::RequestClass::Write, engine_.now(), {},
        std::move(write_keys),
        [this, moves, die, plane, block = plan.block](RequestId req) {
            // One copyback program per live page, then the erase: all
            // on one plane, so the plane FIFO runs the copies strictly
            // before the erase regardless of admission interleaving.
            for (const ssd::Ftl::GcMove &m : *moves) {
                rq_.addWork(req);
                engine::ColumnProgram p;
                p.die = die;
                p.plane = plane;
                p.readOutResult = false;
                p.onComplete = [this, req] { rq_.workDone(req); };
                p.steps.push_back(engine::ColumnStep{
                    engine::StepKind::Copyback,
                    [src = m.src.addr,
                     dst = m.dst.addr](nand::NandChip &chip) {
                        return chip.copyback(src, dst);
                    },
                    0, 0});
                engine_.submit(std::move(p), nullptr);
            }
            rq_.addWork(req);
            engine::ColumnProgram e;
            e.die = die;
            e.plane = plane;
            e.readOutResult = false;
            e.onComplete = [this, req] { rq_.workDone(req); };
            e.steps.push_back(engine::ColumnStep{
                engine::StepKind::Erase,
                [plane, block](nand::NandChip &chip) {
                    return chip.eraseBlock(plane, block);
                },
                0, 0});
            engine_.submit(std::move(e), nullptr);
        },
        [this](const engine::RequestQueue::Outcome &oc) {
            noteRequest("gc", oc.admitted, oc.completed);
        });
}

std::vector<std::uint64_t>
FlashCosmosDrive::blockKeysOf(
    const std::vector<ssd::PhysPage> &pages) const
{
    std::vector<std::uint64_t> keys;
    keys.reserve(pages.size());
    for (const ssd::PhysPage &p : pages) {
        keys.push_back((std::uint64_t{p.die} << 40) |
                       (std::uint64_t{p.addr.plane} << 32) |
                       p.addr.block);
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys;
}

std::vector<std::uint64_t>
FlashCosmosDrive::readKeysOf(const std::vector<VectorId> &leaves) const
{
    std::vector<std::uint64_t> keys;
    for (VectorId id : leaves) {
        std::vector<std::uint64_t> k =
            blockKeysOf(resolvePages(info(id).pages));
        keys.insert(keys.end(), k.begin(), k.end());
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys;
}

Time
FlashCosmosDrive::arrivalTime(const RequestOptions &ro) const
{
    return std::max(ro.arrival, engine_.now());
}

void
FlashCosmosDrive::submitPageWrite(const ssd::PhysPage &dst,
                                  nand::PageImage page,
                                  engine::OpStats *stats,
                                  std::function<void()> done)
{
    engine::ColumnProgram p;
    p.die = dst.die;
    p.plane = dst.addr.plane;
    p.readOutResult = false;
    p.onComplete = std::move(done);
    engine::ColumnStep st;
    st.kind = engine::StepKind::Program;
    // Program data moves controller -> die over the channel first.
    st.dmaBeforeBytes = cfg_.geometry.pageBytes;
    st.run = [addr = dst.addr, data = std::move(page)](nand::NandChip &chip) {
        return chip.programPageEsp(addr, data);
    };
    p.steps.push_back(std::move(st));
    engine_.submit(std::move(p), stats);
}

// --------------------------------------------------------------------------
// Concurrent request API (the sync fc* calls are submit+wait wrappers)
// --------------------------------------------------------------------------

void
FlashCosmosDrive::waitAll()
{
    engine_.drain();
    fcos_assert(rq_.idle(), "waitAll left %zu requests unfinished",
                rq_.pendingCount() + rq_.inFlightCount());
}

Time
FlashCosmosDrive::advanceTo(Time t)
{
    return engine_.scheduler().runUntil(t);
}

FlashCosmosDrive::Submitted
FlashCosmosDrive::submitWrite(const BitVector &data,
                              const WriteOptions &opts,
                              const RequestOptions &ro)
{
    fcos_assert(!data.empty(), "fcWrite of empty vector");
    const std::uint64_t page_bits = cfg_.geometry.pageBits();
    const std::uint64_t pages =
        (data.size() + page_bits - 1) / page_bits;

    if (opts.replaces != kNoVector)
        trimVector(opts.replaces);
    VectorInfo v = makeVector(data.size(), opts.group, opts.storeInverted,
                              pages, opts.homeColumn);

    // The payload is sliced into page images now, at submit: the host
    // hands the data over with the request, so the caller's buffer may
    // die before admission.
    auto images = std::make_shared<std::vector<nand::PageImage>>();
    images->reserve(pages);
    for (std::uint64_t j = 0; j < pages; ++j) {
        std::uint64_t begin = j * page_bits;
        std::uint64_t len =
            std::min<std::uint64_t>(page_bits, data.size() - begin);
        BitVector page(page_bits, false);
        page.paste(0, data.slice(begin, len));
        if (v.inverted)
            page.invert();
        images->push_back(nand::PageImage::dense(std::move(page)));
    }

    std::vector<ssd::PhysPage> page_list = resolvePages(v.pages);
    std::vector<std::uint64_t> write_keys = blockKeysOf(page_list);
    const VectorId id = allocVectorId(std::move(v));

    RequestId rid = rq_.submit(
        engine::RequestClass::Write, arrivalTime(ro), {},
        std::move(write_keys),
        [this, images,
         page_list = std::move(page_list)](RequestId req) {
            for (std::size_t j = 0; j < page_list.size(); ++j) {
                rq_.addWork(req);
                submitPageWrite(page_list[j], std::move((*images)[j]),
                                nullptr,
                                [this, req] { rq_.workDone(req); });
            }
        },
        [this, hook = ro.onOutcome](
            const engine::RequestQueue::Outcome &oc) {
            noteRequest("fcWrite", oc.admitted, oc.completed);
            if (hook)
                hook(oc);
        });
    return Submitted{rid, id};
}

FlashCosmosDrive::Submitted
FlashCosmosDrive::submitWritePages(
    const std::function<nand::PageImage(std::uint64_t)> &gen,
    std::uint64_t pages, const WriteOptions &opts,
    const RequestOptions &ro)
{
    fcos_assert(gen != nullptr, "fcWritePages without a generator");
    fcos_assert(pages >= 1, "fcWritePages of empty vector");
    if (opts.replaces != kNoVector)
        trimVector(opts.replaces);
    VectorInfo v = makeVector(pages * cfg_.geometry.pageBits(), opts.group,
                              opts.storeInverted, pages, opts.homeColumn);

    // Generator runs host-side at submit, in page order (its call
    // sequence is part of the reproducibility contract).
    auto images = std::make_shared<std::vector<nand::PageImage>>();
    images->reserve(pages);
    for (std::uint64_t j = 0; j < pages; ++j) {
        nand::PageImage img = gen(j);
        images->push_back(v.inverted ? img.inverted() : std::move(img));
    }

    std::vector<ssd::PhysPage> page_list = resolvePages(v.pages);
    std::vector<std::uint64_t> write_keys = blockKeysOf(page_list);
    const VectorId id = allocVectorId(std::move(v));

    RequestId rid = rq_.submit(
        engine::RequestClass::Write, arrivalTime(ro), {},
        std::move(write_keys),
        [this, images,
         page_list = std::move(page_list)](RequestId req) {
            for (std::size_t j = 0; j < page_list.size(); ++j) {
                rq_.addWork(req);
                submitPageWrite(page_list[j], std::move((*images)[j]),
                                nullptr,
                                [this, req] { rq_.workDone(req); });
            }
        },
        [this, hook = ro.onOutcome](
            const engine::RequestQueue::Outcome &oc) {
            noteRequest("fcWrite", oc.admitted, oc.completed);
            if (hook)
                hook(oc);
        });
    return Submitted{rid, id};
}

FlashCosmosDrive::Submitted
FlashCosmosDrive::submitReplicate(VectorId src, std::uint64_t pages,
                                  const WriteOptions &opts,
                                  ReadStats *stats,
                                  const RequestOptions &ro)
{
    fcos_assert(info(src).pages.size() == 1,
                "fcReplicate source must be a single-page vector");
    fcos_assert(pages >= 1, "fcReplicate needs >= 1 copy");

    // The copies hold the source's *stored* bits, so polarity follows
    // the source; logically the result is the source page tiled.
    // makeVector may run GC, so the source's physical address is
    // resolved only afterwards (its block is then protected by this
    // request's read key until completion).
    VectorInfo v = makeVector(pages * cfg_.geometry.pageBits(),
                              opts.group, info(src).inverted, pages,
                              opts.homeColumn);
    const ssd::PhysPage src_page = pageAt(info(src), 0);

    // Broadcast fan-out: the source page is sensed exactly once and
    // read out to the controller once; every copy then pays only its
    // own data-in transfer and ESP program, concurrently across dies.
    std::vector<ssd::PhysPage> dst_pages = resolvePages(v.pages);
    std::vector<engine::ComputeEngine::BroadcastTarget> targets;
    targets.reserve(pages);
    for (std::uint64_t j = 0; j < pages; ++j)
        targets.push_back({dst_pages[j].die, dst_pages[j].addr});

    std::vector<std::uint64_t> write_keys = blockKeysOf(dst_pages);
    const VectorId id = allocVectorId(std::move(v));

    auto job = std::make_shared<OpJob>();
    RequestId rid = rq_.submit(
        engine::RequestClass::Write, arrivalTime(ro),
        blockKeysOf({src_page}), std::move(write_keys),
        [this, job, src_page, targets = std::move(targets)](RequestId req) {
            for (std::size_t j = 0; j < targets.size(); ++j)
                rq_.addWork(req);
            engine_.broadcastPage(src_page.die, src_page.addr, targets,
                                  nand::EspParams{}, &job->os,
                                  [this, req] { rq_.workDone(req); });
        },
        [this, job, stats, hook = ro.onOutcome](
            const engine::RequestQueue::Outcome &oc) {
            mergeStats(stats, job->os, oc.completed - oc.admitted);
            noteRequest("fcReplicate", oc.admitted, oc.completed);
            if (hook)
                hook(oc);
        });
    return Submitted{rid, id};
}

engine::RequestId
FlashCosmosDrive::submitStreamedRead(
    const char *name, std::size_t pages, std::size_t bits,
    std::vector<std::uint64_t> read_keys, ResultSink &sink,
    ReadStats *stats,
    std::function<engine::ColumnProgram(std::size_t)> make_program,
    const RequestOptions &ro)
{
    auto job = std::make_shared<StreamJob>();
    ResultSink *sink_p = &sink;
    const std::uint64_t page_bits = cfg_.geometry.pageBits();
    return rq_.submit(
        engine::RequestClass::Read, arrivalTime(ro),
        std::move(read_keys), {},
        [this, job, sink_p, pages, bits, page_bits,
         make_program = std::move(make_program)](RequestId req) {
            sink_p->begin(StreamShape{pages, page_bits, bits});
            job->stream = std::make_unique<engine::OrderedChunkStream>(
                pages, sinkEmitter(*sink_p, page_bits, bits));
            for (std::size_t j = 0; j < pages; ++j) {
                engine::ColumnProgram prog = make_program(j);
                prog.resultAtCapture = true;
                prog.onResult = job->stream->handler(j);
                prog.onComplete = [this, req] { rq_.workDone(req); };
                rq_.addWork(req);
                engine_.submit(std::move(prog), &job->os);
            }
        },
        [this, job, sink_p, stats, pages, name,
         hook = ro.onOutcome](const engine::RequestQueue::Outcome &oc) {
            fcos_assert(job->stream->complete(),
                        "streamed %s lost pages", name);
            mergeStats(stats, job->os, oc.completed - oc.admitted);
            noteRequest(name, oc.admitted, oc.completed);
            if (stats) {
                stats->resultPages += pages;
                stats->streamChunks += pages;
                stats->streamPeakPages = std::max<std::uint64_t>(
                    stats->streamPeakPages,
                    job->stream->peakBufferedPages());
            }
            sink_p->end();
            if (hook)
                hook(oc);
        });
}

engine::RequestId
FlashCosmosDrive::submitRead(const Expr &expr, ResultSink &sink,
                             ReadStats *stats, const RequestOptions &ro)
{
    std::vector<VectorId> leaves = expr.leafIds();
    fcos_assert(!leaves.empty(), "fcRead of constant expression");
    std::size_t bits = info(leaves[0]).bits;
    std::size_t pages = info(leaves[0]).pages.size();
    for (VectorId id : leaves) {
        fcos_assert(info(id).bits == bits,
                    "fcRead operands must have equal sizes");
        fcos_assert(info(id).pages.size() == pages, "page count mismatch");
    }

    MwsPlan plan = planner_.plan(expr);
    if (stats) {
        stats->planKind = plan.kind;
        stats->planText = plan.toString();
    }

    if (plan.kind != MwsPlan::Kind::Fallback) {
        return submitStreamedRead(
            "fcRead", pages, bits, readKeysOf(leaves), sink, stats,
            [this, plan = std::move(plan), expr](std::size_t j) {
                return planProgram(plan, expr, j);
            },
            ro);
    }

    fcos_warn("fcRead falling back to serial reads: %s",
              plan.fallbackReason.c_str());
    // The fallback reads every leaf page to the controller and
    // evaluates there at completion, so it inherently buffers every
    // leaf page; the evaluated pages stream in order and the dense
    // peak is reported honestly.
    auto job = std::make_shared<FallbackJob>();
    ResultSink *sink_p = &sink;
    const std::uint64_t page_bits = cfg_.geometry.pageBits();
    return rq_.submit(
        engine::RequestClass::Read, arrivalTime(ro), readKeysOf(leaves),
        {},
        [this, job, sink_p, expr, pages, bits,
         page_bits](RequestId req) {
            sink_p->begin(StreamShape{pages, page_bits, bits});
            job->vals.reserve(pages);
            for (std::size_t j = 0; j < pages; ++j) {
                job->vals.push_back(
                    std::make_shared<std::map<VectorId, BitVector>>());
                engine::ColumnProgram prog =
                    fallbackProgram(expr, j, job->vals[j]);
                prog.onComplete = [this, req] { rq_.workDone(req); };
                rq_.addWork(req);
                engine_.submit(std::move(prog), &job->os);
            }
        },
        [this, job, sink_p, expr, stats, pages, bits, page_bits,
         hook = ro.onOutcome](const engine::RequestQueue::Outcome &oc) {
            engine::OrderedChunkStream::Emit emit =
                sinkEmitter(*sink_p, page_bits, bits);
            for (std::size_t j = 0; j < pages; ++j) {
                emit(j, expr.evaluate(
                            [&](VectorId id) -> const BitVector & {
                                return job->vals[j]->at(id);
                            }));
            }
            mergeStats(stats, job->os, oc.completed - oc.admitted);
            noteRequest("fcRead", oc.admitted, oc.completed);
            if (stats) {
                stats->resultPages += pages;
                stats->streamChunks += pages;
                stats->streamPeakPages = std::max<std::uint64_t>(
                    stats->streamPeakPages, pages);
            }
            sink_p->end();
            if (hook)
                hook(oc);
        });
}

engine::RequestId
FlashCosmosDrive::submitReadVector(VectorId id, ResultSink &sink,
                                   ReadStats *stats,
                                   const RequestOptions &ro)
{
    const VectorInfo &v = info(id);
    std::vector<ssd::PhysPage> page_list = resolvePages(v.pages);
    std::vector<std::uint64_t> read_keys = blockKeysOf(page_list);
    return submitStreamedRead(
        "readVector", v.pages.size(), v.bits, std::move(read_keys), sink,
        stats,
        [page_list = std::move(page_list), inv = v.inverted](std::size_t j) {
            const ssd::PhysPage &p = page_list[j];
            engine::ColumnProgram prog;
            prog.die = p.die;
            prog.plane = p.addr.plane;
            prog.steps.push_back(engine::ColumnStep{
                engine::StepKind::PageRead,
                [a = p.addr, inv](nand::NandChip &chip) {
                    return chip.readPage(a, inv);
                },
                0, 0});
            return prog;
        },
        ro);
}

FlashCosmosDrive::Submitted
FlashCosmosDrive::submitCompute(const Expr &expr, const WriteOptions &opts,
                                ReadStats *stats, const RequestOptions &ro)
{
    std::vector<VectorId> leaves = expr.leafIds();
    fcos_assert(!leaves.empty(), "fcCompute of constant expression");
    std::size_t bits = info(leaves[0]).bits;
    std::size_t pages = info(leaves[0]).pages.size();
    for (VectorId id : leaves) {
        fcos_assert(info(id).bits == bits,
                    "fcCompute operands must have equal sizes");
        fcos_assert(info(id).pages.size() == pages,
                    "page count mismatch");
    }

    // Inverted storage computes the complement into the latch.
    Expr stored_expr = opts.storeInverted ? Expr::Not(expr) : expr;
    MwsPlan plan = planner_.plan(stored_expr);
    if (stats) {
        stats->planKind = plan.kind;
        stats->planText = plan.toString();
    }

    if (opts.replaces != kNoVector)
        trimVector(opts.replaces);
    // Keys resolve after makeVector (which may run GC and relocate
    // operands); once submitted, they pin every touched block.
    VectorInfo v = makeVector(bits, opts.group, opts.storeInverted, pages,
                              opts.homeColumn);
    std::vector<ssd::PhysPage> page_list = resolvePages(v.pages);
    std::vector<std::uint64_t> read_keys = readKeysOf(leaves);
    std::vector<std::uint64_t> write_keys = blockKeysOf(page_list);
    const VectorId id = allocVectorId(std::move(v));

    RequestId rid = 0;
    if (plan.kind == MwsPlan::Kind::Fallback) {
        // Compute controller-side, then write the pages normally: the
        // leaf reads are stage one; the instant the last one lands,
        // the continuation evaluates and submits the page programs as
        // stage two (registered before the final workDone, so the
        // request stays open across the stage boundary).
        fcos_warn("fcCompute falling back to serial reads: %s",
                  plan.fallbackReason.c_str());
        auto job = std::make_shared<FallbackJob>();
        rid = rq_.submit(
            engine::RequestClass::Compute, arrivalTime(ro),
            std::move(read_keys), std::move(write_keys),
            [this, job, stored_expr, pages,
             page_list = std::move(page_list)](RequestId req) {
                job->vals.reserve(pages);
                job->leafReadsLeft = pages;
                for (std::size_t j = 0; j < pages; ++j) {
                    job->vals.push_back(std::make_shared<
                                        std::map<VectorId, BitVector>>());
                    engine::ColumnProgram prog =
                        fallbackProgram(stored_expr, j, job->vals[j]);
                    prog.onComplete = [this, req, job, stored_expr,
                                       page_list] {
                        if (--job->leafReadsLeft == 0) {
                            for (std::size_t k = 0;
                                 k < page_list.size(); ++k) {
                                BitVector out = stored_expr.evaluate(
                                    [&](VectorId vid)
                                        -> const BitVector & {
                                        return job->vals[k]->at(vid);
                                    });
                                rq_.addWork(req);
                                submitPageWrite(
                                    page_list[k],
                                    nand::PageImage::dense(
                                        std::move(out)),
                                    &job->os, [this, req] {
                                        rq_.workDone(req);
                                    });
                            }
                        }
                        rq_.workDone(req);
                    };
                    rq_.addWork(req);
                    engine_.submit(std::move(prog), &job->os);
                }
            },
            [this, job, stats, hook = ro.onOutcome](
                const engine::RequestQueue::Outcome &oc) {
                mergeStats(stats, job->os, oc.completed - oc.admitted);
                noteRequest("fcCompute", oc.admitted, oc.completed);
                if (hook)
                    hook(oc);
            });
        return Submitted{rid, id};
    }

    auto job = std::make_shared<OpJob>();
    rid = rq_.submit(
        engine::RequestClass::Compute, arrivalTime(ro),
        std::move(read_keys), std::move(write_keys),
        [this, job, plan = std::move(plan), stored_expr, pages,
         page_list = std::move(page_list)](RequestId req) {
            for (std::size_t j = 0; j < pages; ++j) {
                engine::ColumnProgram prog =
                    planProgram(plan, stored_expr, j);
                const ssd::PhysPage &dst = page_list[j];
                // The operands' column and the destination column
                // round-robin identically, so the latch holding the
                // result belongs to the destination's plane.
                fcos_assert(dst.die == prog.die &&
                                dst.addr.plane == prog.plane,
                            "fcCompute destination must share the plane");
                prog.readOutResult = false;
                prog.steps.push_back(engine::ColumnStep{
                    engine::StepKind::Program,
                    [addr = dst.addr](nand::NandChip &chip) {
                        return chip.programFromCache(addr);
                    },
                    0, 0});
                prog.onComplete = [this, req] { rq_.workDone(req); };
                rq_.addWork(req);
                engine_.submit(std::move(prog), &job->os);
            }
        },
        [this, job, stats, hook = ro.onOutcome](
            const engine::RequestQueue::Outcome &oc) {
            mergeStats(stats, job->os, oc.completed - oc.admitted);
            noteRequest("fcCompute", oc.admitted, oc.completed);
            if (hook)
                hook(oc);
        });
    return Submitted{rid, id};
}

// --------------------------------------------------------------------------
// Synchronous wrappers
// --------------------------------------------------------------------------

VectorId
FlashCosmosDrive::fcWrite(const BitVector &data, const WriteOptions &opts)
{
    Submitted s = submitWrite(data, opts);
    waitAll();
    return s.vector;
}

VectorId
FlashCosmosDrive::fcWritePages(
    const std::function<nand::PageImage(std::uint64_t)> &gen,
    std::uint64_t pages, const WriteOptions &opts)
{
    Submitted s = submitWritePages(gen, pages, opts);
    waitAll();
    return s.vector;
}

VectorId
FlashCosmosDrive::fcReplicate(VectorId src, std::uint64_t pages,
                              const WriteOptions &opts, ReadStats *stats)
{
    Submitted s = submitReplicate(src, pages, opts, stats);
    waitAll();
    return s.vector;
}

MwsPlan
FlashCosmosDrive::planFor(const Expr &expr) const
{
    return planner_.plan(expr);
}

void
FlashCosmosDrive::fcRead(const Expr &expr, ResultSink &sink,
                         ReadStats *stats)
{
    submitRead(expr, sink, stats);
    waitAll();
}

BitVector
FlashCosmosDrive::fcRead(const Expr &expr, ReadStats *stats)
{
    DenseCollectSink dense;
    fcRead(expr, dense, stats);
    return dense.take();
}

VectorId
FlashCosmosDrive::fcCompute(const Expr &expr, const WriteOptions &opts,
                            ReadStats *stats)
{
    Submitted s = submitCompute(expr, opts, stats);
    waitAll();
    return s.vector;
}

void
FlashCosmosDrive::readVector(VectorId id, ResultSink &sink,
                             ReadStats *stats)
{
    submitReadVector(id, sink, stats);
    waitAll();
}

BitVector
FlashCosmosDrive::readVector(VectorId id, ReadStats *stats)
{
    DenseCollectSink dense;
    readVector(id, dense, stats);
    return dense.take();
}

// --------------------------------------------------------------------------
// Observability and program construction
// --------------------------------------------------------------------------

void
FlashCosmosDrive::noteRequest(const char *name, Time begin, Time end)
{
    if (obs::traceLive(trace_epoch_)) {
        // Serial traffic records B/E spans — byte-identical to the
        // historical one-request-at-a-time trace. A request window
        // overlapping the previous one on the track records as an X
        // overlay instead (Perfetto orders X events by timestamp
        // itself, so completion-order recording is safe).
        if (begin >= req_last_end_)
            obs::trace().span(req_track_, name, begin, end);
        else
            obs::trace().overlay(req_track_, name, begin, end);
        req_last_end_ = std::max(req_last_end_, end);
    }
    if (obs::metricsLive(m_epoch_)) {
        obs::metrics()
            .histogram(std::string("drive.latency.") + name)
            .record(end - begin);
    }
}

void
FlashCosmosDrive::mergeStats(ReadStats *stats, const engine::OpStats &os,
                             Time makespan)
{
    if (!stats)
        return;
    stats->mwsCommands += os.mwsCommands;
    stats->senses += os.senses;
    stats->latchXors += os.latchXors;
    stats->pageReads += os.pageReads;
    stats->nandTime += os.nandTime;
    stats->nandEnergyJ += os.nandEnergyJ;
    stats->makespan += makespan;
}

void
FlashCosmosDrive::columnLocation(const Expr &expr, std::size_t page_index,
                                 std::uint32_t *die,
                                 std::uint32_t *plane) const
{
    std::vector<VectorId> leaves = expr.leafIds();
    fcos_assert(!leaves.empty(), "expression with no leaves");
    const ssd::PhysPage first = pageAt(info(leaves[0]), page_index);
    for (VectorId id : leaves) {
        const ssd::PhysPage p = pageAt(info(id), page_index);
        fcos_assert(p.die == first.die &&
                        p.addr.plane == first.addr.plane,
                    "operands of one expression must stripe identically");
    }
    *die = first.die;
    *plane = first.addr.plane;
}

engine::ColumnProgram
FlashCosmosDrive::planProgram(const MwsPlan &plan, const Expr &expr,
                              std::size_t page_index) const
{
    std::uint32_t die = 0, plane = 0;
    columnLocation(expr, page_index, &die, &plane);

    engine::ColumnProgram prog;
    prog.die = die;
    prog.plane = plane;

    std::uint32_t column = die * cfg_.geometry.planesPerDie + plane;
    fcos_assert(erased_ref_[column].die == die, "erased ref layout");

    LoweringContext ctx;
    ctx.plane = plane;
    ctx.addrOf = [this, page_index](VectorId id) {
        return pageAt(info(id), page_index).addr;
    };
    ctx.storedInverted = [this](VectorId id) {
        return info(id).inverted;
    };
    ctx.erasedRef = &erased_ref_[column].addr;

    for (LoweredStep &ls : lowerPlan(plan, ctx)) {
        if (ls.kind == LoweredStep::Kind::LatchXor) {
            prog.steps.push_back(engine::ColumnStep{
                engine::StepKind::LatchXor,
                [plane](nand::NandChip &chip) {
                    return chip.executeXor(plane);
                },
                0, 0});
            continue;
        }
        prog.steps.push_back(engine::ColumnStep{
            engine::StepKind::Sense,
            [cmd = std::move(ls.cmd),
             or_merge = ls.orMergeAfter](nand::NandChip &chip) {
                nand::OpResult r = chip.executeMws(cmd);
                if (or_merge) {
                    // Legacy cache-read OR transfer (Figure 6(c) path).
                    chip.latches(cmd.plane).dumpOrMerge();
                }
                return r;
            },
            0, 0});
    }

    return prog;
}

engine::ColumnProgram
FlashCosmosDrive::fallbackProgram(
    const Expr &expr, std::size_t page_index,
    std::shared_ptr<std::map<VectorId, BitVector>> values) const
{
    std::uint32_t die = 0, plane = 0;
    columnLocation(expr, page_index, &die, &plane);

    engine::ColumnProgram prog;
    prog.die = die;
    prog.plane = plane;
    prog.readOutResult = false;

    // Serial page reads; every page crosses the channel to the
    // controller, which evaluates the expression at the request's
    // completion. Reads use inverse mode for inverse-stored vectors,
    // recovering logical values directly.
    for (VectorId id : expr.leafIds()) {
        const nand::WordlineAddr a = pageAt(info(id), page_index).addr;
        prog.steps.push_back(engine::ColumnStep{
            engine::StepKind::PageRead,
            [a, inv = info(id).inverted, id, values,
             plane](nand::NandChip &chip) {
                nand::OpResult r = chip.readPage(a, inv);
                (*values)[id] = chip.dataOut(plane);
                return r;
            },
            /*dmaAfterBytes=*/cfg_.geometry.pageBytes, 0});
    }
    return prog;
}

} // namespace fcos::core
