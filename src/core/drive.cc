#include "core/drive.h"

#include <algorithm>
#include <map>

#include "core/lowering.h"
#include "util/log.h"

namespace fcos::core {

/** One request from submit to completion, owned by its completion
 *  hook: every engine callback of the request fires before then. */
struct FlashCosmosDrive::RequestState
{
    RequestId id = 0;
    /** Trace track / latency histogram name (a string literal). */
    const char *name = nullptr;
    ReadStats *stats = nullptr;
    engine::OpStats os; ///< kept only when the caller asked for stats
    /** Reads: the caller's sink and the result's page count. */
    ResultSink *sink = nullptr;
    std::uint64_t pages = 0;
    /** Planned reads: puts column results back into page order. */
    std::unique_ptr<engine::OrderedChunkStream> stream;
    /** Fallbacks: each column's leaf pages read to the controller,
     *  the column reads still in flight, and what runs once the last
     *  one lands. */
    std::vector<std::map<VectorId, BitVector>> leafPages;
    std::size_t leafReadsLeft = 0;
    std::function<void()> onLeavesRead;
    std::function<void(const engine::RequestQueue::Outcome &)> onOutcome;

    engine::OpStats *counters() { return stats ? &os : nullptr; }
};

FlashCosmosDrive::FlashCosmosDrive() : FlashCosmosDrive(Config{}) {}

FlashCosmosDrive::FlashCosmosDrive(const Config &cfg)
    : cfg_(cfg), engine_(cfg),
      rq_(engine_.scheduler(), cfg.admission),
      ftl_(cfg.dieCount(), cfg.geometry), planner_(*this)
{
    // One wordline per column stays allocated, pinned and never
    // programmed. No plan senses it (the planner never needs a final
    // NOT), but every later placement is laid out behind it: without
    // it each vector lands one page earlier, which moves the timelines
    // the concurrent-request, mixed-traffic and soak goldens pin. A
    // change that re-pins those goldens anyway can drop it.
    for (ssd::Lpn lpn : ftl_.allocateStriped(ftl_.columns()))
        ftl_.pin(lpn);
    // Request spans share the scheduler's "drive" trace process.
    const engine::CommandScheduler &sched = engine_.scheduler();
    if (obs::traceLive(sched.traceEpoch())) {
        trace_epoch_ = sched.traceEpoch();
        req_track_ = obs::trace().newTrack(sched.tracePid(), "requests");
    }
    if (obs::metricsOn())
        m_epoch_ = obs::metricsEpoch();
}

FlashCosmosDrive::~FlashCosmosDrive()
{
    engine_.scheduler().fenceAll();
}

void
FlashCosmosDrive::setErrorInjector(nand::ErrorInjector *injector)
{
    engine_.scheduler().fenceAll();
    engine_.farm().setErrorInjector(injector);
}

nand::NandChip &
FlashCosmosDrive::chip(std::uint32_t die)
{
    engine_.scheduler().fence(die);
    return engine_.farm().chip(die);
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

    submitRequest(
        engine::RequestClass::Write, "gc", {}, std::move(write_keys),
        nullptr, {},
        [this, moves = plan.moves, die, plane,
         block = plan.block](RequestState &r) {
            // One copyback program per live page, then the erase: all
            // on one plane, so the plane FIFO runs the copies strictly
            // before the erase regardless of admission interleaving.
            // A copyback's cost reads its source page's mode, so it has
            // none up front and runs at its start.
            for (const ssd::Ftl::GcMove &m : moves) {
                submitProgram(
                    r, engine::stepProgram(
                           die, plane,
                           {engine::StepKind::Copyback,
                            [src = m.src.addr,
                             dst = m.dst.addr](nand::NandChip &chip) {
                                return chip.copyback(src, dst);
                            }}));
            }
            submitProgram(
                r, engine::stepProgram(
                       die, plane,
                       {engine::StepKind::Erase,
                        [plane, block](nand::NandChip &chip) {
                            return chip.eraseBlock(plane, block);
                        },
                        0, 0, shapeOf(die).eraseCost()}));
        });
}

std::vector<std::uint64_t>
FlashCosmosDrive::blockKeysOf(
    const std::vector<ssd::PhysPage> &pages) const
{
    std::vector<std::uint64_t> keys;
    keys.reserve(pages.size());
    for (const ssd::PhysPage &p : pages)
        keys.push_back(ssd::Ftl::blockKey(p));
    return keys;
}

std::vector<std::uint64_t>
FlashCosmosDrive::readKeysOf(const std::vector<VectorId> &leaves) const
{
    std::vector<std::uint64_t> keys;
    for (VectorId id : leaves)
        for (ssd::Lpn lpn : info(id).pages)
            keys.push_back(ssd::Ftl::blockKey(ftl_.physOf(lpn)));
    return keys;
}

// --------------------------------------------------------------------------
// The request helper: every submit* (and GC) goes through submitRequest,
// registers its engine work through addWork, and completes in
// finishRequest.
// --------------------------------------------------------------------------

template <typename Start>
engine::RequestId
FlashCosmosDrive::submitRequest(engine::RequestClass cls, const char *name,
                                std::vector<std::uint64_t> read_keys,
                                std::vector<std::uint64_t> write_keys,
                                ReadStats *stats, const RequestOptions &ro,
                                Start start)
{
    auto state = std::make_shared<RequestState>();
    state->name = name;
    state->stats = stats;
    state->onOutcome = ro.onOutcome;
    RequestState *r = state.get();
    return rq_.submit(
        cls, std::max(ro.arrival, engine_.now()), std::move(read_keys),
        std::move(write_keys),
        [r, start = std::move(start)](RequestId id) mutable {
            r->id = id;
            start(*r);
        },
        [this, state = std::move(state)](
            const engine::RequestQueue::Outcome &oc) {
            finishRequest(*state, oc);
        });
}

std::function<void()>
FlashCosmosDrive::addWork(RequestState &r, std::size_t units)
{
    for (std::size_t i = 0; i < units; ++i)
        rq_.addWork(r.id);
    return [this, id = r.id] { rq_.workDone(id); };
}

void
FlashCosmosDrive::finishRequest(RequestState &r,
                                const engine::RequestQueue::Outcome &oc)
{
    if (ReadStats *s = r.stats) {
        s->mwsCommands += r.os.mwsCommands;
        s->senses += r.os.senses;
        s->latchXors += r.os.latchXors;
        s->pageReads += r.os.pageReads;
        s->nandTime += r.os.nandTime;
        s->nandEnergyJ += r.os.nandEnergyJ;
        s->makespan += oc.completed - oc.admitted;
    }
    // The request window on the "requests" track and its end-to-end
    // latency histogram. Serial traffic records B/E spans —
    // byte-identical to the historical one-request-at-a-time trace. A
    // window overlapping the previous one records as an X overlay
    // instead (Perfetto orders X events by timestamp itself, so
    // completion-order recording is safe).
    if (obs::traceLive(trace_epoch_)) {
        if (oc.admitted >= req_last_end_)
            obs::trace().span(req_track_, r.name, oc.admitted, oc.completed);
        else
            obs::trace().overlay(req_track_, r.name, oc.admitted,
                                 oc.completed);
        req_last_end_ = std::max(req_last_end_, oc.completed);
    }
    if (obs::metricsLive(m_epoch_)) {
        obs::metrics()
            .histogram(std::string("drive.latency.") + r.name)
            .record(oc.completed - oc.admitted);
    }
    if (r.sink) {
        fcos_assert(!r.stream || r.stream->complete(),
                    "streamed %s lost pages", r.name);
        if (ReadStats *s = r.stats) {
            s->resultPages += r.pages;
            s->streamChunks += r.pages;
            // A fallback holds every page until it evaluates them.
            s->streamPeakPages = std::max<std::uint64_t>(
                s->streamPeakPages,
                r.stream ? r.stream->peakBufferedPages() : r.pages);
        }
        r.sink->end();
    }
    if (r.onOutcome)
        r.onOutcome(oc);
}

void
FlashCosmosDrive::submitProgram(RequestState &r, engine::ColumnProgram prog)
{
    std::function<void()> done = addWork(r, 1);
    if (prog.onComplete) {
        // The program's own continuation runs first, so work it
        // registers keeps the request open.
        prog.onComplete = [then = std::move(prog.onComplete),
                           done = std::move(done)] {
            then();
            done();
        };
    } else {
        prog.onComplete = std::move(done);
    }
    engine_.scheduler().submit(std::move(prog), r.counters());
}

void
FlashCosmosDrive::submitPageWrite(RequestState &r, const ssd::PhysPage &dst,
                                  nand::PageImage page)
{
    engine::ColumnStep st;
    st.kind = engine::StepKind::Program;
    // Program data moves controller -> die over the channel first.
    st.dmaBeforeBytes = cfg_.geometry.pageBytes;
    st.run = [addr = dst.addr, data = std::move(page)](nand::NandChip &chip) {
        return chip.programPageEsp(addr, data);
    };
    st.cost = shapeOf(dst.die).programCost(nand::ProgramMode::SlcEsp);
    submitProgram(r, engine::stepProgram(dst.die, dst.addr.plane, std::move(st)));
}

std::uint64_t
FlashCosmosDrive::pageValidBits(std::uint64_t j, std::uint64_t bits) const
{
    const std::uint64_t page_bits = cfg_.geometry.pageBits();
    return std::min<std::uint64_t>(page_bits, bits - j * page_bits);
}

engine::OrderedChunkStream::Emit
FlashCosmosDrive::openSink(RequestState &r, ResultSink &sink,
                           std::uint64_t pages, std::uint64_t bits)
{
    const std::uint64_t page_bits = cfg_.geometry.pageBits();
    r.sink = &sink;
    r.pages = pages;
    sink.begin(StreamShape{pages, page_bits, bits});
    return [this, &sink, page_bits, bits](std::uint64_t j, BitVector page,
                                          PageSummary summary) {
        fcos_assert(!page.empty() || !sink.wantsPages(),
                    "column %llu produced no result",
                    (unsigned long long)j);
        sink.consume(ResultChunk{j, j * page_bits, pageValidBits(j, bits),
                                 page, summary});
    };
}

void
FlashCosmosDrive::submitFallback(
    RequestState &r, const Expr &expr, std::uint64_t pages,
    std::function<void(std::uint64_t, BitVector)> use)
{
    r.leafPages.resize(pages);
    r.leafReadsLeft = pages;
    r.onLeavesRead = [&r, expr, use = std::move(use)] {
        for (std::size_t j = 0; j < r.leafPages.size(); ++j) {
            use(j, expr.evaluate([&](VectorId id) -> const BitVector & {
                return r.leafPages[j].at(id);
            }));
        }
    };
    const std::vector<VectorId> leaves = expr.leafIds();
    for (std::size_t j = 0; j < pages; ++j) {
        engine::ColumnProgram prog = columnProgram(expr, j);
        const nand::OpResult read_cost = shapeOf(prog.die).readCost();
        prog.readOutResult = false;
        // Serial page reads, each crossing the channel to the
        // controller; inverse-mode reads of inverse-stored vectors
        // recover logical values directly.
        for (VectorId id : leaves) {
            prog.steps.push_back(engine::ColumnStep{
                engine::StepKind::PageRead,
                [a = pageAt(info(id), j).addr, inv = info(id).inverted, id,
                 values = &r.leafPages[j]](nand::NandChip &chip) {
                    nand::OpResult res = chip.readPage(a, inv);
                    (*values)[id] = chip.dataOut(a.plane);
                    return res;
                },
                /*dmaAfterBytes=*/cfg_.geometry.pageBytes, 0, read_cost});
        }
        prog.onComplete = [&r] {
            if (--r.leafReadsLeft == 0)
                r.onLeavesRead();
        };
        submitProgram(r, std::move(prog));
    }
}

FlashCosmosDrive::Operands
FlashCosmosDrive::prepare(const Expr &expr, const char *op,
                          ReadStats *stats) const
{
    Operands o;
    o.leaves = expr.leafIds();
    fcos_assert(!o.leaves.empty(), "%s of constant expression", op);
    o.bits = info(o.leaves[0]).bits;
    o.pages = info(o.leaves[0]).pages.size();
    for (VectorId id : o.leaves) {
        fcos_assert(info(id).bits == o.bits,
                    "%s operands must have equal sizes", op);
        fcos_assert(info(id).pages.size() == o.pages, "page count mismatch");
    }
    o.plan = planner_.plan(expr);
    if (stats) {
        stats->planKind = o.plan.kind;
        stats->planText = o.plan.toString();
    }
    if (o.plan.kind == MwsPlan::Kind::Fallback)
        fcos_warn("%s falling back to serial reads: %s", op,
                  o.plan.fallbackReason.c_str());
    return o;
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
    return submitPages(
        data.size(), (data.size() + page_bits - 1) / page_bits,
        [&data, page_bits](std::uint64_t j) {
            const std::uint64_t begin = j * page_bits;
            BitVector page(page_bits, false);
            page.paste(0, data.slice(begin, std::min<std::uint64_t>(
                                                page_bits,
                                                data.size() - begin)));
            return nand::PageImage::dense(std::move(page));
        },
        opts, ro);
}

FlashCosmosDrive::Submitted
FlashCosmosDrive::submitWritePages(
    const std::function<nand::PageImage(std::uint64_t)> &gen,
    std::uint64_t pages, const WriteOptions &opts,
    const RequestOptions &ro)
{
    fcos_assert(gen != nullptr, "fcWritePages without a generator");
    fcos_assert(pages >= 1, "fcWritePages of empty vector");
    return submitPages(pages * cfg_.geometry.pageBits(), pages, gen, opts,
                       ro);
}

FlashCosmosDrive::Submitted
FlashCosmosDrive::submitPages(
    std::size_t bits, std::uint64_t pages,
    const std::function<nand::PageImage(std::uint64_t)> &gen,
    const WriteOptions &opts, const RequestOptions &ro)
{
    if (opts.replaces != kNoVector)
        trimVector(opts.replaces);
    VectorInfo v = makeVector(bits, opts.group, opts.storeInverted, pages,
                              opts.homeColumn);

    // Images are built now, at submit: the host hands the data over
    // with the request, so the caller's buffer may die before
    // admission. The generator runs in page order (its call sequence
    // is part of the reproducibility contract).
    std::vector<nand::PageImage> images;
    images.reserve(pages);
    for (std::uint64_t j = 0; j < pages; ++j) {
        nand::PageImage img = gen(j);
        images.push_back(v.inverted ? img.inverted() : std::move(img));
    }

    std::vector<ssd::PhysPage> page_list = resolvePages(v.pages);
    std::vector<std::uint64_t> write_keys = blockKeysOf(page_list);
    const VectorId id = allocVectorId(std::move(v));

    const RequestId rid = submitRequest(
        engine::RequestClass::Write, "fcWrite", {}, std::move(write_keys),
        nullptr, ro,
        [this, images = std::move(images),
         page_list = std::move(page_list)](RequestState &r) mutable {
            for (std::size_t j = 0; j < page_list.size(); ++j)
                submitPageWrite(r, page_list[j], std::move(images[j]));
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

    const RequestId rid = submitRequest(
        engine::RequestClass::Write, "fcReplicate", blockKeysOf({src_page}),
        std::move(write_keys), stats, ro,
        [this, src_page, targets = std::move(targets)](RequestState &r) {
            engine_.broadcastPage(src_page.die, src_page.addr, targets,
                                  nand::EspParams{}, r.counters(),
                                  addWork(r, targets.size()));
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
    return submitRequest(
        engine::RequestClass::Read, name, std::move(read_keys), {}, stats,
        ro,
        [this, &sink, pages, bits,
         make_program = std::move(make_program)](RequestState &r) {
            r.stream = std::make_unique<engine::OrderedChunkStream>(
                pages, openSink(r, sink, pages, bits));
            for (std::size_t j = 0; j < pages; ++j) {
                engine::ColumnProgram prog = make_program(j);
                prog.resultBits = pageValidBits(j, bits);
                prog.summaryOnly = !sink.wantsPages();
                prog.onResult = r.stream->handler(j);
                submitProgram(r, std::move(prog));
            }
        });
}

engine::RequestId
FlashCosmosDrive::submitRead(const Expr &expr, ResultSink &sink,
                             ReadStats *stats, const RequestOptions &ro)
{
    Operands o = prepare(expr, "fcRead", stats);
    if (o.plan.kind != MwsPlan::Kind::Fallback) {
        return submitStreamedRead(
            "fcRead", o.pages, o.bits, readKeysOf(o.leaves), sink, stats,
            [this, plan = std::move(o.plan), expr](std::size_t j) {
                return planProgram(plan, expr, j);
            },
            ro);
    }
    // The fallback reads every leaf page to the controller and
    // evaluates there once the last one lands, so it inherently
    // buffers every leaf page; the evaluated pages stream in order and
    // the dense peak is reported honestly.
    return submitRequest(
        engine::RequestClass::Read, "fcRead", readKeysOf(o.leaves), {},
        stats, ro,
        [this, &sink, expr, pages = o.pages,
         bits = o.bits](RequestState &r) {
            // Controller-evaluated pages are summarized on the host.
            submitFallback(
                r, expr, pages,
                [this, bits, emit = openSink(r, sink, pages, bits)](
                    std::uint64_t j, BitVector page) {
                    const PageSummary summary =
                        PageSummary::of(page, pageValidBits(j, bits));
                    emit(j, std::move(page), summary);
                });
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
        [this, page_list = std::move(page_list),
         inv = v.inverted](std::size_t j) {
            const ssd::PhysPage &p = page_list[j];
            engine::ColumnProgram prog = engine::stepProgram(
                p.die, p.addr.plane,
                {engine::StepKind::PageRead,
                 [a = p.addr, inv](nand::NandChip &chip) {
                     return chip.readPage(a, inv);
                 },
                 0, 0, shapeOf(p.die).readCost()});
            prog.readOutResult = true;
            return prog;
        },
        ro);
}

FlashCosmosDrive::Submitted
FlashCosmosDrive::submitCompute(const Expr &expr, const WriteOptions &opts,
                                ReadStats *stats, const RequestOptions &ro)
{
    // Inverted storage computes the complement into the latch.
    Expr stored_expr = opts.storeInverted ? Expr::Not(expr) : expr;
    Operands o = prepare(stored_expr, "fcCompute", stats);

    if (opts.replaces != kNoVector)
        trimVector(opts.replaces);
    // Keys resolve after makeVector (which may run GC and relocate
    // operands); once submitted, they pin every touched block.
    VectorInfo v = makeVector(o.bits, opts.group, opts.storeInverted,
                              o.pages, opts.homeColumn);
    std::vector<ssd::PhysPage> page_list = resolvePages(v.pages);
    std::vector<std::uint64_t> read_keys = readKeysOf(o.leaves);
    std::vector<std::uint64_t> write_keys = blockKeysOf(page_list);
    const VectorId id = allocVectorId(std::move(v));

    const RequestId rid = submitRequest(
        engine::RequestClass::Compute, "fcCompute", std::move(read_keys),
        std::move(write_keys), stats, ro,
        [this, plan = std::move(o.plan), stored_expr,
         page_list = std::move(page_list)](RequestState &r) mutable {
            if (plan.kind == MwsPlan::Kind::Fallback) {
                // Compute controller-side, then write the pages
                // normally: the leaf reads are stage one; the instant
                // the last one lands, the evaluated pages' programs
                // are submitted as stage two.
                const std::uint64_t pages = page_list.size();
                submitFallback(
                    r, stored_expr, pages,
                    [this, &r, page_list = std::move(page_list)](
                        std::uint64_t j, BitVector out) {
                        submitPageWrite(
                            r, page_list[j],
                            nand::PageImage::dense(std::move(out)));
                    });
                return;
            }
            for (std::size_t j = 0; j < page_list.size(); ++j) {
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
                    0, 0, shapeOf(dst.die).programCost()});
                submitProgram(r, std::move(prog));
            }
        });
    return Submitted{rid, id};
}

// --------------------------------------------------------------------------
// Synchronous wrappers
// --------------------------------------------------------------------------

VectorId
FlashCosmosDrive::fcWrite(const BitVector &data, const WriteOptions &opts)
{
    return settle(submitWrite(data, opts));
}

VectorId
FlashCosmosDrive::fcWritePages(
    const std::function<nand::PageImage(std::uint64_t)> &gen,
    std::uint64_t pages, const WriteOptions &opts)
{
    return settle(submitWritePages(gen, pages, opts));
}

VectorId
FlashCosmosDrive::fcReplicate(VectorId src, std::uint64_t pages,
                              const WriteOptions &opts, ReadStats *stats)
{
    return settle(submitReplicate(src, pages, opts, stats));
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
    return settle(submitCompute(expr, opts, stats));
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
// Program construction
// --------------------------------------------------------------------------

engine::ColumnProgram
FlashCosmosDrive::columnProgram(const Expr &expr,
                                std::size_t page_index) const
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
    engine::ColumnProgram prog;
    prog.die = first.die;
    prog.plane = first.addr.plane;
    return prog;
}

engine::ColumnProgram
FlashCosmosDrive::planProgram(const MwsPlan &plan, const Expr &expr,
                              std::size_t page_index) const
{
    engine::ColumnProgram prog = columnProgram(expr, page_index);
    LoweringContext ctx;
    ctx.plane = prog.plane;
    ctx.addrOf = [this, page_index](VectorId id) {
        return pageAt(info(id), page_index).addr;
    };
    ctx.storedInverted = [this](VectorId id) {
        return info(id).inverted;
    };
    ctx.chip = &shapeOf(prog.die);

    prog.steps = lowerPlan(plan, ctx);
    return prog;
}

} // namespace fcos::core
