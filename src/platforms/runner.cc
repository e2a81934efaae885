#include "platforms/runner.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/lowering.h"
#include "core/planner.h"
#include "engine/engine.h"
#include "engine/result_stream.h"
#include "host/host_model.h"
#include "nand/power_model.h"
#include "util/log.h"
#include "util/rng.h"

namespace fcos::plat {

const char *
platformName(PlatformKind k)
{
    switch (k) {
      case PlatformKind::Osp:
        return "OSP";
      case PlatformKind::Isp:
        return "ISP";
      case PlatformKind::ParaBit:
        return "PB";
      case PlatformKind::FlashCosmos:
        return "FC";
    }
    return "?";
}

namespace {

/** Page-chunking of one plane's row range. */
struct ChunkShape
{
    std::uint64_t rows = 0;   ///< result rows per plane
    std::uint64_t granule = 1; ///< rows per chunk
    std::uint64_t chunks = 0;

    std::uint64_t rowsOf(std::uint64_t chunk) const
    {
        std::uint64_t begin = chunk * granule;
        return std::min(granule, rows - begin);
    }
};

ChunkShape
shapeFor(std::uint64_t operand_bytes, const ssd::SsdConfig &cfg)
{
    std::uint64_t stripe =
        static_cast<std::uint64_t>(cfg.geometry.pageBytes) *
        cfg.columnCount();
    ChunkShape s;
    s.rows = std::max<std::uint64_t>(
        1, (operand_bytes + stripe - 1) / stripe);
    // <= 16 pages per chunk keeps the ISP tile inside the 256-KiB SRAM
    // and bounds event counts; <= 32 chunks keeps pipelines smooth.
    s.granule = std::clamp<std::uint64_t>((s.rows + 31) / 32, 1, 16);
    s.chunks = (s.rows + s.granule - 1) / s.granule;
    return s;
}

double
pageReadEnergy(const ssd::SsdConfig &cfg)
{
    return nand::PowerModel::energy(nand::PowerModel::kReadPower,
                                    cfg.timings.tReadSlc);
}

/**
 * The platform op graph: chunked sense -> DMA -> external -> host
 * pipelines booked on the scheduler's facilities, one column per
 * plane of the channel slice.
 */
std::uint64_t
driveWorkload(PlatformKind kind, const wl::Workload &workload,
              const ssd::SsdConfig &cfg, const ssd::SsdConfig &chan_cfg,
              engine::CommandScheduler &sched, host::HostModel &host)
{
    const std::uint64_t page_bytes = cfg.geometry.pageBytes;
    const std::uint32_t planes_per_die = chan_cfg.geometry.planesPerDie;
    const std::uint32_t planes = chan_cfg.columnCount();
    const Time t_read = cfg.timings.tReadSlc;
    const Time t_mws = cfg.timings.tMwsFixed;
    const double e_read = pageReadEnergy(cfg);

    // A timing-only plane op: one @p kind step occupying plane @p p
    // for @p dur and booking @p joules; @p done fires at its
    // completion.
    auto plane_op = [&sched, planes_per_die](
                        std::uint32_t p, Time dur, double joules,
                        engine::StepKind kind,
                        engine::CommandScheduler::Callback done) {
        engine::ColumnProgram prog = engine::stepProgram(
            p / planes_per_die, p % planes_per_die,
            {kind, nullptr, 0, 0, nand::OpResult{dur, joules}});
        prog.onComplete = std::move(done);
        sched.submit(std::move(prog));
    };

    std::uint64_t sense_ops = 0;
    for (const wl::OpBatch &batch : workload.batches) {
        ChunkShape shape = shapeFor(batch.operandBytes, cfg);
        std::uint64_t operands = batch.totalOperands();
        const bool post = batch.hostPostProcess;

        // The finished result crosses the external link; the host
        // either folds it further or just lands it in DRAM.
        auto to_host = [&sched, &host, post](std::uint64_t bytes) {
            sched.submitExternal(bytes, [&host, bytes, post] {
                if (post)
                    host.computeChunk(bytes);
                else
                    host.receive(bytes);
            });
        };

        switch (kind) {
          case PlatformKind::Osp: {
            // Operand-major streaming: sense -> DMA -> external -> host
            // fold. The host result never re-crosses the link.
            for (std::uint64_t op = 0; op < operands; ++op) {
                for (std::uint64_t c = 0; c < shape.chunks; ++c) {
                    std::uint64_t rows = shape.rowsOf(c);
                    std::uint64_t bytes = rows * page_bytes;
                    for (std::uint32_t p = 0; p < planes; ++p) {
                        sense_ops += rows;
                        plane_op(
                            p, rows * t_read, rows * e_read,
                            engine::StepKind::PageRead,
                            [&sched, &host, p, planes_per_die, bytes] {
                                sched.submitDma(
                                    p / planes_per_die, bytes,
                                    [&sched, &host, bytes] {
                                        sched.submitExternal(
                                            bytes, [&host, bytes] {
                                                host.computeChunk(bytes);
                                            });
                                    });
                            });
                    }
                }
            }
            break;
          }
          case PlatformKind::Isp: {
            // sense -> DMA -> accelerator; the last operand's tiles
            // carry the finished result out through the external link.
            for (std::uint64_t op = 0; op < operands; ++op) {
                const bool last = (op + 1 == operands);
                for (std::uint64_t c = 0; c < shape.chunks; ++c) {
                    std::uint64_t rows = shape.rowsOf(c);
                    std::uint64_t bytes = rows * page_bytes;
                    for (std::uint32_t p = 0; p < planes; ++p) {
                        sense_ops += rows;
                        const bool out = last && batch.resultToHost;
                        plane_op(
                            p, rows * t_read, rows * e_read,
                            engine::StepKind::PageRead,
                            [&sched, to_host, p, planes_per_die, bytes,
                             out] {
                                sched.submitDma(
                                    p / planes_per_die, bytes,
                                    [&sched, to_host, bytes, out] {
                                        sched.submitAccel(
                                            0, bytes,
                                            [to_host, bytes, out] {
                                                if (out)
                                                    to_host(bytes);
                                            });
                                    });
                            });
                    }
                }
            }
            break;
          }
          case PlatformKind::ParaBit:
          case PlatformKind::FlashCosmos: {
            // In-flash processing: per result row, PB senses every
            // operand serially; FC senses via MWS command chains.
            std::uint64_t senses_per_row;
            Time t_sense;
            double e_sense;
            if (kind == PlatformKind::ParaBit) {
                senses_per_row = operands;
                t_sense = t_read;
                e_sense = e_read;
            } else {
                senses_per_row = PlatformRunner::fcSensesPerRow(
                    batch.andOperands, batch.orOperands,
                    cfg.maxIntraMwsWordlines(),
                    core::PlanCommand::kMaxStrings);
                t_sense = t_mws;
                // Conservative MWS power: a full string plus the
                // typical string count of this batch's commands.
                std::uint32_t strings = std::min<std::uint32_t>(
                    core::PlanCommand::kMaxStrings,
                    static_cast<std::uint32_t>(
                        1 + std::min<std::uint64_t>(batch.orOperands,
                                                    3)));
                e_sense = nand::PowerModel::energy(
                    nand::PowerModel::mwsPower(
                        cfg.maxIntraMwsWordlines(), strings),
                    t_mws);
            }
            for (std::uint64_t c = 0; c < shape.chunks; ++c) {
                std::uint64_t rows = shape.rowsOf(c);
                std::uint64_t bytes = rows * page_bytes;
                for (std::uint32_t p = 0; p < planes; ++p) {
                    sense_ops += rows * senses_per_row;
                    const bool out = batch.resultToHost;
                    plane_op(
                        p, rows * senses_per_row * t_sense,
                        static_cast<double>(rows * senses_per_row) *
                            e_sense,
                        kind == PlatformKind::ParaBit
                            ? engine::StepKind::PageRead
                            : engine::StepKind::Sense,
                        [&sched, to_host, p, planes_per_die, bytes, out] {
                            if (!out)
                                return;
                            sched.submitDma(p / planes_per_die, bytes,
                                            [to_host, bytes] {
                                                to_host(bytes);
                                            });
                        });
                }
            }
            break;
          }
        }
    }
    return sense_ops;
}

} // namespace

std::uint64_t
PlatformRunner::fcSensesPerRow(std::uint64_t and_operands,
                               std::uint64_t or_operands,
                               std::uint32_t max_wordlines,
                               std::uint32_t max_strings)
{
    fcos_assert(max_wordlines >= 1 && max_strings >= 1, "bad MWS limits");
    if (and_operands == 0 && or_operands == 0)
        return 0;
    if (and_operands == 0) {
        // Pure OR over inverse-stored operands: one inverse intra-block
        // MWS per string's worth, OR-merged (Section 6.1).
        return (or_operands + max_wordlines - 1) / max_wordlines;
    }
    std::uint64_t and_cmds =
        (and_operands + max_wordlines - 1) / max_wordlines;
    if (or_operands == 0)
        return and_cmds;
    if (and_cmds == 1 && or_operands <= max_strings - 1) {
        // The OR operands ride along as extra strings of the single
        // AND command: (AND-group) OR o1 OR ... (the KCS fusion).
        return 1;
    }
    // Otherwise the OR operands are folded afterwards with OR-merge
    // commands, up to (max_strings) plain strings each.
    return and_cmds + (or_operands + max_strings - 1) / max_strings;
}

namespace {

/** Per-channel symmetric configuration (see file comment). */
ssd::SsdConfig
channelSlice(const ssd::SsdConfig &cfg)
{
    ssd::SsdConfig chan_cfg = cfg;
    chan_cfg.channels = 1;
    chan_cfg.io.externalGBps = cfg.io.externalGBps / cfg.channels;
    return chan_cfg;
}

/**
 * One simulated channel of the symmetric SSD (see file comment): its
 * configuration slice, its engine, and a host model streaming at the
 * channel's fair share of the host rate.
 */
struct ChannelSim
{
    explicit ChannelSim(const ssd::SsdConfig &ssd_cfg)
        : cfg(channelSlice(ssd_cfg)), eng(cfg), sched(eng.scheduler()),
          host(sched.queue(), sched.energy(), hostShare(ssd_cfg.channels))
    {}

    static host::HostConfig hostShare(std::uint32_t channels)
    {
        host::HostConfig h;
        h.streamGBps /= channels;
        return h;
    }

    /** Scale per-channel energies to the whole SSD @p ssd_cfg and
     *  finish the result. Host CPU time-based energy and the (single)
     *  controller are not per-channel. */
    RunResult result(const ssd::SsdConfig &ssd_cfg, Time makespan,
                     std::uint64_t sense_ops) const
    {
        RunResult r;
        r.makespan = makespan;
        r.planeBusy = sched.maxPlaneBusyTime();
        r.channelBusy = sched.channelBusyTime(0);
        r.externalBusy = sched.externalBusyTime();
        r.hostBusy = host.busyTime();
        r.senseOps = sense_ops * ssd_cfg.channels;

        ssd::EnergyMeter meter = sched.energy();
        double ch = static_cast<double>(ssd_cfg.channels);
        for (ssd::EnergyComponent c :
             {ssd::EnergyComponent::NandRead, ssd::EnergyComponent::NandMws,
              ssd::EnergyComponent::NandProgram,
              ssd::EnergyComponent::NandErase,
              ssd::EnergyComponent::ChannelDma,
              ssd::EnergyComponent::ExternalLink,
              ssd::EnergyComponent::IspAccel,
              ssd::EnergyComponent::HostDram})
            meter.scale(c, ch);
        meter.add(ssd::EnergyComponent::Controller,
                  ssd_cfg.io.controllerActiveWatts * timeToSec(makespan));
        r.meter = meter;
        r.energyJ = meter.total();
        return r;
    }

    ssd::SsdConfig cfg;
    engine::ComputeEngine eng;
    engine::CommandScheduler &sched;
    host::HostModel host;
};

} // namespace

RunResult
PlatformRunner::run(PlatformKind kind, const wl::Workload &workload) const
{
    ChannelSim ch(cfg_);
    std::uint64_t sense_ops =
        driveWorkload(kind, workload, cfg_, ch.cfg, ch.sched, ch.host);
    Time makespan = ch.eng.drain();
    return ch.result(cfg_, makespan, sense_ops);
}

namespace {

/** Storage facts of one functional batch's abstract operand table:
 *  ids [0, chained) stack in the row's string chain (AND operands, or
 *  the inverse-stored De Morgan operands of a pure-OR batch); ids
 *  beyond that are the KCS-fusion OR operands, each in its own block
 *  so it contributes a distinct string. */
class BatchLayout : public core::StorageResolver
{
  public:
    BatchLayout(const nand::Geometry &geom, std::uint64_t and_ops,
                std::uint64_t or_ops)
        : geom_(geom), and_ops_(and_ops), or_ops_(or_ops),
          pure_or_(and_ops == 0 && or_ops > 0),
          chained_(and_ops + (pure_or_ ? or_ops : 0))
    {
        std::uint64_t chains =
            (chained_ + geom.wordlinesPerSubBlock - 1) /
            geom.wordlinesPerSubBlock;
        chain_blocks_ = chained_
                            ? (chains + geom.subBlocksPerBlock - 1) /
                                  geom.subBlocksPerBlock
                            : 0;
    }

    std::uint64_t operandCount() const { return and_ops_ + or_ops_; }

    /** Blocks one result row's operands occupy. */
    std::uint64_t blocksPerRow() const
    {
        std::uint64_t fused = pure_or_ ? 0 : or_ops_;
        return std::max<std::uint64_t>(1, chain_blocks_ + fused);
    }

    /** Physical wordline of operand @p id in the row rooted at
     *  @p row_block on @p plane. */
    nand::WordlineAddr addrOf(core::VectorId id, std::uint32_t plane,
                              std::uint32_t row_block) const
    {
        const std::uint32_t wls = geom_.wordlinesPerSubBlock;
        const std::uint32_t subs = geom_.subBlocksPerBlock;
        if (id < chained_) {
            std::uint32_t chain = static_cast<std::uint32_t>(id / wls);
            return {plane, row_block + chain / subs, chain % subs,
                    static_cast<std::uint32_t>(id % wls)};
        }
        std::uint32_t j = static_cast<std::uint32_t>(id - chained_);
        return {plane,
                row_block + static_cast<std::uint32_t>(chain_blocks_) + j,
                0, 0};
    }

    // core::StorageResolver: pure-OR operands store the complement
    // (the §6.1 De Morgan trick); everything else stores plain.
    bool isStoredInverted(core::VectorId id) const override
    {
        return pure_or_ && id < chained_;
    }
    std::uint64_t stringKey(core::VectorId id) const override
    {
        if (id < chained_)
            return id / geom_.wordlinesPerSubBlock;
        return (1ULL << 20) + (id - chained_);
    }

    /** The batch expression: AND of the and-operands with the
     *  or-operands OR-ed in (the KCS star-formation shape). */
    core::Expr expression() const
    {
        using core::Expr;
        std::vector<Expr> ors;
        if (and_ops_ > 0) {
            std::vector<Expr> ands;
            for (std::uint64_t i = 0; i < and_ops_; ++i)
                ands.push_back(Expr::leaf(
                    static_cast<core::VectorId>(i)));
            if (or_ops_ == 0)
                return Expr::And(std::move(ands));
            ors.push_back(Expr::And(std::move(ands)));
        }
        for (std::uint64_t j = 0; j < or_ops_; ++j)
            ors.push_back(Expr::leaf(
                static_cast<core::VectorId>(and_ops_ + j)));
        return Expr::Or(std::move(ors));
    }

  private:
    nand::Geometry geom_;
    std::uint64_t and_ops_;
    std::uint64_t or_ops_;
    bool pure_or_;
    std::uint64_t chained_;
    std::uint64_t chain_blocks_ = 0;
};

/** Seed stream of operand @p i at (batch, column, row). The streamed
 *  run programs operands with these seeds and
 *  fcFunctionalExpectedPage re-derives the fold from them, so the two
 *  must stay one function. */
std::uint64_t
operandStream(std::uint64_t batch_idx, std::uint32_t col, std::uint64_t r,
              std::uint64_t i)
{
    return (batch_idx << 48) + (static_cast<std::uint64_t>(col) << 28) +
           (r << 8) + i;
}

} // namespace

RunResult
PlatformRunner::runFcStreamed(const wl::Workload &workload,
                              std::uint64_t seed, core::ResultSink &sink,
                              StreamStats *stream_stats) const
{
    ChannelSim ch(cfg_);
    const ssd::SsdConfig &chan_cfg = ch.cfg;
    engine::ComputeEngine &eng = ch.eng;
    engine::CommandScheduler &sched = ch.sched;
    host::HostModel &host = ch.host;

    const nand::Geometry &geom = chan_cfg.geometry;
    const std::uint64_t page_bits = geom.pageBits();
    const std::uint64_t page_bytes = geom.pageBytes;
    const std::uint32_t columns = chan_cfg.columnCount();
    const Time t_mws = cfg_.timings.tMwsFixed;
    const nand::EspParams esp{};

    std::uint64_t sense_ops = 0;
    std::uint64_t page_base = 0;
    std::uint32_t block_base = 0;

    // Result pages across batches; the stream hands them to the sink
    // in slot order, so the sink sees exactly the dense layout without
    // anything materializing it.
    std::uint64_t total_pages = 0;
    for (const wl::OpBatch &batch : workload.batches)
        total_pages += shapeFor(batch.operandBytes, cfg_).rows * columns;
    sink.begin(core::StreamShape{total_pages, page_bits,
                                 total_pages * page_bits});
    engine::OrderedChunkStream stream(
        std::max<std::uint64_t>(total_pages, 1),
        [&sink, page_bits](std::uint64_t slot, BitVector page,
                           core::PageSummary summary) {
            sink.consume(core::ResultChunk{slot, slot * page_bits,
                                           page_bits, page, summary});
        });

    std::size_t batch_idx = 0;
    for (const wl::OpBatch &batch : workload.batches) {
        const std::uint64_t k = batch.andOperands;
        const std::uint64_t m = batch.orOperands;
        fcos_assert(k + m >= 2, "functional batch needs >= 2 operands");
        const BatchLayout layout(geom, k, m);
        const ChunkShape shape = shapeFor(batch.operandBytes, cfg_);
        const std::uint64_t row_blocks = layout.blocksPerRow();
        fcos_assert(block_base + shape.rows * row_blocks <=
                        geom.blocksPerPlane,
                    "workload too large to materialize");

        // One plan serves every column and row: the abstract operand
        // table is position-independent; only the lowering binds
        // physical wordlines.
        const core::Planner planner(layout);
        const core::MwsPlan plan = planner.plan(layout.expression());
        fcos_assert(plan.kind == core::MwsPlan::Kind::Mws,
                    "functional batch must compile to an MWS chain: %s",
                    plan.toString().c_str());
        // Certify the closed-form sense count (fcSensesPerRow): the
        // planner must execute the batch in exactly the commands the
        // timing-only driver charges for.
        fcos_assert(plan.senseCount() ==
                        fcSensesPerRow(k, m, cfg_.maxIntraMwsWordlines(),
                                       core::PlanCommand::kMaxStrings),
                    "planner (%zu cmds) disagrees with the closed-form "
                    "sense count",
                    plan.senseCount());

        for (std::uint32_t col = 0; col < columns; ++col) {
            const std::uint32_t die = col / geom.planesPerDie;
            const std::uint32_t plane = col % geom.planesPerDie;
            nand::NandChip &chip = eng.farm().chip(die);
            for (std::uint64_t r = 0; r < shape.rows; ++r) {
                const std::uint32_t row_block =
                    block_base +
                    static_cast<std::uint32_t>(r * row_blocks);
                // Operands in place (instant functional programming):
                // the workload models computation over stored data.
                // Pages are programmed as seeded descriptors, so a
                // wide page is not materialized here — the reference
                // fold of the same descriptors is
                // fcFunctionalExpectedPage, recomputed per page by
                // whoever verifies the stream.
                for (std::uint64_t i = 0; i < layout.operandCount();
                     ++i) {
                    nand::PageImage img = nand::PageImage::random(
                        Rng::mix(seed,
                                 operandStream(batch_idx, col, r, i)));
                    const core::VectorId id =
                        static_cast<core::VectorId>(i);
                    chip.programPageEsp(
                        layout.addrOf(id, plane, row_block),
                        layout.isStoredInverted(id) ? img.inverted()
                                                    : img,
                        esp);
                }
                const std::uint64_t slot =
                    page_base + r * columns + col;

                core::LoweringContext ctx;
                ctx.plane = plane;
                ctx.addrOf = [&layout, plane,
                              row_block](core::VectorId id) {
                    return layout.addrOf(id, plane, row_block);
                };
                ctx.storedInverted = [&layout](core::VectorId id) {
                    return layout.isStoredInverted(id);
                };
                ctx.chip = &chip;

                engine::ColumnProgram prog;
                prog.die = die;
                prog.plane = plane;
                for (engine::ColumnStep &step :
                     core::lowerPlan(plan, ctx)) {
                    fcos_assert(step.kind == engine::StepKind::Sense,
                                "functional plans lower to senses only");
                    step.run = [sense = std::move(step.run),
                                t_mws](nand::NandChip &c) {
                        nand::OpResult op = sense(c);
                        // The SSD schedules the conservative fixed
                        // command latency (Section 5.2), matching the
                        // timing-only driver.
                        op.latency = t_mws;
                        return op;
                    };
                    step.cost->latency = t_mws;
                    prog.steps.push_back(std::move(step));
                    ++sense_ops;
                }
                const bool to_host = batch.resultToHost;
                const bool post = batch.hostPostProcess;
                // Payload streams out at latch capture; the readout
                // DMA and the external/host chunk charges stay on the
                // timeline exactly where the dense path booked them.
                prog.onResult = stream.handler(slot);
                if (to_host) {
                    prog.onComplete = [&sched, &host, page_bytes,
                                       post] {
                        sched.submitExternal(
                            page_bytes, [&host, page_bytes, post] {
                                if (post)
                                    host.computeChunk(page_bytes);
                                else
                                    host.receive(page_bytes);
                            });
                    };
                }
                sched.submit(std::move(prog));
            }
        }
        block_base += static_cast<std::uint32_t>(shape.rows * row_blocks);
        page_base += shape.rows * columns;
        ++batch_idx;
    }

    Time makespan = eng.drain();
    fcos_assert(total_pages == 0 || stream.complete(),
                "streamed functional run lost pages");
    if (stream_stats) {
        stream_stats->chunks = stream.emitted();
        stream_stats->peakBufferedPages = stream.peakBufferedPages();
    }
    sink.end();
    return ch.result(cfg_, makespan, sense_ops);
}

BitVector
PlatformRunner::fcFunctionalExpectedPage(const wl::Workload &workload,
                                         std::uint64_t seed,
                                         std::uint64_t page) const
{
    ssd::SsdConfig chan_cfg = channelSlice(cfg_);
    const nand::Geometry &geom = chan_cfg.geometry;
    const std::uint64_t page_bits = geom.pageBits();
    const std::uint32_t columns = chan_cfg.columnCount();

    std::uint64_t base = 0;
    std::uint64_t batch_idx = 0;
    for (const wl::OpBatch &batch : workload.batches) {
        const std::uint64_t span =
            shapeFor(batch.operandBytes, cfg_).rows * columns;
        if (page < base + span) {
            const std::uint64_t local = page - base;
            const std::uint64_t r = local / columns;
            const std::uint32_t col =
                static_cast<std::uint32_t>(local % columns);
            const std::uint64_t k = batch.andOperands;
            const std::uint64_t m = batch.orOperands;
            BitVector ref(page_bits, k > 0);
            for (std::uint64_t i = 0; i < k + m; ++i) {
                BitVector value =
                    nand::PageImage::random(
                        Rng::mix(seed,
                                 operandStream(batch_idx, col, r, i)))
                        .materialize(page_bits);
                if (i < k)
                    ref &= value;
                else
                    ref |= value;
            }
            return ref;
        }
        base += span;
        ++batch_idx;
    }
    fcos_panic("result page %llu beyond the workload",
               (unsigned long long)page);
}

PlatformRunner::FunctionalRun
PlatformRunner::runFcFunctional(const wl::Workload &workload,
                                std::uint64_t seed) const
{
    FunctionalRun fr;
    core::DenseCollectSink dense;
    fr.timing = runFcStreamed(workload, seed, dense);
    fr.result = dense.take();
    const std::uint64_t page_bits = cfg_.geometry.pageBits();
    fr.expected = BitVector(fr.result.size());
    for (std::uint64_t p = 0; p * page_bits < fr.result.size(); ++p)
        fr.expected.paste(p * page_bits,
                          fcFunctionalExpectedPage(workload, seed, p));
    return fr;
}

} // namespace fcos::plat
