#include "engine/engine.h"

#include "util/log.h"

namespace fcos::engine {

ssd::EnergyComponent
energyComponentFor(StepKind kind)
{
    switch (kind) {
      case StepKind::Sense:
      case StepKind::LatchXor:
        return ssd::EnergyComponent::NandMws;
      case StepKind::PageRead:
      case StepKind::OrDump:
        return ssd::EnergyComponent::NandRead;
      case StepKind::Program:
      case StepKind::Copyback:
        return ssd::EnergyComponent::NandProgram;
      case StepKind::Erase:
        return ssd::EnergyComponent::NandErase;
    }
    return ssd::EnergyComponent::NandRead;
}

ComputeEngine::ComputeEngine(const ssd::SsdConfig &cfg)
    : farm_(cfg), scheduler_(farm_)
{}

void
ComputeEngine::submit(ColumnProgram program, OpStats *stats)
{
    fcos_assert(!program.steps.empty(), "empty column program");
    fcos_assert(program.die < farm_.dieCount(),
                "program targets die %u beyond the farm", program.die);
    fcos_assert(program.plane < farm_.geometry().planesPerDie,
                "program targets plane %u beyond the die", program.plane);

    auto state = std::make_shared<ColumnProgram>(std::move(program));
    const std::uint32_t die = state->die;
    const std::uint32_t plane = state->plane;
    const std::size_t n = state->steps.size();
    for (std::size_t i = 0; i < n; ++i) {
        ColumnStep &step = state->steps[i];
        const bool last = (i + 1 == n);
        const std::uint64_t dma_after = step.dmaAfterBytes;

        CommandScheduler::DieFn fn = std::move(step.run);
        // Stats are shared across dies, so the tally happens in the
        // commit phase, never inside the (possibly parallel) die fn.
        CommandScheduler::ExecutedFn executed;
        if (stats)
            executed = [stats, kind = step.kind](const nand::OpResult &r) {
                stats->tally(kind, r);
            };

        CommandScheduler::Callback done;
        if (last) {
            done = [this, state, stats, dma_after] {
                if (dma_after > 0) {
                    // With no readout phase, a trailing transfer is
                    // the program's final timeline event: completion
                    // rides it, so per-request accounting sees the
                    // instant the data actually lands.
                    if (!state->readOutResult && state->onComplete) {
                        scheduler_.submitDma(state->die, dma_after,
                                             [state] {
                                                 state->onComplete();
                                             });
                        return;
                    }
                    scheduler_.submitDma(state->die, dma_after);
                }
                finishProgram(state, stats);
            };
        } else if (dma_after > 0) {
            done = [this, die, dma_after] {
                scheduler_.submitDma(die, dma_after);
            };
        }
        scheduler_.submitPlaneOp(die, plane, energyComponentFor(step.kind),
                                 std::move(fn), std::move(done),
                                 step.dmaBeforeBytes, std::move(executed));
    }
}

void
ComputeEngine::finishProgram(const std::shared_ptr<ColumnProgram> &state,
                             OpStats *stats)
{
    if (!state->readOutResult) {
        if (state->onComplete)
            state->onComplete();
        return;
    }
    // Capture the cache latch now — at the plane's completion instant —
    // before any later program on this plane can overwrite it; the page
    // is then in flight on the channel until its DMA completes.
    BitVector page = farm_.chip(state->die).dataOut(state->plane);
    if (stats)
        ++stats->resultPages;
    if (state->resultAtCapture) {
        // Streamed delivery: hand the payload over immediately so no
        // copy sits inside the DMA closure; the transfer itself still
        // occupies the channel and books its time and energy.
        if (state->onResult)
            state->onResult(std::move(page));
        scheduler_.submitDma(state->die, farm_.geometry().pageBytes,
                             [state] {
                                 if (state->onComplete)
                                     state->onComplete();
                             });
        return;
    }
    scheduler_.submitDma(
        state->die, farm_.geometry().pageBytes,
        [state, page = std::move(page)]() mutable {
            if (state->onResult)
                state->onResult(std::move(page));
            if (state->onComplete)
                state->onComplete();
        });
}

void
ComputeEngine::submit(ShardedOp op, OpStats *stats)
{
    for (ColumnProgram &p : op.programs())
        submit(std::move(p), stats);
}

void
ComputeEngine::broadcastPage(std::uint32_t src_die,
                             const nand::WordlineAddr &src,
                             const std::vector<BroadcastTarget> &targets,
                             const nand::EspParams &esp, OpStats *stats,
                             std::function<void()> on_target_done)
{
    fcos_assert(src_die < farm_.dieCount(),
                "broadcast source beyond the farm");
    fcos_assert(!targets.empty(), "broadcast without destinations");
    for (const BroadcastTarget &t : targets)
        fcos_assert(t.die < farm_.dieCount(),
                    "broadcast destination beyond the farm");
    const std::uint64_t bytes = farm_.geometry().pageBytes;
    auto page = std::make_shared<BitVector>();

    scheduler_.submitPlaneOp(
        src_die, src.plane, ssd::EnergyComponent::NandRead,
        [src, page](nand::NandChip &chip) {
            // Raw copy of stored bits: polarity metadata travels with
            // the vector handle, not the cells.
            nand::OpResult r = chip.readPage(src, /*inverse=*/false);
            *page = chip.dataOut(src.plane);
            return r;
        },
        [this, src_die, targets, esp, page, stats, bytes,
         on_target_done = std::move(on_target_done)] {
            // One readout to the controller, then fan out: each
            // destination pays its own data-in transfer and program,
            // but the sense happened exactly once.
            scheduler_.submitDma(
                src_die, bytes,
                [this, targets, esp, page, stats, bytes,
                 on_target_done] {
                    // All destinations reference one payload buffer
                    // (copy-on-write dense image): N-way fan-out costs
                    // one page of memory regardless of N.
                    nand::PageImage image = nand::PageImage::shared(
                        std::shared_ptr<const BitVector>(page));
                    for (const BroadcastTarget &t : targets) {
                        CommandScheduler::ExecutedFn executed;
                        if (stats)
                            executed = [stats](const nand::OpResult &r) {
                                stats->tally(StepKind::Program, r);
                            };
                        scheduler_.submitPlaneOp(
                            t.die, t.addr.plane,
                            ssd::EnergyComponent::NandProgram,
                            [dst = t.addr, esp,
                             image](nand::NandChip &chip) {
                                return chip.programPageEsp(dst, image,
                                                           esp);
                            },
                            on_target_done
                                ? CommandScheduler::Callback(
                                      [on_target_done] {
                                          on_target_done();
                                      })
                                : CommandScheduler::Callback{},
                            /*pre_dma_bytes=*/bytes,
                            std::move(executed));
                    }
                });
        },
        /*pre_dma_bytes=*/0,
        stats ? CommandScheduler::ExecutedFn(
                    [stats](const nand::OpResult &r) {
                        stats->tally(StepKind::PageRead, r);
                    })
              : CommandScheduler::ExecutedFn{});
}

void
ComputeEngine::replicatePage(std::uint32_t src_die,
                             const nand::WordlineAddr &src,
                             std::uint32_t dst_die,
                             const nand::WordlineAddr &dst,
                             const nand::EspParams &esp, OpStats *stats)
{
    broadcastPage(src_die, src, {BroadcastTarget{dst_die, dst}}, esp,
                  stats);
}

} // namespace fcos::engine
