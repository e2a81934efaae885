#include "engine/engine.h"

#include "util/log.h"

namespace fcos::engine {

ComputeEngine::ComputeEngine(const ssd::SsdConfig &cfg)
    : farm_(cfg), scheduler_(farm_)
{}

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
    const nand::OpResult read_cost = farm_.chip(src_die).readCost();

    ColumnProgram read = stepProgram(
        src_die, src.plane,
        {StepKind::PageRead,
         [src, page](nand::NandChip &chip) {
             // Raw copy of stored bits: polarity metadata travels with
             // the vector handle, not the cells.
             nand::OpResult r = chip.readPage(src, /*inverse=*/false);
             *page = chip.dataOut(src.plane);
             return r;
         },
         /*dmaAfterBytes=*/bytes, 0, read_cost});
    // One readout to the controller, then fan out: each destination
    // pays its own data-in transfer and program, but the sense
    // happened exactly once.
    read.onComplete = [this, targets, esp, page, stats, bytes,
                       on_target_done = std::move(on_target_done)] {
        // All destinations reference one payload buffer (copy-on-write
        // dense image): N-way fan-out costs one page of memory
        // regardless of N.
        nand::PageImage image = nand::PageImage::shared(
            std::shared_ptr<const BitVector>(page));
        for (const BroadcastTarget &t : targets) {
            ColumnProgram write = stepProgram(
                t.die, t.addr.plane,
                {StepKind::Program,
                 [dst = t.addr, esp, image](nand::NandChip &chip) {
                     return chip.programPageEsp(dst, image, esp);
                 },
                 0, /*dmaBeforeBytes=*/bytes,
                 farm_.chip(t.die).programCost(nand::ProgramMode::SlcEsp,
                                               esp)});
            if (on_target_done)
                write.onComplete = on_target_done;
            scheduler_.submit(std::move(write), stats);
        }
    };
    scheduler_.submit(std::move(read), stats);
}

} // namespace fcos::engine
