/**
 * @file
 * The multi-die compute engine: event-driven, sharded execution of
 * bulk bitwise work over a farm of functional NAND dies.
 *
 * The engine executes real commands against real chips **through**
 * the deterministic Facility model, so a single run yields bit-exact
 * result vectors *and* a contention-accurate timeline and energy
 * ledger. The functional drive (core/drive) and the platform drivers
 * (platforms/runner, the paper's Figure 7/17/18 workloads) both run
 * on its scheduler, making the engine the single source of truth for
 * functional results, timing, and energy.
 *
 * Sharding: a bulk operation over page-striped vectors decomposes into
 * independent *column programs* — one per (die, plane) page column —
 * because every NAND-side primitive (MWS sense, latch XOR, program-
 * from-latch) touches exactly one plane's latch pair:
 *
 *  - page j of a striped vector lives on column (j mod columns), so a
 *    vector of P pages shards into P column programs spread round-robin
 *    over every die — all dies compute at once;
 *
 *  - operands combined by one program must be co-located on the
 *    column's die (Equation 1: only wordlines of the same plane's
 *    strings can be sensed together). Operands that are not — e.g. a
 *    single-page vector combined against striped ones — must first be
 *    *replicated* to each target column (broadcastPage below), paying
 *    channel time for the copies;
 *
 *  - each program's result page reaches its onResult callback, and the
 *    caller pastes pages back into the logical result.
 *
 * Async API: callers submit() column programs and drain(). Within a
 * program, steps execute in order on its plane; a program's steps never
 * interleave with another program on the same plane (the per-plane
 * FIFO keeps latch state coherent). Planes — including planes of one
 * die — execute concurrently; cross-plane interleaving follows
 * simulated time with FIFO tie-breaking, so every run is
 * bit-reproducible.
 *
 * Replication: operands that Equation-1 locality requires on a die
 * where they are not stored (e.g. a one-page vector combined against
 * striped ones) are copied die-to-die through the controller with
 * broadcastPage() — one sense, one channel readout, then a data-in
 * transfer plus ESP program per destination — paying the realistic
 * time and energy for the copies while sensing the source only once.
 */

#ifndef FCOS_ENGINE_ENGINE_H
#define FCOS_ENGINE_ENGINE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "engine/chip_farm.h"
#include "engine/scheduler.h"
#include "util/bitvector.h"

namespace fcos::engine {

/** What a step does — drives stats and energy classification. */
enum class StepKind : std::uint8_t
{
    Sense,    ///< MWS sense command
    LatchXor, ///< on-chip C := S XOR C
    PageRead, ///< regular serial page read (fallback path)
    Program,  ///< page program (data-in or program-from-latch)
    Copyback, ///< in-plane read + program (GC relocation; no channel)
    Erase,    ///< block erase (GC capacity reclaim)
};

/** One die-local step of a column program. */
struct ColumnStep
{
    StepKind kind = StepKind::Sense;
    /** Functional mutation; returns the op's latency and energy. */
    std::function<nand::OpResult(nand::NandChip &)> run;
    /** Channel bytes shipped die -> controller after this step
     *  (fallback page readout; pipelined with later steps). */
    std::uint64_t dmaAfterBytes = 0;
    /** Channel bytes shipped controller -> die before this step
     *  (program data-in; the die waits for the transfer). */
    std::uint64_t dmaBeforeBytes = 0;
};

/**
 * The unit of sharded execution: an ordered step list against one
 * (die, plane) column, with optional result readout.
 */
struct ColumnProgram
{
    std::uint32_t die = 0;
    std::uint32_t plane = 0;
    std::vector<ColumnStep> steps;

    /** Read the cache latch out over the channel after the last step
     *  and hand it to onResult. False for compute-in-place programs
     *  (program-from-latch) where data never leaves the die. */
    bool readOutResult = true;
    /** Receives the result page at the latch-capture instant (the last
     *  step's completion). The readout DMA is still booked after it,
     *  but the engine never buffers in-flight pages, which keeps
     *  streamed (ResultSink) reads O(chunk) when channels back up
     *  behind fast senses. */
    std::function<void(BitVector)> onResult;
    /** Fires once every step (and result readout) completed. */
    std::function<void()> onComplete;
};

/** Execution counters in FlashCosmosDrive::ReadStats terms. */
struct OpStats
{
    std::uint64_t mwsCommands = 0; ///< MWS sense commands issued
    std::uint64_t senses = 0;      ///< total sensing operations
    std::uint64_t latchXors = 0;   ///< on-chip XOR ops
    std::uint64_t pageReads = 0;   ///< fallback serial page reads
    std::uint64_t programs = 0;    ///< page programs
    std::uint64_t resultPages = 0; ///< pages read out of the chips
    std::uint64_t copybacks = 0;   ///< GC in-plane page relocations
    std::uint64_t erases = 0;      ///< GC block erases
    Time nandTime = 0;             ///< summed NAND busy time
    double nandEnergyJ = 0.0;      ///< summed NAND energy

    void tally(StepKind kind, const nand::OpResult &op);
};

class ComputeEngine
{
  public:
    explicit ComputeEngine(const ssd::SsdConfig &cfg);

    ChipFarm &farm() { return farm_; }
    const ChipFarm &farm() const { return farm_; }
    CommandScheduler &scheduler() { return scheduler_; }
    const CommandScheduler &scheduler() const { return scheduler_; }

    /** Current simulated time (start-of-op timestamps for spans). */
    Time now() const { return scheduler_.queue().now(); }

    /**
     * Submit one column program. Steps execute in order on the
     * program's (die, plane) column; the result page (if
     * readOutResult) reaches onResult when the last step completes,
     * and onComplete fires once its channel readout has.
     */
    void submit(ColumnProgram program, OpStats *stats = nullptr);

    /** Run all submitted work; @return cumulative makespan. */
    Time drain() { return scheduler_.drain(); }

    /** One destination of a broadcast replication. */
    struct BroadcastTarget
    {
        std::uint32_t die = 0;
        nand::WordlineAddr addr;
    };

    /**
     * Broadcast the stored bits of one page to any number of
     * destination pages through the controller: *one* sense on the
     * source die, one channel readout, then a per-destination data-in
     * transfer and ESP program (fan-out over the destination
     * channels, pipelined behind each plane's cache latch). This is
     * the input-replication primitive sharding uses to satisfy
     * Equation-1 co-location; the single sense is what makes
     * replication scale on wide farms.
     *
     * @p on_target_done (optional) fires once per destination at its
     * program's simulated completion — the per-unit completion hook
     * request-tracking callers need.
     */
    void broadcastPage(std::uint32_t src_die, const nand::WordlineAddr &src,
                       const std::vector<BroadcastTarget> &targets,
                       const nand::EspParams &esp = nand::EspParams{},
                       OpStats *stats = nullptr,
                       std::function<void()> on_target_done = {});

    /** Single-destination convenience wrapper over broadcastPage(). */
    void replicatePage(std::uint32_t src_die, const nand::WordlineAddr &src,
                       std::uint32_t dst_die, const nand::WordlineAddr &dst,
                       const nand::EspParams &esp = nand::EspParams{},
                       OpStats *stats = nullptr);

    // --- unified timeline / energy ledger ---
    Time makespan() const { return scheduler_.makespan(); }
    Time dieBusyTime(std::uint32_t die) const
    {
        return scheduler_.dieBusyTime(die);
    }
    Time planeBusyTime(std::uint32_t die, std::uint32_t plane) const
    {
        return scheduler_.planeBusyTime(die, plane);
    }
    Time channelBusyTime(std::uint32_t channel) const
    {
        return scheduler_.channelBusyTime(channel);
    }
    const ssd::EnergyMeter &energy() const
    {
        return scheduler_.energy();
    }
    double totalEnergyJ() const { return scheduler_.energy().total(); }

  private:
    void finishProgram(const std::shared_ptr<ColumnProgram> &state,
                       OpStats *stats);

    ChipFarm farm_;
    CommandScheduler scheduler_;
};

/** Energy-ledger component a step's joules are booked against. */
ssd::EnergyComponent energyComponentFor(StepKind kind);

} // namespace fcos::engine

#endif // FCOS_ENGINE_ENGINE_H
