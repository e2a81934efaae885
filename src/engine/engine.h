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
 * Async API: callers submit() column programs (or whole ShardedOps)
 * and drain(); completion callbacks deliver result pages at their
 * simulated readout times. Per-plane ordering follows submission
 * order; planes — including planes of one die — execute concurrently;
 * cross-plane interleaving follows simulated time with FIFO
 * tie-breaking, so every run is bit-reproducible.
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
#include <memory>
#include <vector>

#include "engine/chip_farm.h"
#include "engine/scheduler.h"
#include "engine/sharded_op.h"

namespace fcos::engine {

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
     * readOutResult) arrives at onResult after its channel readout
     * completes.
     */
    void submit(ColumnProgram program, OpStats *stats = nullptr);

    /** Submit every column program of a sharded op. */
    void submit(ShardedOp op, OpStats *stats = nullptr);

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
