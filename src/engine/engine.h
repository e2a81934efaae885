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
 * Async API: callers submit column programs to the scheduler
 * (scheduler().submit()) and drain(). Within a program, steps execute
 * in order on its plane; a program's steps never interleave with
 * another program on the same plane (the per-plane FIFO keeps latch
 * state coherent). Planes — including planes of one die — execute
 * concurrently; cross-plane interleaving follows simulated time with
 * FIFO tie-breaking, so every run is bit-reproducible. Steps touch
 * only their die; onResult/onComplete run on the coordinator in
 * (when, seq) order (see engine/scheduler.h).
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
#include <vector>

#include "engine/chip_farm.h"
#include "engine/scheduler.h"

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
    ChipFarm farm_;
    CommandScheduler scheduler_;
};

} // namespace fcos::engine

#endif // FCOS_ENGINE_ENGINE_H
