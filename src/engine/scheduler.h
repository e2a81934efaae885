/**
 * @file
 * Asynchronous, deterministic command scheduler over the chip farm.
 *
 * The scheduler is the engine's event-driven spine: callers submit
 * plane operations (a functional chip mutation that reports its own
 * latency and energy) and channel/external transfers; the scheduler
 * books them on the shared Facility resources of sim/event_queue and
 * fires completion callbacks at the simulated completion times.
 *
 * Execution model:
 *
 *  - each (die, plane) is one Facility; operations submitted to a
 *    plane execute in submission order (FIFO), the functional mutation
 *    running at the simulated instant the plane becomes free — so
 *    per-plane sense sequences (which seed the error model) are
 *    identical to a fully serialized run. Planes of one die are
 *    independent: they sense concurrently;
 *
 *  - each channel is one Facility shared by its dies; result readout
 *    and data-in transfers serialize on it in arrival order — this is
 *    where multi-die scaling bends over (the contention the
 *    engine-scaling bench measures);
 *
 *  - a plane op may require a data-in transfer first (`preDmaBytes`,
 *    program data moving controller -> die). The transfer lands in the
 *    plane's cache latch, so it *pipelines behind the latch*: while
 *    the current operation occupies the plane's array, the next
 *    queued operation's data streams in over the channel. Only when
 *    the plane is idle does the op wait for its transfer;
 *
 *  - the external (PCIe) link and the per-channel ISP accelerator
 *    ports are additional facilities so platform drivers (OSP/ISP
 *    paths) run on the same unified timeline and energy ledger;
 *
 *  - the event queue's FIFO tie-breaking makes every run
 *    bit-reproducible: same submissions => same interleaving, same
 *    timeline, same energy ledger.
 *
 * Parallel host execution (ssd::SsdConfig::workers > 1) shards the die
 * functions across a WorkerPool: a plane op's functional mutation is
 * the *work* phase of a sharded two-phase event (shard = die, so one
 * die's mutations never reorder or run concurrently), while everything
 * that touches shared simulation state — facility bookings, the energy
 * ledger, completion callbacks, new events — stays in the serial
 * commit phase, executed in (when, seq) order. Die functions must
 * therefore touch only their die's state (chip, latches, per-plane
 * sense counters) plus op-private buffers; cross-die and host-shared
 * effects belong in the `executed`/`done` callbacks. This is what
 * keeps 2- and 4-worker runs bit-for-bit identical to a serial run.
 * Each op carries its page bits as its work estimate, so the queue
 * hands a wave to the pool only when it spans two or more dies' lanes
 * and its pages outweigh a pool round (EventQueue::kMinDispatchWork):
 * Table-1 waves (16-KiB pages) dispatch, while a tiny-geometry drive's
 * few 256-bit ops run inline on the caller.
 *
 * Energy is booked into a ssd::EnergyMeter per activity, giving one
 * ledger spanning NAND ops, channel movement, the external link, and
 * accelerator work.
 */

#ifndef FCOS_ENGINE_SCHEDULER_H
#define FCOS_ENGINE_SCHEDULER_H

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "engine/chip_farm.h"
#include "obs/obs.h"
#include "sim/event_queue.h"
#include "sim/worker_pool.h"
#include "ssd/energy.h"

namespace fcos::engine {

class CommandScheduler
{
  public:
    /** Completion callback. Same SBO callable as the event queue's
     *  payloads, so submitting a lambda here never heap-allocates on
     *  its way into a sim::Event. */
    using Callback = EventQueue::Callback;
    /** A functional die mutation reporting its latency and energy.
     *  Runs in the (possibly parallel) worker phase: it must only
     *  touch its die's state and op-private buffers. */
    using DieFn = std::function<nand::OpResult(nand::NandChip &)>;
    /** Commit-phase observer of a die op's result (runs serially in
     *  deterministic order; may touch shared state). */
    using ExecutedFn = std::function<void(const nand::OpResult &)>;

    explicit CommandScheduler(ChipFarm &farm);

    EventQueue &queue() { return queue_; }
    const EventQueue &queue() const { return queue_; }
    ssd::EnergyMeter &energy() { return energy_; }
    const ssd::EnergyMeter &energy() const { return energy_; }

    /** Host worker lanes sharding the die functions (1 = serial). */
    std::uint32_t workerCount() const
    {
        return pool_ ? pool_->workerCount() : 1;
    }

    /**
     * Submit one plane operation. @p fn runs against the die's chip
     * when plane @p plane of die @p die becomes free; @p done fires at
     * the op's simulated completion, before any later op on the same
     * plane starts.
     *
     * An optional @p pre_dma_bytes data-in transfer (controller -> die)
     * precedes the op. The transfer is issued as soon as the op is
     * next in the plane's queue, overlapping the previous op on the
     * plane (cache-latch pipelining); the op itself starts at
     * max(plane free, transfer complete).
     *
     * @param comp      energy component the op's joules are booked
     *                  against
     * @param executed  commit-phase hook receiving the op's OpResult
     *                  (shared-state accounting such as stats tallies
     *                  belongs here, not inside @p fn)
     */
    void submitPlaneOp(std::uint32_t die, std::uint32_t plane,
                       ssd::EnergyComponent comp, DieFn fn,
                       Callback done = {},
                       std::uint64_t pre_dma_bytes = 0,
                       ExecutedFn executed = {});

    /**
     * Move @p bytes between die and controller over the die's channel;
     * @p done fires at transfer completion. The plane itself is not
     * occupied (cache-read pipelining: the latch is free to move data
     * while the next sense proceeds).
     */
    void submitDma(std::uint32_t die, std::uint64_t bytes,
                   Callback done = {});

    /** Move @p bytes across the external (PCIe) link. */
    void submitExternal(std::uint64_t bytes, Callback done = {});

    /** Book ISP-accelerator time on @p channel for @p bytes of bitwise
     *  work (streams at channel rate; Table 1 energy: 93 pJ / 64 B). */
    void submitAccel(std::uint32_t channel, std::uint64_t bytes,
                     Callback done = {});

    /** Run all submitted work to completion; @return the makespan. */
    Time drain();

    /** Run the timeline up to (and including) @p deadline, leaving
     *  later work queued — the pacing primitive a paced submitter uses
     *  to bound its staged-request window. Bit-identical at any worker
     *  count. @return the clock (== max(now, deadline)). */
    Time runUntil(Time deadline);

    /** Simulated completion time of the last drain(). */
    Time makespan() const { return makespan_; }

    /** Accumulated busy time of one plane of one die. */
    Time planeBusyTime(std::uint32_t die, std::uint32_t plane) const;
    /** Busiest-plane busy time of one die (its occupancy proxy). */
    Time dieBusyTime(std::uint32_t die) const;
    /** Accumulated busy time of one channel bus. */
    Time channelBusyTime(std::uint32_t channel) const;
    /** Busy time of the external link. */
    Time externalBusyTime() const { return external_.busyTime(); }
    /** Busy time of one channel's accelerator port. */
    Time accelBusyTime(std::uint32_t channel) const;
    /** Maximum die busy time across the farm. */
    Time maxDieBusyTime() const;
    /** Maximum plane busy time across the farm. */
    Time maxPlaneBusyTime() const;

    std::uint64_t dieOpsExecuted() const { return die_ops_; }
    std::uint64_t dmaTransfers() const { return dma_ops_; }

    /**
     * Trace process (pid) of the drive-level tracks. The scheduler
     * registers it with the "external" link track at construction;
     * the owning drive adds its "requests" track under the same pid.
     * Meaningful only while tracing is live for this scheduler.
     */
    std::uint32_t tracePid() const { return drive_pid_; }
    /** Trace epoch this scheduler's tracks were registered against. */
    std::uint64_t traceEpoch() const { return trace_epoch_; }

  private:
    struct PendingOp
    {
        ssd::EnergyComponent comp;
        DieFn fn;
        ExecutedFn executed;
        Callback done;
        std::uint64_t preDmaBytes = 0;
        bool dmaIssued = false;
        bool dmaDone = false;
        /** Submission instant, for queue-wait spans/histograms. */
        Time submitted = 0;
        /** Filled by the worker phase, consumed by the commit phase
         *  (the pool barrier orders the two). */
        nand::OpResult result;
    };

    struct PlaneState
    {
        std::deque<std::shared_ptr<PendingOp>> pending;
        bool running = false;
    };

    std::uint32_t columnOf(std::uint32_t die, std::uint32_t plane) const
    {
        return die * planes_per_die_ + plane;
    }

    /** Issue the head op's data-in transfer if it has not started. */
    void prefetchDataIn(std::uint32_t die, std::uint32_t col);
    /** Start the next queued op of column @p col, if it is ready. */
    void pump(std::uint32_t die, std::uint32_t col);
    /** Worker phase: run the head op's die function (die-local). */
    void computeOp(std::uint32_t die, std::uint32_t col);
    /** Commit phase: book time/energy and schedule the completion. */
    void commitOp(std::uint32_t die, std::uint32_t col);

    ChipFarm &farm_;
    EventQueue queue_;
    std::unique_ptr<WorkerPool> pool_; ///< non-null when workers > 1
    ssd::EnergyMeter energy_;
    std::uint32_t planes_per_die_;
    /** Every plane op's work estimate for the event queue's dispatch
     *  gate: one sense covers a whole page, whatever the operands. */
    std::uint32_t page_bits_;
    std::vector<Facility> planes_;   ///< one per (die, plane) column
    std::vector<Facility> channels_;
    std::vector<Facility> accel_ports_;
    Facility external_;
    std::vector<PlaneState> states_; ///< one per column
    Time makespan_ = 0;
    std::uint64_t die_ops_ = 0;
    std::uint64_t dma_ops_ = 0;

    /** Observability state, captured at construction (tracks resolved
     *  once; every hot-path hook is one epoch branch when disabled).
     *  All recording below happens in serial commit contexts, so the
     *  trace is bit-identical at any worker count. */
    std::uint64_t trace_epoch_ = 0;
    std::uint64_t m_epoch_ = 0;
    std::uint32_t drive_pid_ = 0;
    std::vector<std::uint32_t> plane_tracks_;   ///< per column
    std::vector<std::uint32_t> wait_tracks_;    ///< per column (X overlays)
    std::vector<std::uint32_t> channel_tracks_; ///< per channel bus
    std::vector<std::uint32_t> accel_tracks_;   ///< per channel port
    std::uint32_t external_track_ = 0;
    /** Lazily resolved per-op-kind latency histograms + queue wait
     *  (commit phase is serial, so registration there is safe). */
    obs::Histogram *
        op_hist_[static_cast<std::size_t>(ssd::EnergyComponent::kCount)] =
            {};
    obs::Histogram *wait_hist_ = nullptr;
    std::uint64_t pub_die_ops_ = 0;
    std::uint64_t pub_dma_ops_ = 0;
};

} // namespace fcos::engine

#endif // FCOS_ENGINE_SCHEDULER_H
