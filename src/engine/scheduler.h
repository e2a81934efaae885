/**
 * @file
 * Asynchronous, deterministic command scheduler over the chip farm.
 *
 * The scheduler is the engine's event-driven spine. Every NAND-side
 * primitive (MWS sense, latch XOR, page read, program, copyback,
 * erase) is a step of a ColumnProgram: an ordered step list against
 * one (die, plane) column. Callers submit() programs, plus channel,
 * external and accelerator transfers; the scheduler books them on the
 * shared Facility resources of sim/event_queue and fires completion
 * callbacks at the simulated completion times.
 *
 * Execution model:
 *
 *  - each (die, plane) is one Facility with one FIFO of programs; a
 *    program's steps run in order and never interleave with another
 *    program on the same plane, each step's die mutation running at
 *    the simulated instant the plane becomes free — so per-plane sense
 *    sequences (which seed the error model) are identical to a fully
 *    serialized run. Planes of one die are independent: they sense
 *    concurrently;
 *
 *  - a step's kind decides everything the scheduler books for it: the
 *    energy component its joules land in (energyComponentFor), its
 *    trace span and latency histogram, and its OpStats tally;
 *
 *  - each channel is one Facility shared by its dies; result readout
 *    and data-in transfers serialize on it in arrival order — this is
 *    where multi-die scaling bends over (the contention the
 *    engine-scaling bench measures);
 *
 *  - a step may require a data-in transfer first (dmaBeforeBytes,
 *    program data moving controller -> die). The transfer lands in the
 *    plane's cache latch, so it *pipelines behind the latch*: while
 *    the current step occupies the plane's array, the next queued
 *    step's data streams in over the channel. Only when the plane is
 *    idle does the step wait for its transfer. A step's dmaAfterBytes
 *    readout is issued at its completion;
 *
 *  - after a program's last step, its result page (readOutResult) is
 *    captured from the cache latch and handed to onResult, then read
 *    out over the channel; onComplete fires when the program's last
 *    timeline event (readout or trailing transfer) lands. The last
 *    step's work phase also summarizes the latch (PageSummary: digest
 *    and population count of the page's resultBits) on the die's
 *    lane; the plane stays running until the capture, so the latch
 *    the summary read is the page onResult receives;
 *
 *  - the external (PCIe) link and the per-channel ISP accelerator
 *    ports are additional facilities so platform drivers (OSP/ISP
 *    paths) run on the same unified timeline and energy ledger;
 *
 *  - the event queue's FIFO tie-breaking makes every run
 *    bit-reproducible: same submissions => same interleaving, same
 *    timeline, same energy ledger.
 *
 * Parallel host execution (ssd::SsdConfig::workers > 1) shards the
 * steps across a WorkerPool: a step's run() is the *work* phase of a
 * sharded two-phase event (shard = die, so one die's steps never
 * reorder or run concurrently), while everything that touches shared
 * simulation state — facility bookings, the energy ledger, stats
 * tallies, new events — stays in the serial commit phase, executed in
 * (when, seq) order. The contract for callers is therefore: steps
 * touch only their die (chip, latches, per-plane sense counters) and
 * buffers private to their program; onResult and onComplete run in
 * commit order and may touch anything. This is what keeps 2- and
 * 4-worker runs bit-for-bit identical to a serial run. A result page's
 * summary is die-local work too, so streamed reads hash their pages in
 * parallel and the commit phase only folds one summary per page. Each
 * step carries its page bits as its work estimate, so the queue hands a
 * wave to the pool only when it spans two or more dies' lanes and its
 * pages outweigh a pool round (EventQueue::kMinDispatchWork): Table-1
 * waves (16-KiB pages) dispatch, while a tiny-geometry drive's few
 * 256-bit steps run inline on the caller.
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
#include "engine/result_stream.h"
#include "obs/obs.h"
#include "sim/event_queue.h"
#include "sim/worker_pool.h"
#include "ssd/energy.h"
#include "util/bitvector.h"

namespace fcos::engine {

/** What a step does — decides its energy component, trace span and
 *  stats tally. */
enum class StepKind : std::uint8_t
{
    Sense,    ///< MWS sense command
    LatchXor, ///< on-chip C := S XOR C
    PageRead, ///< regular serial page read (fallback path)
    Program,  ///< page program (data-in or program-from-latch)
    Copyback, ///< in-plane read + program (GC relocation; no channel)
    Erase,    ///< block erase (GC capacity reclaim)
};

/** Energy-ledger component a step's joules are booked against. */
ssd::EnergyComponent energyComponentFor(StepKind kind);

/** One die-local step of a column program. */
struct ColumnStep
{
    StepKind kind = StepKind::Sense;
    /** Die mutation; returns the op's latency and energy. Runs in the
     *  (possibly parallel) worker phase: it must only touch its die's
     *  state and buffers private to its program. */
    std::function<nand::OpResult(nand::NandChip &)> run;
    /** Channel bytes shipped die -> controller after this step
     *  (fallback page readout; pipelined with later steps). */
    std::uint64_t dmaAfterBytes = 0;
    /** Channel bytes shipped controller -> die before this step
     *  (program data-in; the die waits for the transfer). */
    std::uint64_t dmaBeforeBytes = 0;
};

/**
 * The unit of scheduling: an ordered step list against one
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
    /** Valid bits of the result page (a vector's short last page
     *  has fewer); 0 means the whole page. onResult's summary covers
     *  exactly these bits. */
    std::uint64_t resultBits = 0;
    /** Receives the result page at the latch-capture instant (the last
     *  step's completion), with its PageSummary from the last step's
     *  work phase. The readout DMA is still booked after it, but the
     *  scheduler never buffers in-flight pages, which keeps streamed
     *  (ResultSink) reads O(chunk) when channels back up behind fast
     *  senses. */
    std::function<void(BitVector, PageSummary)> onResult;
    /** Fires once every step (and result readout or trailing
     *  transfer) completed. */
    EventQueue::Callback onComplete;
};

/** A one-step program on (@p die, @p plane) whose result stays on the
 *  die. */
inline ColumnProgram
stepProgram(std::uint32_t die, std::uint32_t plane, ColumnStep step)
{
    ColumnProgram p;
    p.die = die;
    p.plane = plane;
    p.readOutResult = false;
    p.steps.push_back(std::move(step));
    return p;
}

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

class CommandScheduler
{
  public:
    /** Completion callback. Same SBO callable as the event queue's
     *  payloads, so submitting a lambda here never heap-allocates on
     *  its way into a sim::Event. */
    using Callback = EventQueue::Callback;

    explicit CommandScheduler(ChipFarm &farm);

    EventQueue &queue() { return queue_; }
    const EventQueue &queue() const { return queue_; }
    ssd::EnergyMeter &energy() { return energy_; }
    const ssd::EnergyMeter &energy() const { return energy_; }

    /** Host worker lanes sharding the steps (1 = serial). */
    std::uint32_t workerCount() const
    {
        return pool_ ? pool_->workerCount() : 1;
    }

    /**
     * Submit one column program. Its steps run in order on the
     * program's (die, plane) column, behind every program submitted
     * there before it. @p stats, if given, is tallied per step in the
     * commit phase and counts the result page.
     */
    void submit(ColumnProgram program, OpStats *stats = nullptr);

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
    /** Maximum plane busy time across the farm. */
    Time maxPlaneBusyTime() const;

    std::uint64_t dieOpsExecuted() const { return die_ops_; }

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
    /** A program in its plane's FIFO, at the step it runs next. */
    struct Queued
    {
        std::unique_ptr<ColumnProgram> program;
        OpStats *stats = nullptr;
        std::size_t step = 0;
        /** The step's data-in transfer was issued / has landed. */
        bool dmaIssued = false;
        bool dmaDone = false;
        /** Submission instant, for queue-wait spans/histograms. */
        Time submitted = 0;
        /** Filled by the worker phase, consumed by the commit phase
         *  (the pool barrier orders the two). */
        nand::OpResult result;
        /** The result latch's summary, filled by the last step's
         *  worker phase when the program hands its page to onResult. */
        PageSummary summary;

        const ColumnStep &current() const { return program->steps[step]; }
    };

    struct PlaneState
    {
        std::deque<Queued> pending;
        bool running = false;
    };

    std::uint32_t columnOf(std::uint32_t die, std::uint32_t plane) const
    {
        return die * planes_per_die_ + plane;
    }

    /** Valid bits of @p prog's result page. */
    std::uint64_t resultBitsOf(const ColumnProgram &prog) const
    {
        return prog.resultBits ? prog.resultBits : page_bits_;
    }
    /** Issue the head step's data-in transfer if it has not started. */
    void prefetchDataIn(std::uint32_t die, std::uint32_t col);
    /** Book one transfer, in this order: @p joules under @p comp, @p dur
     *  of @p fac from now, span @p name on @p track, then @p done at the
     *  finish (an empty event when @p done is empty). */
    void bookTransfer(Facility &fac, std::uint32_t track, const char *name,
                      ssd::EnergyComponent comp, double joules, Time dur,
                      Callback done);
    /** Start the head step of column @p col, if it is ready. */
    void pump(std::uint32_t die, std::uint32_t col);
    /** Worker phase: run the head step (die-local). */
    void computeOp(std::uint32_t die, std::uint32_t col);
    /** Commit phase: book time/energy and schedule the completion. */
    void commitOp(std::uint32_t die, std::uint32_t col);
    /** Completion of one step: its trailing transfer and, when it
     *  was its program's last (@p done non-null), the readout and
     *  the program's callbacks, onResult with @p summary. Then the
     *  plane takes its next step. */
    void completeStep(std::uint32_t die, std::uint32_t col,
                      std::uint64_t dma_after,
                      std::unique_ptr<ColumnProgram> done, OpStats *stats,
                      PageSummary summary);

    ChipFarm &farm_;
    EventQueue queue_;
    std::unique_ptr<WorkerPool> pool_; ///< non-null when workers > 1
    ssd::EnergyMeter energy_;
    std::uint32_t planes_per_die_;
    /** Every step's work estimate for the event queue's dispatch
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
    /** Per channel bus / accelerator port; sized (0) when tracing is
     *  off too, so bookTransfer() can take a track unconditionally. */
    std::vector<std::uint32_t> channel_tracks_;
    std::vector<std::uint32_t> accel_tracks_;
    std::uint32_t external_track_ = 0;
    /** Lazily resolved per-component latency histograms + queue wait
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
