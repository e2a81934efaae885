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
 *    timeline event (readout or trailing transfer) lands. The page's
 *    PageSummary (digest and population count of its resultBits) is
 *    computed by the die work right after the last step ran, and a
 *    summaryOnly program's onResult gets the summary with an empty
 *    page — its latch is never copied;
 *
 *  - the external (PCIe) link and the per-channel ISP accelerator
 *    ports are additional facilities so platform drivers (OSP/ISP
 *    paths) run on the same unified timeline and energy ledger;
 *
 *  - the event queue's FIFO tie-breaking makes every run
 *    bit-reproducible: same submissions => same interleaving, same
 *    timeline, same energy ledger.
 *
 * Parallel host execution (ssd::SsdConfig::workers > 1) splits every
 * step into its timing and its data work, as gem5 splits its timing
 * and atomic CPU models. The timing is booked from the step's shape
 * (ColumnStep::cost) at the step's start, on the coordinator, in
 * (when, seq) order: facility bookings, the energy ledger, stats
 * tallies and new events never depend on the worker count. The data
 * work — run() on the die, plus the page summary after a program's
 * last step — goes to the die's strand of a WorkerPool, which runs
 * one die's items in posting order and different dies concurrently,
 * ahead of the simulated clock. Per-plane FIFO order is what fixes
 * the bits, as in conservative parallel discrete-event simulation
 * (Chandy and Misra): each plane's steps reach the strand in plane
 * order, and the planes of one die share no order-dependent state
 * (CellArray keys pages by plane, each plane has its own sense
 * counter and latches; the die-wide sense total only counts).
 *
 *  - a program is *launched* at submit — its steps and summary posted
 *    as one item — when every step has a cost, its result is summary
 *    only or not read out, and no earlier program on its plane is
 *    unlaunched. Its summary is taken in the same item and nothing
 *    else reads its latch, so later programs may overwrite it, and no
 *    page is held;
 *  - any other program posts each step's work at the step's start
 *    (a step without a cost fences its die and runs there, inline),
 *    and its latch is captured at its completion, as in a serial run:
 *    while it is pending, later programs on its plane wait unlaunched;
 *  - a timing-only step (a cost and no run()) has no die work and
 *    posts nothing;
 *  - the coordinator waits only where it reads a die's result: a
 *    program's completion waits for its work (its onResult and
 *    onComplete may read what the work wrote), drain() and runUntil()
 *    return with every lane idle, and any other access to a die from
 *    outside goes through fence() first (FlashCosmosDrive::chip
 *    does). While it waits, the coordinator runs queued items itself.
 *
 * The contract for callers is therefore: steps touch only their die
 * and buffers private to their program; onResult and onComplete run
 * in (when, seq) order on the coordinator and may touch anything.
 * Pages narrower than kLaneMinPageBits keep all work inline at the
 * step's start — a cross-thread handoff would cost more than the page
 * — unless FCOS_FORCE_THREADS=1, so the threads tiers cross threads
 * on tiny drives too.
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
#include <optional>
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
    ColumnStep() = default;
    ColumnStep(StepKind kind,
               std::function<nand::OpResult(nand::NandChip &)> run,
               std::uint64_t dma_after = 0, std::uint64_t dma_before = 0,
               std::optional<nand::OpResult> cost = std::nullopt)
        : kind(kind), run(std::move(run)), dmaAfterBytes(dma_after),
          dmaBeforeBytes(dma_before), cost(cost)
    {}

    StepKind kind = StepKind::Sense;
    /** Die mutation; returns the op's latency and energy. It may run
     *  on a worker thread, ahead of the simulated clock: it must only
     *  touch its die's state and buffers private to its program.
     *  Empty for a timing-only step, which must have a cost. */
    std::function<nand::OpResult(nand::NandChip &)> run;
    /** Channel bytes shipped die -> controller after this step
     *  (fallback page readout; pipelined with later steps). */
    std::uint64_t dmaAfterBytes = 0;
    /** Channel bytes shipped controller -> die before this step
     *  (program data-in; the die waits for the transfer). */
    std::uint64_t dmaBeforeBytes = 0;
    /** What run() returns, known from the step's shape alone
     *  (nand::NandChip's *Cost functions). A step with a cost is booked
     *  from it and its run() may execute ahead of the clock; run() must
     *  then return exactly this (checked in every build). A step
     *  without one (its cost reads die state, as a copyback's reads
     *  its source page) runs at its start, behind a fence on its die. */
    std::optional<nand::OpResult> cost;
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
    /** onResult reads only the page's summary: it receives an empty
     *  page, and the latch is never copied out. */
    bool summaryOnly = false;
    /** Receives the result page at the latch-capture instant (the last
     *  step's completion), with its PageSummary, computed on the die's
     *  lane right after the last step ran. The readout DMA is still
     *  booked after it, but the scheduler never buffers in-flight
     *  pages, which keeps streamed (ResultSink) reads O(chunk) when
     *  channels back up behind fast senses. */
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

    /**
     * Narrowest page whose die work goes to a lane. A handoff costs
     * about 1 us (fcbench probe `sim.pool_handoff_us`, 4-vCPU x86
     * host, Release) and a 3-wordline MWS over a Table-1 page, 2^17
     * bits, about 28 us (`nand.mws_us.wl3`), ~0.2 ns per page bit: a
     * 2^14-bit page, ~3 us of sensing, is where a lane starts to pay.
     * Geometry::tiny()'s 256-bit pages stay inline.
     */
    static constexpr std::uint64_t kLaneMinPageBits = std::uint64_t{1}
                                                      << 14;

    /** Destruction waits for every lane item first. */
    ~CommandScheduler();

    /** Host workers configured for the farm (1 = serial). */
    std::uint32_t workerCount() const { return workers_; }

    /** True when die work runs on worker lanes (more than one worker
     *  and pages of at least kLaneMinPageBits, or forced threads). */
    bool lanes() const { return pool_ != nullptr; }

    /** Wait until every item posted to @p die's lane has run: the
     *  fence any caller passes before touching a die's state while
     *  programs are in flight. No-op without lanes. */
    void fence(std::uint32_t die);

    /** fence() every die. */
    void fenceAll();

    /**
     * Submit one column program. Its steps run in order on the
     * program's (die, plane) column, behind every program submitted
     * there before it. @p stats, if given, is tallied per step in the
     * coordinator and counts the result page.
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
    /** A submitted program and what its die work leaves for the
     *  coordinator. Heap-allocated: a lane item points at it while the
     *  FIFO and then the completion closure move its handle. */
    struct Job
    {
        ColumnProgram program;
        OpStats *stats = nullptr;
        /** Written by the die work of the program's last step. */
        PageSummary summary;
        /** Ticket of the program's latest lane item (0: none). */
        std::uint64_t ticket = 0;
        /** Its whole die work was posted at submit. */
        bool launched = false;
    };

    /** A program in its plane's FIFO, at the step it runs next. */
    struct Queued
    {
        std::unique_ptr<Job> job;
        std::size_t step = 0;
        /** The step's data-in transfer was issued / has landed. */
        bool dmaIssued = false;
        bool dmaDone = false;
        /** Submission instant, for queue-wait spans/histograms. */
        Time submitted = 0;

        const ColumnStep &current() const
        {
            return job->program.steps[step];
        }
    };

    struct PlaneState
    {
        std::deque<Queued> pending;
        bool running = false;
        /** Programs submitted here, not yet completed, whose work was
         *  not launched. While one is, no new program is launched, so
         *  its latch capture never races a later program's work. */
        std::uint32_t unlaunched = 0;
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
    /** Whether @p prog's whole die work may run from its submit. */
    static bool launchable(const ColumnProgram &prog);
    /** Whether step @p step of @p prog has die work: a run(), or the
     *  page summary after the last step. */
    static bool hasDieWork(const ColumnProgram &prog, std::size_t step);
    /** Die work of step @p step of @p job: run it on the die (checking
     *  its declared cost) and, after the last step, summarize the
     *  result latch. @return what run() returned. */
    nand::OpResult runStep(std::uint32_t die, Job &job, std::size_t step);
    /** Start the head step of column @p col: take its cost (running or
     *  posting its die work), book time/energy, and schedule its
     *  completion. */
    void startStep(std::uint32_t die, std::uint32_t col);
    /** Completion of one step: its trailing transfer and, when it
     *  was its program's last (@p done non-null), the wait for its
     *  work, the readout and the program's callbacks. Then the plane
     *  takes its next step. */
    void completeStep(std::uint32_t die, std::uint32_t col,
                      std::uint64_t dma_after, std::unique_ptr<Job> done);

    ChipFarm &farm_;
    EventQueue queue_;
    std::uint32_t workers_;
    /** The dies' lanes (strand = die); null when work stays inline. */
    std::unique_ptr<WorkerPool> pool_;
    ssd::EnergyMeter energy_;
    std::uint32_t planes_per_die_;
    std::uint64_t page_bits_;
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
     *  All recording below happens on the coordinator, so the trace is
     *  bit-identical at any worker count. */
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
     *  (registered on the coordinator). */
    obs::Histogram *
        op_hist_[static_cast<std::size_t>(ssd::EnergyComponent::kCount)] =
            {};
    obs::Histogram *wait_hist_ = nullptr;
    std::uint64_t pub_die_ops_ = 0;
    std::uint64_t pub_dma_ops_ = 0;
};

} // namespace fcos::engine

#endif // FCOS_ENGINE_SCHEDULER_H
