/**
 * @file
 * FlashCosmosDrive — the functional, bit-exact Flash-Cosmos SSD
 * (paper Section 6.3's fc_write / fc_read library, end to end).
 *
 * The drive places vectors through the FC-aware FTL and compiles
 * fc_read expressions with the Planner; *execution* is delegated to
 * the multi-die compute engine (engine/engine.h): every operation is
 * sharded into per-(die, plane) column programs that the engine runs
 * event-driven over a channels x dies chip farm. One call therefore
 * yields bit-exact results *and* a contention-accurate timeline and
 * energy ledger (ReadStats::makespan, engine().energy()).
 *
 * With an error injector attached, computation flows through the same
 * error-prone sensing path the paper characterizes; without one it is
 * exact.
 *
 * Data placement follows the application-level contract of §6.3:
 *  - vectors that will be combined must be written into the same
 *    *group* (co-location in one NAND string set per column);
 *  - OR-heavy vectors should be stored inverted (De Morgan, §6.1);
 *  - every vector in a group must have the same length, so group
 *    wordlines advance in lockstep across all columns.
 *
 * Operands that violate co-location physically — a one-page vector
 *  combined against striped ones — can be brought into a group with
 * fcReplicate, which copies the page die-to-die through the
 * controller (the engine's Equation-1 replication path).
 */

#ifndef FCOS_CORE_DRIVE_H
#define FCOS_CORE_DRIVE_H

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/expression.h"
#include "core/plan.h"
#include "core/planner.h"
#include "core/result_sink.h"
#include "engine/admission.h"
#include "engine/engine.h"
#include "engine/result_stream.h"
#include "nand/chip.h"
#include "ssd/config.h"
#include "ssd/ftl.h"
#include "util/bitvector.h"

namespace fcos::core {

/** Sentinel: fcWrite allocates a fresh private group. */
inline constexpr std::uint64_t kDriveAutoGroup = ~std::uint64_t{0};

/** Sentinel VectorId: "no vector" (DriveWriteOptions::replaces). */
inline constexpr VectorId kDriveNoVector = ~VectorId{0};

/** Placement options of write-like operations (namespace-scope so
 *  member declarations can default-construct it; use it as
 *  FlashCosmosDrive::WriteOptions). */
struct DriveWriteOptions
{
    /** Placement group (vectors combined together must share it). */
    std::uint64_t group = kDriveAutoGroup;
    /** Store the complement (enables single-MWS OR via De Morgan). */
    bool storeInverted = false;
    /** Stripe start: page i lands on (die, plane) column
     *  (homeColumn + i) % columns. All vectors of one group must
     *  share it (lockstep). Spreading small independent vectors
     *  across home columns is what lets concurrent requests land
     *  on different dies. */
    std::uint32_t homeColumn = 0;
    /** Overwrite semantics: trim this vector before allocating the
     *  new one (its pages become invalid capacity GC can reclaim;
     *  the handle is recycled). The closed-loop update traffic a
     *  served drive sees. kDriveNoVector = plain append. */
    VectorId replaces = kDriveNoVector;
};

/** Options of an async submit* call (FlashCosmosDrive::RequestOptions). */
struct DriveRequestOptions
{
    /** Simulated arrival time; values <= now() arrive immediately,
     *  later ones are staged on the engine clock (an open-loop
     *  arrival process, as a traffic generator supplies). */
    Time arrival = 0;
    /** Optional completion hook: fires at the request's simulated
     *  completion with its lifecycle timestamps (arrival / admitted /
     *  completed) — end-to-end latency including queue wait, which
     *  ReadStats::makespan deliberately excludes. Runs in a serial
     *  context; may submit follow-up requests. */
    std::function<void(const engine::RequestQueue::Outcome &)> onOutcome;
};

class FlashCosmosDrive : public StorageResolver
{
  public:
    /** The drive's hardware shape (ssd::SsdConfig: channels, dies,
     *  geometry, timings, I/O rates, worker lanes) plus its front end.
     *  Operands are programmed with ESP at the Table-1 factor
     *  (nand::EspParams). */
    struct Config : ssd::SsdConfig
    {
        /** Request-queue admission: the window of concurrently
         *  in-flight requests (submit* overlaps up to depth
         *  conflict-free requests; the sync fc* wrappers never hold
         *  more than one) and the QoS weights (reads : writes :
         *  compute) under contention; see engine::RequestQueue. */
        engine::RequestQueue::Config admission;
    };

    /** Construct with a test-friendly tiny geometry. */
    FlashCosmosDrive();
    explicit FlashCosmosDrive(const Config &cfg);
    /** Waits for die work still on the lanes: it may write into
     *  request state destroyed with the drive. */
    ~FlashCosmosDrive() override;

    /** Attach/detach the error model on every die. */
    void setErrorInjector(nand::ErrorInjector *injector);

    /** Sentinel: fcWrite allocates a fresh private group. */
    static constexpr std::uint64_t kAutoGroup = kDriveAutoGroup;

    /** Sentinel: WriteOptions::replaces "no vector". */
    static constexpr VectorId kNoVector = kDriveNoVector;

    using WriteOptions = DriveWriteOptions;

    /**
     * Store a bit vector (fc_write). Returns its handle.
     * Programs with ESP by default; pages shard round-robin over every
     * (die, plane) column, so all dies program in parallel.
     */
    VectorId fcWrite(const BitVector &data, const WriteOptions &opts);
    VectorId fcWrite(const BitVector &data)
    {
        return fcWrite(data, WriteOptions{});
    }

    /**
     * Store a vector of @p pages procedurally generated pages
     * (fc_write for data the host can describe instead of ship):
     * @p gen maps each page index to its image descriptor. The full
     * data-in transfer and ESP program are still paid on the timeline,
     * but a page wider than PageImage::kInlineBits is not materialized
     * at write time — the way Table-1-scale vectors are seeded inside
     * CTest. storeInverted stores each image's complement at
     * descriptor level.
     */
    VectorId fcWritePages(
        const std::function<nand::PageImage(std::uint64_t)> &gen,
        std::uint64_t pages, const WriteOptions &opts);

    struct ReadStats
    {
        MwsPlan::Kind planKind = MwsPlan::Kind::Mws;
        std::string planText;
        std::uint64_t mwsCommands = 0; ///< MWS sense commands issued
        std::uint64_t senses = 0;      ///< total sensing operations
        std::uint64_t latchXors = 0;   ///< on-chip XOR ops
        std::uint64_t pageReads = 0;   ///< fallback serial page reads
        std::uint64_t resultPages = 0; ///< pages read out of the chips
        Time nandTime = 0;             ///< summed NAND busy time
        double nandEnergyJ = 0.0;      ///< summed NAND energy
        /** Contention-accurate span of this operation on the engine's
         *  event-driven timeline (dies + channels). */
        Time makespan = 0;
        /** Chunks delivered to the result sink (== resultPages). */
        std::uint64_t streamChunks = 0;
        /** Memory high-water mark of the streamed read: most result
         *  pages ever held at once while re-ordering out-of-order
         *  column completions (the fallback path, which buffers every
         *  page until drain, reports its full page count). */
        std::uint64_t streamPeakPages = 0;
    };

    /**
     * Execute a bulk bitwise expression in flash (fc_read), streaming
     * result pages into @p sink in strictly increasing page order as
     * they come off the channel buses. Page columns execute
     * concurrently across the farm's dies; for MWS/XOR-planned reads
     * peak memory is the re-ordering window (about one page stripe),
     * never the dense result — the path beyond-DRAM workloads use.
     * The serial-read Fallback plan still evaluates controller-side
     * and buffers every result page before streaming; check
     * planFor(expr).kind (or ReadStats::planKind/streamPeakPages)
     * before relying on the O(window) bound.
     */
    void fcRead(const Expr &expr, ResultSink &sink,
                ReadStats *stats = nullptr);

    /**
     * Execute a bulk bitwise expression in flash (fc_read) and return
     * the result vector: a thin wrapper collecting the streamed chunks
     * through a DenseCollectSink. Timing, energy, and payload are
     * bit-identical to the sink overload.
     */
    BitVector fcRead(const Expr &expr, ReadStats *stats = nullptr);

    /** The plan fcRead would execute (for inspection/tests). */
    MwsPlan planFor(const Expr &expr) const;

    /**
     * Execute an expression in flash and persist the result *without
     * leaving the dies*: after each page column's command chain, the
     * cache latch is programmed into a freshly allocated page
     * (program-from-latch, the copyback write path). This is the
     * primitive behind Section 10's "logically complete" claim —
     * computed vectors become operands of later operations, enabling
     * synthesized multi-step functions (see core/arith.h).
     *
     * @param opts  placement of the result vector. storeInverted
     *              stores the complement (the planner then computes
     *              NOT(expr) into the latch).
     */
    VectorId fcCompute(const Expr &expr, const WriteOptions &opts,
                       ReadStats *stats = nullptr);

    /**
     * Replicate a single-page vector across @p pages pages of
     * @p opts.group so it can join a group's MWS strings on every
     * column (Equation-1 co-location). Each copy is made die-to-die
     * through the controller — sense, channel out, channel in,
     * ESP program — on the engine's timeline. The returned vector
     * behaves as the source page tiled @p pages times.
     */
    VectorId fcReplicate(VectorId src, std::uint64_t pages,
                         const WriteOptions &opts,
                         ReadStats *stats = nullptr);

    /** Read a stored vector back through the regular read path,
     *  streaming its pages into @p sink in page order. */
    void readVector(VectorId id, ResultSink &sink,
                    ReadStats *stats = nullptr);

    /** Read a stored vector back as a dense vector (DenseCollectSink
     *  wrapper over the streamed path). */
    BitVector readVector(VectorId id, ReadStats *stats = nullptr);

    // ------------------------------------------------------------------
    // Concurrent request API
    //
    // Every fc* operation above is a thin submit-and-wait wrapper over
    // these: submit* hands the operation to the admission queue
    // (engine::RequestQueue) and returns immediately with a handle;
    // independent requests overlap on the engine's shared timeline
    // while conflicting ones (block-grained read/write footprints)
    // serialize in arrival order. Submitted serially — each waitAll()ed
    // before the next — the schedule, timeline, energy ledger, and
    // streamed payloads are bit-identical to the historical
    // drain-per-op behavior at any worker count.
    //
    // Lifetime: sinks, ReadStats, and generator callbacks passed to
    // submit* must stay alive until waitAll() (or advanceTo() past the
    // request's completion). ReadStats::makespan of a concurrent
    // request is its admitted->completed span; queue wait is recorded
    // separately ("engine.admission.wait.*").
    // ------------------------------------------------------------------

    using RequestId = engine::RequestId;
    using RequestOptions = DriveRequestOptions;

    /** Handle pair of a submitted write-like request: the request plus
     *  the vector it will have produced once completed. */
    struct Submitted
    {
        RequestId request = 0;
        VectorId vector = 0;
    };

    /** Async fcRead. @p sink streams this request's pages only. */
    RequestId submitRead(const Expr &expr, ResultSink &sink,
                         ReadStats *stats = nullptr,
                         const RequestOptions &ro = {});

    /** Async fcWrite (the payload is copied at submit). */
    Submitted submitWrite(const BitVector &data,
                          const WriteOptions &opts = {},
                          const RequestOptions &ro = {});

    /** Async fcWritePages (@p gen runs host-side at submit). */
    Submitted submitWritePages(
        const std::function<nand::PageImage(std::uint64_t)> &gen,
        std::uint64_t pages, const WriteOptions &opts = {},
        const RequestOptions &ro = {});

    /** Async fcCompute. */
    Submitted submitCompute(const Expr &expr, const WriteOptions &opts,
                            ReadStats *stats = nullptr,
                            const RequestOptions &ro = {});

    /** Async fcReplicate. */
    Submitted submitReplicate(VectorId src, std::uint64_t pages,
                              const WriteOptions &opts,
                              ReadStats *stats = nullptr,
                              const RequestOptions &ro = {});

    /** Async readVector. */
    RequestId submitReadVector(VectorId id, ResultSink &sink,
                               ReadStats *stats = nullptr,
                               const RequestOptions &ro = {});

    /** Run the timeline until every submitted request has completed. */
    void waitAll();

    /** Run the timeline up to @p t, leaving later work in flight —
     *  the pacing/backpressure primitive for paced submission loops.
     *  @return the clock (== max(now(), t)). */
    Time advanceTo(Time t);

    /** Current simulated time. */
    Time now() const { return engine_.now(); }

    /** The admission queue (inspection: depth, per-class counts). */
    const engine::RequestQueue &admission() const { return rq_; }

    /**
     * Trim (delete) a stored vector: every logical page is freed in
     * the FTL — the physical pages become invalid capacity garbage
     * collection reclaims — and the handle is recycled for a later
     * write. The host-side contract of a served drive: without trim
     * (or WriteOptions::replaces) capacity only ever fills.
     *
     * The caller must not trim a vector any in-flight request reads
     * or computes from (the sync fc* wrappers make this trivial; a
     * closed-loop generator trims only its own completed chains).
     */
    void trimVector(VectorId id);

    /** Stored (live, not-trimmed) vectors. Steady state under
     *  overwrite/trim traffic: O(working set), not O(total writes). */
    std::size_t liveVectorCount() const
    {
        return vectors_.size() - free_ids_.size();
    }

    /** Garbage-collection lifetime totals (monotonic). */
    struct GcTotals
    {
        std::uint64_t runs = 0;         ///< collect() invocations
        std::uint64_t pageCopies = 0;   ///< live pages relocated
        std::uint64_t blocksErased = 0; ///< victim blocks recycled
        /** Host-visible pages written (fcWrite/fcCompute/...); GC
         *  write amplification = 1 + pageCopies / hostPagesWritten. */
        std::uint64_t hostPagesWritten = 0;
    };
    const GcTotals &gcTotals() const { return gc_; }

    /** The FTL (capacity/occupancy inspection). */
    const ssd::Ftl &ftl() const { return ftl_; }

    /** Logical size of a stored vector in bits. */
    std::size_t vectorBits(VectorId id) const;

    /** Physical pages of a vector, resolved through the FTL at call
     *  time (placement inspection; by value — GC may relocate). */
    std::vector<ssd::PhysPage> vectorPages(VectorId id) const;

    std::uint32_t dieCount() const
    {
        return engine_.farm().dieCount();
    }
    /** Die @p die, once the work already posted to its lane has run
     *  (CommandScheduler::fence). */
    nand::NandChip &chip(std::uint32_t die);

    /** The multi-die engine (timeline + unified energy ledger). */
    engine::ComputeEngine &engine() { return engine_; }
    const engine::ComputeEngine &engine() const { return engine_; }

    // StorageResolver:
    bool isStoredInverted(VectorId id) const override;
    std::uint64_t stringKey(VectorId id) const override;

  private:
    struct VectorInfo
    {
        std::size_t bits = 0;
        bool inverted = false;
        bool live = false;
        std::uint64_t group = 0;
        std::uint64_t orderInGroup = 0;
        /** Logical pages; physical placement goes through
         *  ftl_.physOf() so GC relocation is transparent. */
        std::vector<ssd::Lpn> pages;
    };

    const VectorInfo &info(VectorId id) const;

    /** Die @p die for pricing steps (NandChip's *Cost functions read
     *  only its immutable shape, so no fence is needed). */
    const nand::NandChip &shapeOf(std::uint32_t die) const
    {
        return engine_.farm().chip(die);
    }

    /** Wait for a submitted write-like request: the sync fc* calls. */
    VectorId settle(Submitted s)
    {
        waitAll();
        return s.vector;
    }

    /** Physical address of logical page @p j of a vector. */
    ssd::PhysPage pageAt(const VectorInfo &v, std::size_t j) const
    {
        return ftl_.physOf(v.pages[j]);
    }

    /** Resolve a vector's logical pages to physical pages (snapshot
     *  at call time). */
    std::vector<ssd::PhysPage>
    resolvePages(const std::vector<ssd::Lpn> &lpns) const;

    /** Allocate the VectorInfo bookkeeping for a new vector. Runs
     *  GC first when the write would breach the free-block reserve. */
    VectorInfo makeVector(std::size_t bits, std::uint64_t group,
                          bool inverted, std::uint64_t pages,
                          std::uint32_t home_column);

    /** Register @p v under a (possibly recycled) VectorId. */
    VectorId allocVectorId(VectorInfo &&v);

    /** Collect every column whose free-block reserve is breached,
     *  submitting relocation+erase traffic onto the timeline. */
    void maybeCollect();

    /** Submit one column's GC plan as an engine request: copyback of
     *  each live page, then the victim-block erase (the plane FIFO
     *  orders copies before the erase). */
    void submitGcPlan(const ssd::Ftl::GcPlan &plan);

    /** Column program executing @p plan on page column @p page_index
     *  (Kind::Mws / Kind::Xor plans). */
    engine::ColumnProgram planProgram(const MwsPlan &plan,
                                      const Expr &expr,
                                      std::size_t page_index) const;

    /** Empty program on page column @p page_index's (die, plane);
     *  asserts the operands are co-located there. */
    engine::ColumnProgram columnProgram(const Expr &expr,
                                        std::size_t page_index) const;

    /** Block-grained conflict keys (ssd::Ftl::blockKey) of a page set,
     *  one per page (the request queue sorts and dedupes them). */
    std::vector<std::uint64_t>
    blockKeysOf(const std::vector<ssd::PhysPage> &pages) const;

    /** blockKeysOf over every page of every vector of @p leaves. */
    std::vector<std::uint64_t>
    readKeysOf(const std::vector<VectorId> &leaves) const;

    // The request helper: every request goes through submitRequest,
    // counts its engine work with addWork and ends in finishRequest.

    struct RequestState;

    /** Queue a request; at admission @p start submits its engine work
     *  against the request's state. @p name must be a literal. */
    template <typename Start>
    RequestId submitRequest(engine::RequestClass cls, const char *name,
                            std::vector<std::uint64_t> read_keys,
                            std::vector<std::uint64_t> write_keys,
                            ReadStats *stats, const RequestOptions &ro,
                            Start start);

    /** Register @p units of @p r's work; the callback retires one. */
    std::function<void()> addWork(RequestState &r, std::size_t units);

    /** Stream finalize, stats merge, request window, onOutcome. */
    void finishRequest(RequestState &r,
                       const engine::RequestQueue::Outcome &oc);

    /** Submit @p prog as one unit of @p r's work, retired after the
     *  program's own onComplete (if any). */
    void submitProgram(RequestState &r, engine::ColumnProgram prog);

    /** Submit one page-program write (data-in over the channel). */
    void submitPageWrite(RequestState &r, const ssd::PhysPage &dst,
                         nand::PageImage page);

    /** Begin @p sink's result stream; @return its page emitter. */
    engine::OrderedChunkStream::Emit openSink(RequestState &r,
                                              ResultSink &sink,
                                              std::uint64_t pages,
                                              std::uint64_t bits);

    /** The serial-read fallback of fcRead and fcCompute: read every
     *  leaf page to the controller; once the last column lands, hand
     *  each column's evaluated page to @p use, in page order. */
    void submitFallback(RequestState &r, const Expr &expr,
                        std::uint64_t pages,
                        std::function<void(std::uint64_t, BitVector)> use);

    /** Valid bits of page @p j of a @p bits-bit vector (the last page
     *  may be short). */
    std::uint64_t pageValidBits(std::uint64_t j, std::uint64_t bits) const;

    /** Operand shape and plan of an fcRead/fcCompute expression:
     *  prepare() asserts a non-constant expression over operands of
     *  equal bits and page counts, and notes the plan in @p stats. */
    struct Operands
    {
        std::vector<VectorId> leaves;
        std::size_t bits = 0;
        std::size_t pages = 0;
        MwsPlan plan;
    };
    Operands prepare(const Expr &expr, const char *op,
                     ReadStats *stats) const;

    /** Write path of submitWrite and submitWritePages. */
    Submitted
    submitPages(std::size_t bits, std::uint64_t pages,
                const std::function<nand::PageImage(std::uint64_t)> &gen,
                const WriteOptions &opts, const RequestOptions &ro);

    /** Planned fcRead and readVector: one program per page column,
     *  results re-ordered into @p sink. */
    RequestId submitStreamedRead(
        const char *name, std::size_t pages, std::size_t bits,
        std::vector<std::uint64_t> read_keys, ResultSink &sink,
        ReadStats *stats,
        std::function<engine::ColumnProgram(std::size_t)> make_program,
        const RequestOptions &ro);

    Config cfg_;
    engine::ComputeEngine engine_;
    /** Admission/request queue fronting the scheduler (tentpole of the
     *  concurrent request API; constructed after engine_). */
    engine::RequestQueue rq_;
    ssd::Ftl ftl_;
    Planner planner_;
    std::vector<VectorInfo> vectors_;
    /** Recycled VectorId slots (LIFO), from trimVector. */
    std::vector<VectorId> free_ids_;
    GcTotals gc_;
    /** Per-group lockstep bookkeeping (see makeVector). */
    struct GroupInfo
    {
        std::uint64_t count = 0;
        /** Vectors of the group still live; the last trim drops the
         *  group (and its FTL slots). */
        std::uint64_t live = 0;
        std::uint64_t pages = 0;
        std::uint32_t homeColumn = 0;
    };
    std::unordered_map<std::uint64_t, GroupInfo> group_info_;
    std::uint64_t next_auto_group_ = 1ULL << 32;

    /** Request-level observability (epochs + track captured at
     *  construction; see obs/obs.h). */
    std::uint64_t trace_epoch_ = 0;
    std::uint64_t m_epoch_ = 0;
    std::uint32_t req_track_ = 0;
    /** Latest request-window end recorded on the track (span vs
     *  overlay decision; see finishRequest). */
    Time req_last_end_ = 0;
};

} // namespace fcos::core

#endif // FCOS_CORE_DRIVE_H
