/**
 * @file
 * Functional + timing + power model of one NAND flash die.
 *
 * The chip executes the regular command set (read / program / erase)
 * and the three Flash-Cosmos commands (MWS / ESP / XOR) against the
 * cell array, drives the per-plane latch arrays, and reports the
 * latency and energy of every operation from the calibrated timing and
 * power models.
 *
 * Every sense enters through readPage() or executeMws(); both share
 * one precharge/evaluate/dump sequence. The MWS dump copies into the
 * cache latch when C-init is on and AND-merges when it is off (the
 * Figure 16 semantics). ParaBit's serial flows (Figure 6) are plain
 * single-wordline MWS commands: the AND clears S-init after the first
 * operand; the OR turns the dump off and follows each sense with the
 * cache-read OR transfer, latches(plane).dumpOrMerge().
 */

#ifndef FCOS_NAND_CHIP_H
#define FCOS_NAND_CHIP_H

#include <cstdint>
#include <vector>

#include "nand/cell_array.h"
#include "nand/command.h"
#include "nand/config.h"
#include "nand/geometry.h"
#include "nand/latch.h"
#include "nand/power_model.h"
#include "nand/timing_model.h"
#include "util/bitvector.h"

namespace fcos::nand {

/** Latency and energy of one chip operation. */
struct OpResult
{
    Time latency = 0;
    double energyJ = 0.0;

    bool operator==(const OpResult &) const = default;
};

class NandChip
{
  public:
    /**
     * @param geom      die geometry
     * @param timings   latency parameters
     * @param injector  optional error model (nullptr = error-free)
     * The last argument is ignored: there is one page store
     * (cell_array.h), and only the fcbench probes still pass it.
     */
    NandChip(const Geometry &geom, const Timings &timings = Timings{},
             ErrorInjector *injector = nullptr,
             PageStoreKind = PageStoreKind::Sparse);

    const Geometry &geometry() const { return geom_; }
    CellArray &cells() { return cells_; }
    const CellArray &cells() const { return cells_; }

    /** Replace the error model (tests switch between models). */
    void setErrorInjector(ErrorInjector *injector) { injector_ = injector; }

    /** Erase a physical block. */
    OpResult eraseBlock(std::uint32_t plane, std::uint32_t block);

    /**
     * Program one SLC page.
     * @param randomized  marks that the payload passed the randomizer
     *                    (affects the error model's pattern factor).
     */
    OpResult programPage(const WordlineAddr &addr, const BitVector &data,
                         ProgramMode mode = ProgramMode::SlcRegular,
                         bool randomized = false);

    /** Program from an image descriptor (procedural or shared payload);
     *  a page wider than PageImage::kInlineBits is not materialized. */
    OpResult programPage(const WordlineAddr &addr, const PageImage &image,
                         ProgramMode mode = ProgramMode::SlcRegular,
                         bool randomized = false);

    /** Program one page with Enhanced SLC-mode Programming. */
    OpResult programPageEsp(const WordlineAddr &addr, const BitVector &data,
                            const EspParams &esp = EspParams{});

    /** ESP-program an image descriptor. */
    OpResult programPageEsp(const WordlineAddr &addr,
                            const PageImage &image,
                            const EspParams &esp = EspParams{});

    /**
     * Regular page read: sense one wordline, copy to the cache latch.
     * @param inverse  inverse-read mode (returns NOT of the data).
     */
    OpResult readPage(const WordlineAddr &addr, bool inverse = false);

    /**
     * Execute a parsed MWS command (Section 6.2): senses all selected
     * wordlines simultaneously and updates the latches per the ISCM
     * flags. Latency comes from the fine-grained model (Figs. 12/13).
     */
    OpResult executeMws(const MwsCommand &cmd);

    /** Execute the XOR command on @p plane: C := S XOR C. */
    OpResult executeXor(std::uint32_t plane);

    /**
     * Program the cache latch contents into @p addr without any
     * off-chip transfer (the write half of the copyback path; also
     * how in-flash computed results persist for later operations).
     */
    OpResult programFromCache(const WordlineAddr &addr,
                              ProgramMode mode = ProgramMode::SlcEsp,
                              const EspParams &esp = EspParams{});

    /**
     * Copyback (Section 2.1, footnote 3): move a page to another
     * location in the same plane without off-chip transfer. The read
     * phase latches the *inverse* of the data; the program phase
     * writes the latch complement back, restoring the original — the
     * reason inverse reads exist in commodity chips.
     */
    OpResult copyback(const WordlineAddr &src, const WordlineAddr &dst);

    /**
     * Erase-verify (Section 4.1): after an erase, the chip senses
     * every wordline of the block simultaneously — an intra-block MWS
     * over the whole string — and checks that all cells conduct. This
     * is the pre-existing chip capability Flash-Cosmos builds on.
     * @return true if the block verifies as erased.
     */
    bool eraseVerify(std::uint32_t plane, std::uint32_t block,
                     OpResult *cost = nullptr);

    // Shape-only costs: the latency and energy an op returns, from its
    // command alone, by the formula the op itself uses. They read only
    // the die's immutable geometry and timing, so a caller may price a
    // command while other threads run the die's data work.

    /** What executeMws(@p cmd) returns. */
    OpResult mwsCost(const MwsCommand &cmd) const;
    /** What readPage() returns. */
    OpResult readCost() const;
    /** What executeXor() returns. */
    OpResult xorCost() const;
    /** What a program in @p mode returns (programPage, and for SlcEsp
     *  programPageEsp / programFromCache with @p esp). */
    OpResult programCost(ProgramMode mode = ProgramMode::SlcEsp,
                         const EspParams &esp = EspParams{}) const;
    /** What eraseBlock() returns. */
    OpResult eraseCost() const;

    /** Data-out: the cache latch contents of @p plane. */
    const BitVector &dataOut(std::uint32_t plane) const;

    /** The latch pair of @p plane (the OR-merge transfer; tests). */
    LatchArray &latches(std::uint32_t plane);

    /** Total senses across all planes (campaign bookkeeping). */
    std::uint64_t senseCount() const { return sense_seq_; }

    /** Monotone per-plane sense counter (seeds the error model).
     *  Keeping the counter per plane makes every plane's error
     *  sequence a pure function of that plane's own op order, so
     *  plane-parallel scheduling cannot perturb sensed bits. */
    std::uint64_t senseCount(std::uint32_t plane) const;

  private:
    /** The one program rule: store @p image under @p meta; an SlcEsp
     *  page takes tESP from its own factor, any other mode
     *  programLatency(mode), and the energy is program power over it. */
    OpResult storePage(const WordlineAddr &addr, PageImage image,
                       const PageMeta &meta);
    /** The program rule's cost of a page stored under @p meta. */
    OpResult programCost(const PageMeta &meta) const;
    /** Cost of a sense of @p strings strings, the widest selecting
     *  @p max_wls wordlines. */
    OpResult senseCost(std::uint32_t max_wls, std::uint32_t strings) const;
    /** Cost of a sense of @p selections. */
    OpResult senseCost(const std::vector<WlSelection> &selections) const;

    OpResult senseCommon(std::uint32_t plane,
                         const std::vector<WlSelection> &selections,
                         const IscmFlags &flags);

    /** Advance plane @p plane's sense sequence; returns the seed. */
    std::uint64_t nextSenseSeq(std::uint32_t plane);

    Geometry geom_;
    TimingModel timing_;
    CellArray cells_;
    ErrorInjector *injector_;
    std::vector<LatchArray> latches_;
    std::uint64_t sense_seq_ = 0;
    std::vector<std::uint64_t> plane_seq_;
};

} // namespace fcos::nand

#endif // FCOS_NAND_CHIP_H
