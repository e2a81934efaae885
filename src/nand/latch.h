/**
 * @file
 * Per-plane sensing-latch (S-latch) and cache-latch (C-latch) arrays.
 *
 * Semantics follow the paper's circuit descriptions:
 *
 *  - Figure 3 (normal read): after S-latch initialization, the
 *    evaluation step stores the sensed bit ('1' = conducting string).
 *
 *  - Figure 4 (inverse read): swapping the M1/M2 activation order
 *    initializes the latch to the opposite polarity, so evaluation
 *    stores the *inverse* of the sensed bit. An inverse read requires
 *    S-latch initialization (Section 6.2).
 *
 *  - Figure 6(b) (ParaBit AND): sensing *without* re-initializing the
 *    S-latch can only pull OUT_S down, never up, so repeated sensing
 *    accumulates S := S AND N.
 *
 *  - Figure 6(c) (ParaBit OR): the M3 transfer into the C-latch can only
 *    force OUT_L to '1' (never back to '0'), so repeated transfers
 *    accumulate C := C OR S once the C-latch was initialized to '0'.
 *
 *  - Figure 16 (Flash-Cosmos accumulation): a dump with C-latch
 *    initialization disabled accumulates C := C AND S. Rationale: the
 *    latch pair is symmetric — driving the complementary node OUT_L
 *    instead of OUT_L can only force '0', which is exactly the AND
 *    merge; the paper's worked example (Equation 4) requires the two
 *    MWS results to combine conjunctively in both latches. The MWS
 *    command's dump therefore uses the AND path; the classic OR path
 *    stays available as dumpOrMerge() for OR-merged plan steps.
 *
 *  - XOR command (Section 6.1): C := S XOR C, using the spare program
 *    latches present in MLC/TLC chips.
 */

#ifndef FCOS_NAND_LATCH_H
#define FCOS_NAND_LATCH_H

#include <cstddef>

#include "util/bitvector.h"

namespace fcos::nand {

class LatchArray
{
  public:
    /** @param bitlines  number of bitlines (== page bits). */
    explicit LatchArray(std::size_t bitlines);

    std::size_t bitlines() const { return sense_.size(); }

    /**
     * Precharge-step S-latch initialization (normal polarity). Only a
     * flag: the next evaluate() treats S as all-'1' and assigns every
     * bit, so no fill is needed.
     */
    void initSense();

    /** Precharge-step C-latch initialization (to the OR identity '0'). */
    void initCache();

    /**
     * Evaluation step: latch the sensed conduction pattern.
     *
     * @param conduction  per-bitline string conduction ('1' = discharged
     *                    = all target cells erased / at least one string
     *                    conducting).
     * @param inverse     inverse-read mode (Figure 4). Requires that
     *                    initSense() was called since the last sense.
     * @param initialized whether the S-latch was initialized; when
     *                    false, the evaluation can only pull down, i.e.
     *                    S := S AND conduction (ParaBit AND, Fig. 6(b)).
     */
    void evaluate(const BitVector &conduction, bool inverse,
                  bool initialized);

    /** ParaBit OR transfer (Fig. 6(c)): C := C OR S. */
    void dumpOrMerge();

    /** Flash-Cosmos accumulate transfer (Fig. 16): C := C AND S. */
    void dumpAndMerge();

    /** Plain copy: initialize C then transfer, C := S. */
    void dumpCopy();

    /** On-chip XOR (Section 6.1): C := S XOR C. */
    void xorSenseIntoCache();

    /** Data-out path reads the cache latch. */
    const BitVector &cache() const { return cache_; }

    /** The sensing latch as of the last evaluate() (tests). */
    const BitVector &sense() const { return sense_; }

  private:
    BitVector sense_;
    BitVector cache_;
    bool sense_initialized_ = false;
};

} // namespace fcos::nand

#endif // FCOS_NAND_LATCH_H
