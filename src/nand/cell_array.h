/**
 * @file
 * Functional model of one die's cell array.
 *
 * The array keeps one StoredPage per programmed page in a hash map
 * keyed by the page's flat (plane, wordline) index: a page that fits
 * its descriptor (page_store.h) is stored as its bits, a wider page as
 * its generator descriptor or shared payload, materialized only when
 * a sense touches it. The array also tracks per-block P/E cycle
 * counts and computes the per-bitline *string conduction* of an
 * arbitrary set of simultaneously activated wordlines — the physical
 * primitive behind Multi-Wordline Sensing (Section 4.1):
 *
 *   conduction(bitline) = OR over activated strings of
 *                         (AND over target cells in the string)
 *
 * where a cell contributes '1' when erased (V_TH <= V_REF). Erased
 * wordlines are the AND identity and are never materialized. Error
 * injection is delegated to an ErrorInjector so the functional model
 * stays independent of the reliability model.
 */

#ifndef FCOS_NAND_CELL_ARRAY_H
#define FCOS_NAND_CELL_ARRAY_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "nand/config.h"
#include "nand/geometry.h"
#include "nand/page_store.h"
#include "util/bitvector.h"

namespace fcos::nand {

/**
 * Error-injection hook: flips bits of a sensed page in place.
 * Implemented by reliability::VthErrorInjector; a null injector means
 * error-free sensing.
 */
class ErrorInjector
{
  public:
    virtual ~ErrorInjector() = default;

    /**
     * @param bits  sensed page data to corrupt in place
     * @param meta  programming context of the page
     * @param seed  deterministic per-(page, sense) seed
     */
    virtual void inject(BitVector &bits, const PageMeta &meta,
                        std::uint64_t seed) = 0;
};

/**
 * One wordline group inside a single NAND string set: the wordlines of
 * (block, subBlock) selected by @p wlMask are biased at V_REF together.
 */
struct WlSelection
{
    std::uint32_t block = 0;
    std::uint32_t subBlock = 0;
    std::uint64_t wlMask = 0;

    std::uint32_t wordlineCount() const;
};

class CellArray
{
  public:
    explicit CellArray(const Geometry &geom);

    const Geometry &geometry() const { return geom_; }

    /**
     * Erase a physical block (all sub-blocks): pages revert to the
     * erased (all-'1') state and the block's P/E count increments.
     */
    void eraseBlock(std::uint32_t plane, std::uint32_t block);

    /**
     * Program one page. NAND cannot rewrite a programmed page without
     * an erase; violating that is a user error (fatal).
     */
    void program(const WordlineAddr &addr, const BitVector &data,
                 const PageMeta &meta);

    /** Program from an image descriptor. A page of at most
     *  PageImage::kInlineBits is stored as its bits, generated once
     *  here; a wider page keeps its descriptor unmaterialized. */
    void program(const WordlineAddr &addr, PageImage image,
                 const PageMeta &meta);

    bool isProgrammed(const WordlineAddr &addr) const;

    /** Programming context of a programmed page, or nullptr if erased. */
    const PageMeta *pageMeta(const WordlineAddr &addr) const;

    /** Stored payload of a programmed page, materialized (error-free);
     *  fatal if the page is erased. */
    BitVector pageData(const WordlineAddr &addr) const;

    std::uint32_t blockPec(std::uint32_t plane, std::uint32_t block) const;

    /** Artificially raise a block's P/E count (wear stress in tests). */
    void setBlockPec(std::uint32_t plane, std::uint32_t block,
                     std::uint32_t pec);

    /**
     * Stored data of one wordline as the sense amp would see it:
     * erased pages read all-'1'; programmed pages read their payload
     * with @p injector errors applied.
     */
    BitVector effectiveData(const WordlineAddr &addr,
                            ErrorInjector *injector,
                            std::uint64_t read_seq) const;

    /**
     * Per-bitline conduction of the activated wordline set
     * (the MWS primitive). @p selections must be non-empty; every
     * selection must name a distinct string set. Each programmed page
     * is read as stored: an inline page copies its bits, a wider
     * descriptor is materialized for this sense; errors are injected
     * on that error-free payload.
     */
    BitVector senseConduction(std::uint32_t plane,
                              const std::vector<WlSelection> &selections,
                              ErrorInjector *injector,
                              std::uint64_t read_seq) const;

    /** Number of programmed pages (for tests / memory accounting). */
    std::size_t programmedPages() const;

    /**
     * Estimated heap footprint of the stored pages: payload bytes
     * (each shared payload counted once) plus per-entry bookkeeping.
     * The scale contract — a Table-1 chip with sparsely programmed
     * pages stays within a pinned budget — is asserted against it.
     */
    std::size_t contentBytes() const;

  private:
    /** What the sense amp reads of programmed page @p page at @p key:
     *  its payload with @p injector errors applied. */
    BitVector sensedPage(std::uint64_t key, const StoredPage &page,
                         ErrorInjector *injector,
                         std::uint64_t read_seq) const;

    std::uint64_t planeKey(std::uint32_t plane, std::uint64_t wl_idx) const
    {
        return static_cast<std::uint64_t>(plane) *
                   geom_.pagesPerPlane() +
               wl_idx;
    }

    /** Stored page at @p key, or nullptr if erased. */
    const StoredPage *find(std::uint64_t key) const
    {
        auto it = pages_.find(key);
        return it == pages_.end() ? nullptr : &it->second;
    }

    Geometry geom_;
    std::unordered_map<std::uint64_t, StoredPage> pages_;
    std::vector<std::uint32_t> block_pec_; // [plane * blocksPerPlane + b]
};

} // namespace fcos::nand

#endif // FCOS_NAND_CELL_ARRAY_H
