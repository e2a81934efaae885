/**
 * @file
 * Capacity-recycling page-granularity FTL with Flash-Cosmos-aware
 * placement (paper Section 6.3).
 *
 * Two allocation policies:
 *
 *  - Striped: pages of a vector round-robin across every (die, plane)
 *    column for maximum read parallelism — how all four evaluated
 *    platforms lay out regular data.
 *
 *  - Grouped: operands that will feed the same bulk bitwise operations
 *    are co-located so that, per column, operand k of the group sits at
 *    wordline k of the *same sub-block* (NAND string set). This is the
 *    storage-layout requirement that lets one intra-block MWS sense all
 *    operands at once; a group column grows extra sub-blocks every
 *    wordlinesPerSubBlock vectors.
 *
 * Allocations return logical page numbers (Lpn) resolved through a
 * page-level mapping table, so physical placement can change under a
 * live handle. free() invalidates a page (overwrite/trim); once a
 * column runs low on free blocks, collect() picks the allocated block
 * with the fewest live pages (greedy), relocates its live sub-blocks
 * *as units* — every vector of a group moves together, wordline
 * offsets preserved, so Equation-1 co-location survives relocation —
 * and erases the block back onto the free list. The caller (the
 * drive) replays the returned move/erase plan as real copyback +
 * erase traffic on the engine timeline. Per-block erase counters are
 * kept for wear accounting (ROADMAP direction 3).
 *
 * On a fresh FTL with no frees, block and sub-block consumption order
 * is identical to the historical bump allocator, which keeps the
 * write-once paper workloads bit-identical to their goldens (GC never
 * triggers there).
 */

#ifndef FCOS_SSD_FTL_H
#define FCOS_SSD_FTL_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "nand/geometry.h"

namespace fcos::ssd {

/** Physical location of one page: die index plus in-die address. */
struct PhysPage
{
    std::uint32_t die = 0;
    nand::WordlineAddr addr;

    bool operator==(const PhysPage &o) const
    {
        return die == o.die && addr == o.addr;
    }
};

/** Logical page handle; stable across GC relocation. */
using Lpn = std::uint64_t;
inline constexpr Lpn kNoLpn = ~Lpn{0};

class Ftl
{
  public:
    /** GC kicks in when a column's free-block count drops to this
     *  reserve (erased blocks ready for new sub-block chains). */
    static constexpr std::uint32_t kGcReserveBlocks = 1;

    Ftl(std::uint32_t dies, const nand::Geometry &geom);

    std::uint32_t dies() const { return dies_; }
    const nand::Geometry &geometry() const { return geom_; }

    /** Number of (die, plane) columns data stripes across. */
    std::uint32_t columns() const
    {
        return dies_ * geom_.planesPerDie;
    }

    /** Allocate @p pages pages striped across all columns. */
    std::vector<Lpn> allocateStriped(std::uint64_t pages);

    /**
     * Allocate @p pages pages for one vector of group @p group.
     * Successive vectors of the same group stack at successive
     * wordlines of shared sub-blocks (see file comment).
     *
     * @p start_column rotates the stripe: page i lands on column
     * (start_column + i) % columns(). Every vector of one group must
     * use the same start so group wordlines stay in lockstep; the
     * offset is what lets independent small vectors (e.g. one-page
     * requests) land on *different* dies instead of all piling onto
     * column 0 — the placement knob concurrent mixed traffic uses.
     */
    std::vector<Lpn> allocateInGroup(std::uint64_t group,
                                     std::uint64_t pages,
                                     std::uint32_t start_column = 0);

    /** Current physical location of a live page. */
    PhysPage physOf(Lpn lpn) const;

    bool isLive(Lpn lpn) const
    {
        return lpn < map_.size() && live_[lpn];
    }

    /** Invalidate one page (overwrite of its LBA, or trim). The
     *  wordline stays dead until GC erases its block. */
    void free(Lpn lpn);

    /** Pin the sub-block holding @p lpn: its block is never chosen as
     *  a GC victim and the page never relocates (the drive's reserved
     *  erased-reference wordlines, which must stay physically
     *  unprogrammed, live in pinned sub-blocks). */
    void pin(Lpn lpn);

    /** Drop a group's placement chains (call when the last vector of
     *  the group is freed, so group state is O(live groups)). Open
     *  sub-blocks of the group seal; their dead pages await GC. */
    void dropGroup(std::uint64_t group);

    // ----------------------------------------------------------------
    // Garbage collection
    // ----------------------------------------------------------------

    /** One live-page relocation of a GC plan (same column). */
    struct GcMove
    {
        PhysPage src;
        PhysPage dst;
    };

    /** Host-time result of collect(): the mapping table has already
     *  been updated; the caller owes the timeline these copybacks
     *  (in order) followed by the victim-block erase. */
    struct GcPlan
    {
        std::uint32_t column = 0;
        std::uint32_t block = 0; ///< victim (erase target)
        std::vector<GcMove> moves;
    };

    /** True when @p column is at/below the free-block reserve and an
     *  eligible victim exists. Never true before a free() dents the
     *  write-once allocation pattern. */
    bool gcNeeded(std::uint32_t column) const;

    /**
     * Run one greedy collection on @p column: victim = the allocated
     * block with the fewest live pages (ties toward the lowest block
     * index) that is not the open block, holds no pinned sub-block,
     * and whose (die, plane, block) key is absent from @p busy_keys
     * (sorted; the conflict keys of every live engine request — their
     * captured physical addresses must not move). Live sub-blocks
     * relocate as units into fresh sub-blocks of the same column with
     * wordline offsets preserved; the victim returns to the free list.
     *
     * @return false when no eligible victim exists (caller backs off).
     */
    bool collect(std::uint32_t column,
                 const std::vector<std::uint64_t> &busy_keys,
                 GcPlan *plan);

    // ----------------------------------------------------------------
    // Accounting (tests, steady-state assertions, wear bookkeeping)
    // ----------------------------------------------------------------

    /** Sub-blocks currently allocated on (die, plane). */
    std::uint64_t usedSubBlocks(std::uint32_t die,
                                std::uint32_t plane) const;

    /** Live (mapped) pages of a column. */
    std::uint64_t livePages(std::uint32_t column) const;

    /** Blocks of a column available for fresh allocation. */
    std::uint64_t freeBlocks(std::uint32_t column) const;

    /** Blocks of a column holding at least one allocated sub-block. */
    std::uint64_t allocatedBlocks(std::uint32_t column) const;

    bool blockAllocated(std::uint32_t die, std::uint32_t plane,
                        std::uint32_t block) const;

    /** Erase count of a physical block (wear accounting; survives the
     *  block's return to the free list). */
    std::uint64_t eraseCount(std::uint32_t die, std::uint32_t plane,
                             std::uint32_t block) const;

    /** Live page handles drive-wide. */
    std::uint64_t liveCount() const { return live_lpns_; }

    /** Conflict/busy key of a block: GC's busy set and the drive's
     *  request conflict footprints. */
    static std::uint64_t blockKey(std::uint32_t die, std::uint32_t plane,
                                  std::uint32_t block)
    {
        return (std::uint64_t{die} << 40) |
               (std::uint64_t{plane} << 32) | block;
    }
    static std::uint64_t blockKey(const PhysPage &p)
    {
        return blockKey(p.die, p.addr.plane, p.addr.block);
    }

  private:
    struct SubBlockRef
    {
        std::uint32_t block = 0;
        std::uint32_t subBlock = 0;

        bool operator==(const SubBlockRef &o) const
        {
            return block == o.block && subBlock == o.subBlock;
        }
    };

    struct GroupSlot
    {
        SubBlockRef sb{0, 0};
        std::uint32_t nextWordline = 0;
        bool open = false;
    };

    /** Striped allocations carry this owner tag instead of a group. */
    static constexpr std::uint64_t kStripedOwner = ~std::uint64_t{0};
    static constexpr std::uint32_t kNoBlock = ~std::uint32_t{0};

    struct SubState
    {
        std::uint64_t liveMask = 0;
        /** Chain backref (group id or kStripedOwner) for fixing the
         *  open slot when this sub-block relocates. */
        std::uint64_t ownerGroup = kStripedOwner;
        std::uint32_t ownerRow = 0;
        std::uint16_t live = 0;
        bool allocated = false;
        bool pinned = false;
    };

    struct BlockState
    {
        std::vector<SubState> subs; ///< sized subBlocksPerBlock
        std::uint32_t livePages = 0;
        std::uint32_t pinnedSubs = 0;
        std::uint32_t allocatedSubs = 0;
    };

    struct Column
    {
        /** Next never-yet-used block (fresh blocks are consumed in
         *  index order — the historical bump order). */
        std::uint32_t nextFresh = 0;
        /** Erased-and-recycled blocks, a min-heap (lowest first). */
        std::vector<std::uint32_t> recycled;
        std::uint32_t openBlock = kNoBlock;
        std::uint32_t openNextSub = 0;
        /** Allocated blocks only — O(touched), not O(geometry). */
        std::unordered_map<std::uint32_t, BlockState> blocks;
        /** Wear accounting; persists across the free list. */
        std::unordered_map<std::uint32_t, std::uint64_t> eraseCounts;
        std::uint64_t allocatedSubs = 0;
        std::uint64_t livePages = 0;
        GroupSlot stripedOpen;
    };

    /** Hand out the next fresh sub-block of a column (recycled blocks
     *  first, then fresh ones in index order). */
    SubBlockRef acquireSub(std::uint32_t column, std::uint64_t owner,
                           std::uint32_t row);

    /** Map a new page at (column, sb, wordline) and return its Lpn. */
    Lpn mapNewPage(std::uint32_t column, const SubBlockRef &sb,
                   std::uint32_t wordline);

    /** Advance @p slot (open a fresh sub-block when needed) and map
     *  the next wordline for owner (@p owner, @p row). */
    Lpn allocFromSlot(std::uint32_t column, GroupSlot &slot,
                      std::uint64_t owner, std::uint32_t row);

    /** Victim block of @p column, or kNoBlock. @p busy_keys sorted. */
    std::uint32_t
    findVictim(std::uint32_t column,
               const std::vector<std::uint64_t> *busy_keys) const;

    std::uint32_t dieOfColumn(std::uint32_t column) const
    {
        return column / geom_.planesPerDie;
    }
    std::uint32_t planeOfColumn(std::uint32_t column) const
    {
        return column % geom_.planesPerDie;
    }
    std::uint32_t columnOf(const PhysPage &p) const
    {
        return p.die * geom_.planesPerDie + p.addr.plane;
    }
    PhysPage physAt(std::uint32_t column, std::uint32_t block,
                    std::uint32_t sub, std::uint32_t wordline) const
    {
        return {dieOfColumn(column),
                nand::WordlineAddr{planeOfColumn(column), block, sub,
                                   wordline}};
    }

    /** Reverse-map key of one wordline (denser than blockKey). */
    std::uint64_t pageKey(const PhysPage &p) const
    {
        return (std::uint64_t{p.die} << 40) |
               (std::uint64_t{p.addr.plane} << 32) |
               (std::uint64_t{p.addr.block} << 16) |
               (std::uint64_t{p.addr.subBlock} << 8) | p.addr.wordline;
    }

    std::uint32_t dies_;
    nand::Geometry geom_;
    std::vector<Column> columns_;

    /** Mapping table: Lpn -> physical page, slots recycled through
     *  free_lpns_ so the table is O(live high-water), not O(total). */
    std::vector<PhysPage> map_;
    std::vector<bool> live_;
    std::vector<Lpn> free_lpns_;
    std::uint64_t live_lpns_ = 0;
    /** Reverse map (packed physical key -> Lpn); O(live). */
    std::unordered_map<std::uint64_t, Lpn> rmap_;

    /** group -> per-column list of slots (one per stripe row). */
    std::unordered_map<std::uint64_t, std::vector<std::vector<GroupSlot>>>
        groups_;
};

} // namespace fcos::ssd

#endif // FCOS_SSD_FTL_H
