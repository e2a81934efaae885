#include "ssd/ftl.h"

#include <algorithm>

#include "util/log.h"

namespace fcos::ssd {

Ftl::Ftl(std::uint32_t dies, const nand::Geometry &geom)
    : dies_(dies), geom_(geom), columns_(columns())
{
    fcos_assert(dies > 0, "FTL needs at least one die");
    fcos_assert(geom_.wordlinesPerSubBlock <= 64,
                "sub-block live masks hold at most 64 wordlines");
    fcos_assert(geom_.blocksPerPlane <= (1u << 16) &&
                    geom_.subBlocksPerBlock <= (1u << 8),
                "geometry exceeds the FTL's packed-key widths");
}

Ftl::SubBlockRef
Ftl::acquireSub(std::uint32_t column, std::uint64_t owner,
                std::uint32_t row)
{
    Column &c = columns_[column];
    if (c.openBlock == kNoBlock ||
        c.openNextSub >= geom_.subBlocksPerBlock) {
        std::uint32_t b;
        if (!c.recycled.empty()) {
            std::pop_heap(c.recycled.begin(), c.recycled.end(),
                          std::greater<std::uint32_t>{});
            b = c.recycled.back();
            c.recycled.pop_back();
        } else if (c.nextFresh < geom_.blocksPerPlane) {
            b = c.nextFresh++;
        } else {
            fcos_fatal("FTL out of space on die %u plane %u "
                       "(no free block; all remaining capacity is live "
                       "or pinned)",
                       dieOfColumn(column), planeOfColumn(column));
        }
        BlockState bs;
        bs.subs.resize(geom_.subBlocksPerBlock);
        c.blocks.emplace(b, std::move(bs));
        c.openBlock = b;
        c.openNextSub = 0;
    }
    SubBlockRef ref{c.openBlock, c.openNextSub++};
    BlockState &bs = c.blocks.at(ref.block);
    SubState &ss = bs.subs[ref.subBlock];
    ss = SubState{};
    ss.allocated = true;
    ss.ownerGroup = owner;
    ss.ownerRow = row;
    ++bs.allocatedSubs;
    ++c.allocatedSubs;
    return ref;
}

Lpn
Ftl::mapNewPage(std::uint32_t column, const SubBlockRef &sb,
                std::uint32_t wordline)
{
    const PhysPage p = physAt(column, sb.block, sb.subBlock, wordline);
    Lpn lpn;
    if (!free_lpns_.empty()) {
        lpn = free_lpns_.back();
        free_lpns_.pop_back();
    } else {
        lpn = map_.size();
        map_.push_back(PhysPage{});
        live_.push_back(false);
    }
    map_[lpn] = p;
    live_[lpn] = true;
    ++live_lpns_;
    rmap_.emplace(pageKey(p), lpn);

    Column &c = columns_[column];
    BlockState &bs = c.blocks.at(sb.block);
    SubState &ss = bs.subs[sb.subBlock];
    ss.liveMask |= std::uint64_t{1} << wordline;
    ++ss.live;
    ++bs.livePages;
    ++c.livePages;
    return lpn;
}

Lpn
Ftl::allocFromSlot(std::uint32_t column, GroupSlot &slot,
                   std::uint64_t owner, std::uint32_t row)
{
    if (!slot.open || slot.nextWordline >= geom_.wordlinesPerSubBlock) {
        slot.sb = acquireSub(column, owner, row);
        slot.nextWordline = 0;
        slot.open = true;
    }
    return mapNewPage(column, slot.sb, slot.nextWordline++);
}

std::vector<Lpn>
Ftl::allocateStriped(std::uint64_t pages)
{
    std::vector<Lpn> out;
    out.reserve(pages);
    for (std::uint64_t i = 0; i < pages; ++i) {
        std::uint32_t column = static_cast<std::uint32_t>(i % columns());
        out.push_back(allocFromSlot(column,
                                    columns_[column].stripedOpen,
                                    kStripedOwner, 0));
    }
    return out;
}

std::vector<Lpn>
Ftl::allocateInGroup(std::uint64_t group, std::uint64_t pages,
                     std::uint32_t start_column)
{
    fcos_assert(start_column < columns(),
                "start column %u out of %u columns", start_column,
                columns());
    fcos_assert(group != kStripedOwner, "reserved group id");
    auto &per_column = groups_[group];
    if (per_column.empty())
        per_column.resize(columns());
    std::vector<Lpn> out;
    out.reserve(pages);
    for (std::uint64_t i = 0; i < pages; ++i) {
        std::uint32_t column =
            static_cast<std::uint32_t>((start_column + i) % columns());
        std::size_t row = static_cast<std::size_t>(i / columns());
        auto &slots = per_column[column];
        if (slots.size() <= row)
            slots.resize(row + 1);
        out.push_back(allocFromSlot(column, slots[row], group,
                                    static_cast<std::uint32_t>(row)));
    }
    return out;
}

PhysPage
Ftl::physOf(Lpn lpn) const
{
    fcos_assert(lpn < map_.size() && live_[lpn],
                "physOf of dead lpn %llu", (unsigned long long)lpn);
    return map_[lpn];
}

void
Ftl::free(Lpn lpn)
{
    fcos_assert(lpn < map_.size() && live_[lpn],
                "free of dead lpn %llu", (unsigned long long)lpn);
    const PhysPage p = map_[lpn];
    const std::uint32_t column = columnOf(p);
    Column &c = columns_[column];
    BlockState &bs = c.blocks.at(p.addr.block);
    SubState &ss = bs.subs[p.addr.subBlock];
    const std::uint64_t bit = std::uint64_t{1} << p.addr.wordline;
    fcos_assert(ss.liveMask & bit, "free of unmapped wordline");
    ss.liveMask &= ~bit;
    --ss.live;
    --bs.livePages;
    --c.livePages;
    rmap_.erase(pageKey(p));
    live_[lpn] = false;
    free_lpns_.push_back(lpn);
    --live_lpns_;
}

void
Ftl::pin(Lpn lpn)
{
    const PhysPage p = physOf(lpn);
    Column &c = columns_[columnOf(p)];
    BlockState &bs = c.blocks.at(p.addr.block);
    SubState &ss = bs.subs[p.addr.subBlock];
    if (!ss.pinned) {
        ss.pinned = true;
        ++bs.pinnedSubs;
    }
}

void
Ftl::dropGroup(std::uint64_t group)
{
    groups_.erase(group);
}

// --------------------------------------------------------------------------
// Garbage collection
// --------------------------------------------------------------------------

std::uint32_t
Ftl::findVictim(std::uint32_t column,
                const std::vector<std::uint64_t> *busy_keys) const
{
    const Column &c = columns_[column];
    const std::uint32_t wl_per_block = geom_.wordlinesPerBlock();
    const std::uint64_t free_subs =
        freeBlocks(column) * geom_.subBlocksPerBlock +
        (c.openBlock != kNoBlock
             ? geom_.subBlocksPerBlock - c.openNextSub
             : 0);

    std::uint32_t best = kNoBlock;
    std::uint32_t best_live = 0;
    // Fresh blocks are consumed in index order, so scanning
    // [0, nextFresh) covers every block ever allocated; the map lookup
    // skips the recycled ones. Deterministic, unlike map iteration.
    for (std::uint32_t b = 0; b < c.nextFresh; ++b) {
        auto it = c.blocks.find(b);
        if (it == c.blocks.end())
            continue;
        const BlockState &bs = it->second;
        // The open block is protected only while it still has fresh
        // sub-blocks to hand out; once sealed (full) it is ordinary
        // victim material like any other allocated block.
        if (b == c.openBlock && c.openNextSub < geom_.subBlocksPerBlock)
            continue;
        if (bs.pinnedSubs > 0)
            continue;
        if (bs.livePages >= wl_per_block)
            continue; // nothing reclaimable
        // Relocating live sub-blocks must free more than it consumes,
        // and the fresh sub-blocks it consumes must exist.
        std::uint32_t live_subs = 0;
        for (const SubState &ss : bs.subs)
            live_subs += ss.allocated && ss.live > 0;
        if (live_subs >= geom_.subBlocksPerBlock)
            continue;
        if (live_subs > free_subs)
            continue;
        if (busy_keys &&
            std::binary_search(busy_keys->begin(), busy_keys->end(),
                               blockKey(dieOfColumn(column),
                                        planeOfColumn(column), b)))
            continue;
        if (best == kNoBlock || bs.livePages < best_live) {
            best = b;
            best_live = bs.livePages;
        }
    }
    return best;
}

bool
Ftl::gcNeeded(std::uint32_t column) const
{
    if (freeBlocks(column) > kGcReserveBlocks)
        return false;
    return findVictim(column, nullptr) != kNoBlock;
}

bool
Ftl::collect(std::uint32_t column,
             const std::vector<std::uint64_t> &busy_keys, GcPlan *plan)
{
    fcos_assert(plan != nullptr, "collect needs a plan out-param");
    const std::uint32_t victim = findVictim(column, &busy_keys);
    if (victim == kNoBlock)
        return false;

    Column &c = columns_[column];
    // Detach the victim before relocating: acquireSub below may open a
    // new block and rehash the map.
    BlockState vb = std::move(c.blocks.at(victim));
    c.blocks.erase(victim);
    c.allocatedSubs -= vb.allocatedSubs;
    c.livePages -= vb.livePages;

    plan->column = column;
    plan->block = victim;
    plan->moves.clear();

    // Open-slot backref of an allocated victim sub (group chain or the
    // striped chain), if any still points at it.
    const auto openSlotOf = [&](const SubState &ss) -> GroupSlot * {
        if (ss.ownerGroup == kStripedOwner)
            return &c.stripedOpen;
        auto git = groups_.find(ss.ownerGroup);
        if (git != groups_.end() &&
            git->second[column].size() > ss.ownerRow)
            return &git->second[column][ss.ownerRow];
        return nullptr;
    };

    for (std::uint32_t s = 0; s < geom_.subBlocksPerBlock; ++s) {
        SubState &ss = vb.subs[s];
        if (!ss.allocated)
            continue;
        const SubBlockRef victim_ref{victim, s};
        if (ss.live == 0) {
            // Dead sub-block: reclaimed for free. It may still be the
            // owner chain's *open* sub (every written wordline already
            // invalidated) — seal the slot so the chain opens a fresh
            // sub-block instead of writing into the erased block.
            GroupSlot *slot = openSlotOf(ss);
            if (slot && slot->open && slot->sb == victim_ref)
                slot->open = false;
            continue;
        }
        // The whole sub-block moves as a unit (wordline offsets
        // preserved), so every vector of the owning group relocates
        // together and Equation-1 co-location survives.
        const SubBlockRef dst = acquireSub(column, ss.ownerGroup,
                                           ss.ownerRow);
        BlockState &db = c.blocks.at(dst.block);
        SubState &ds = db.subs[dst.subBlock];
        ds.liveMask = ss.liveMask;
        ds.live = ss.live;
        db.livePages += ss.live;
        c.livePages += ss.live;
        for (std::uint32_t wl = 0; wl < geom_.wordlinesPerSubBlock;
             ++wl) {
            if (!(ss.liveMask & (std::uint64_t{1} << wl)))
                continue;
            const PhysPage src = physAt(column, victim, s, wl);
            const PhysPage dstp =
                physAt(column, dst.block, dst.subBlock, wl);
            auto rit = rmap_.find(pageKey(src));
            fcos_assert(rit != rmap_.end(), "live page missing from rmap");
            const Lpn lpn = rit->second;
            rmap_.erase(rit);
            rmap_.emplace(pageKey(dstp), lpn);
            map_[lpn] = dstp;
            plan->moves.push_back({src, dstp});
        }
        // Fix the owning chain's open slot so future writes continue
        // at the relocated sub-block.
        GroupSlot *slot = openSlotOf(ss);
        if (slot && slot->open && slot->sb == victim_ref)
            slot->sb = dst;
    }

    // The block returns to the free list at host time; the caller's
    // conflict keys order the timeline erase before any later program
    // into it.
    ++c.eraseCounts[victim];
    c.recycled.push_back(victim);
    std::push_heap(c.recycled.begin(), c.recycled.end(),
                   std::greater<std::uint32_t>{});
    if (c.openBlock == victim)
        c.openBlock = kNoBlock; // sealed open block was victimized
    return true;
}

// --------------------------------------------------------------------------
// Accounting
// --------------------------------------------------------------------------

std::uint64_t
Ftl::usedSubBlocks(std::uint32_t die, std::uint32_t plane) const
{
    std::uint32_t column = die * geom_.planesPerDie + plane;
    fcos_assert(column < columns(), "column out of range");
    return columns_[column].allocatedSubs;
}

std::uint64_t
Ftl::livePages(std::uint32_t column) const
{
    fcos_assert(column < columns(), "column out of range");
    return columns_[column].livePages;
}

std::uint64_t
Ftl::freeBlocks(std::uint32_t column) const
{
    fcos_assert(column < columns(), "column out of range");
    const Column &c = columns_[column];
    return (geom_.blocksPerPlane - c.nextFresh) + c.recycled.size();
}

std::uint64_t
Ftl::allocatedBlocks(std::uint32_t column) const
{
    fcos_assert(column < columns(), "column out of range");
    return columns_[column].blocks.size();
}

bool
Ftl::blockAllocated(std::uint32_t die, std::uint32_t plane,
                    std::uint32_t block) const
{
    std::uint32_t column = die * geom_.planesPerDie + plane;
    fcos_assert(column < columns(), "column out of range");
    return columns_[column].blocks.count(block) != 0;
}

std::uint64_t
Ftl::eraseCount(std::uint32_t die, std::uint32_t plane,
                std::uint32_t block) const
{
    std::uint32_t column = die * geom_.planesPerDie + plane;
    fcos_assert(column < columns(), "column out of range");
    const auto &counts = columns_[column].eraseCounts;
    auto it = counts.find(block);
    return it == counts.end() ? 0 : it->second;
}

} // namespace fcos::ssd
