#include "nand/cell_array.h"

#include <bit>
#include <unordered_set>

#include "util/log.h"

namespace fcos::nand {

std::uint32_t
WlSelection::wordlineCount() const
{
    return static_cast<std::uint32_t>(std::popcount(wlMask));
}

CellArray::CellArray(const Geometry &geom)
    : geom_(geom),
      block_pec_(static_cast<std::size_t>(geom.planesPerDie) *
                     geom.blocksPerPlane,
                 0)
{
}

void
CellArray::eraseBlock(std::uint32_t plane, std::uint32_t block)
{
    fcos_assert(plane < geom_.planesPerDie && block < geom_.blocksPerPlane,
                "erase target out of range");
    for (std::uint32_t sb = 0; sb < geom_.subBlocksPerBlock; ++sb) {
        for (std::uint32_t wl = 0; wl < geom_.wordlinesPerSubBlock; ++wl) {
            WordlineAddr a{plane, block, sb, wl};
            pages_.erase(planeKey(plane, wordlineIndex(geom_, a)));
        }
    }
    ++block_pec_[static_cast<std::size_t>(plane) * geom_.blocksPerPlane +
                 block];
}

void
CellArray::program(const WordlineAddr &addr, const BitVector &data,
                   const PageMeta &meta)
{
    fcos_assert(data.size() == geom_.pageBits(),
                "page data %zu bits, expected %llu", data.size(),
                (unsigned long long)geom_.pageBits());
    program(addr, PageImage::dense(data), meta);
}

void
CellArray::program(const WordlineAddr &addr, PageImage image,
                   const PageMeta &meta)
{
    checkAddr(geom_, addr);
    if (image.isDense()) {
        fcos_assert(image.payloadId()->size() == geom_.pageBits(),
                    "page data %zu bits, expected %llu",
                    image.payloadId()->size(),
                    (unsigned long long)geom_.pageBits());
    }
    auto [it, fresh] =
        pages_.try_emplace(planeKey(addr.plane, wordlineIndex(geom_, addr)));
    if (!fresh) {
        fcos_fatal("program of already-programmed page "
                   "(plane %u blk %u sb %u wl %u) without erase",
                   addr.plane, addr.block, addr.subBlock, addr.wordline);
    }
    // A page that fits the descriptor is stored as its bits, so a sense
    // copies them; a wider one keeps its descriptor (or shared payload)
    // and is materialized per sense.
    if (geom_.pageBits() <= PageImage::kInlineBits)
        image = image.inlined(geom_.pageBits());
    it->second.image = std::move(image);
    it->second.meta = meta;
    it->second.meta.pecAtProgram = blockPec(addr.plane, addr.block);
}

bool
CellArray::isProgrammed(const WordlineAddr &addr) const
{
    checkAddr(geom_, addr);
    return find(planeKey(addr.plane, wordlineIndex(geom_, addr))) !=
           nullptr;
}

const PageMeta *
CellArray::pageMeta(const WordlineAddr &addr) const
{
    checkAddr(geom_, addr);
    const StoredPage *sp =
        find(planeKey(addr.plane, wordlineIndex(geom_, addr)));
    return sp ? &sp->meta : nullptr;
}

BitVector
CellArray::pageData(const WordlineAddr &addr) const
{
    checkAddr(geom_, addr);
    const StoredPage *sp =
        find(planeKey(addr.plane, wordlineIndex(geom_, addr)));
    fcos_assert(sp != nullptr,
                "pageData of erased page (plane %u blk %u sb %u wl %u)",
                addr.plane, addr.block, addr.subBlock, addr.wordline);
    return sp->image.materialize(geom_.pageBits());
}

std::uint32_t
CellArray::blockPec(std::uint32_t plane, std::uint32_t block) const
{
    fcos_assert(plane < geom_.planesPerDie && block < geom_.blocksPerPlane,
                "PEC query out of range");
    return block_pec_[static_cast<std::size_t>(plane) *
                          geom_.blocksPerPlane +
                      block];
}

void
CellArray::setBlockPec(std::uint32_t plane, std::uint32_t block,
                       std::uint32_t pec)
{
    fcos_assert(plane < geom_.planesPerDie && block < geom_.blocksPerPlane,
                "PEC set out of range");
    block_pec_[static_cast<std::size_t>(plane) * geom_.blocksPerPlane +
               block] = pec;
}

BitVector
CellArray::effectiveData(const WordlineAddr &addr, ErrorInjector *injector,
                         std::uint64_t read_seq) const
{
    checkAddr(geom_, addr);
    std::uint64_t key = planeKey(addr.plane, wordlineIndex(geom_, addr));
    const StoredPage *sp = find(key);
    if (!sp)
        return BitVector(geom_.pageBits(), true); // erased: all '1'
    return sensedPage(key, *sp, injector, read_seq);
}

BitVector
CellArray::sensedPage(std::uint64_t key, const StoredPage &page,
                      ErrorInjector *injector, std::uint64_t read_seq) const
{
    BitVector bits = page.image.materialize(geom_.pageBits());
    if (injector) {
        std::uint64_t seed = key * 0x2545F491ULL + read_seq;
        injector->inject(bits, page.meta, seed);
    }
    return bits;
}

BitVector
CellArray::senseConduction(std::uint32_t plane,
                           const std::vector<WlSelection> &selections,
                           ErrorInjector *injector,
                           std::uint64_t read_seq) const
{
    fcos_assert(!selections.empty(), "MWS with empty selection");
    fcos_assert(plane < geom_.planesPerDie, "plane %u out of range", plane);
    BitVector result; // empty until the first string
    for (const auto &sel : selections) {
        fcos_assert(sel.block < geom_.blocksPerPlane &&
                        sel.subBlock < geom_.subBlocksPerBlock,
                    "selection out of range (blk %u sb %u)", sel.block,
                    sel.subBlock);
        fcos_assert(sel.wlMask != 0, "selection with empty wordline mask");
        fcos_assert(
            geom_.wordlinesPerSubBlock >= 64 ||
                (sel.wlMask >> geom_.wordlinesPerSubBlock) == 0,
            "wordline mask beyond string length");
        // AND across target wordlines of the same string, starting from
        // its first programmed page. Erased wordlines sense as all-'1' —
        // the AND identity — so only programmed pages are materialized,
        // and a string with none conducts on every bitline.
        BitVector string; // empty until the first programmed page
        for (std::uint64_t m = sel.wlMask; m != 0; m &= m - 1) {
            const WordlineAddr a{plane, sel.block, sel.subBlock,
                                 static_cast<std::uint32_t>(
                                     std::countr_zero(m))};
            const std::uint64_t key = planeKey(plane, wordlineIndex(geom_, a));
            const StoredPage *sp = find(key);
            if (!sp)
                continue;
            BitVector bits = sensedPage(key, *sp, injector, read_seq);
            if (string.empty())
                string = std::move(bits);
            else
                string &= bits;
        }
        if (string.empty())
            string = BitVector(geom_.pageBits(), true);
        // OR across distinct strings sharing the bitlines.
        if (result.empty())
            result = std::move(string);
        else
            result |= string;
    }
    return result;
}

std::size_t
CellArray::programmedPages() const
{
    return pages_.size();
}

std::size_t
CellArray::contentBytes() const
{
    // Per-entry bookkeeping estimate: stored page + key + hash node.
    constexpr std::size_t kEntryBytes =
        sizeof(StoredPage) + sizeof(std::uint64_t) + 4 * sizeof(void *);
    std::size_t bytes = pages_.size() * kEntryBytes;
    std::unordered_set<const BitVector *> counted;
    for (const auto &[key, page] : pages_) {
        (void)key;
        const BitVector *id = page.image.payloadId();
        if (id && counted.insert(id).second)
            bytes += page.image.heapBytes();
    }
    return bytes;
}

} // namespace fcos::nand
