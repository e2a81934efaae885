#include "nand/chip.h"

#include <algorithm>

#include "util/log.h"

namespace fcos::nand {

NandChip::NandChip(const Geometry &geom, const Timings &timings,
                   ErrorInjector *injector, PageStoreKind)
    : geom_(geom), timing_(timings), cells_(geom),
      injector_(injector), plane_seq_(geom.planesPerDie, 0)
{
    latches_.reserve(geom.planesPerDie);
    for (std::uint32_t p = 0; p < geom.planesPerDie; ++p)
        latches_.emplace_back(geom.pageBits());
}

std::uint64_t
NandChip::senseCount(std::uint32_t plane) const
{
    fcos_assert(plane < geom_.planesPerDie, "plane %u out of range", plane);
    return plane_seq_[plane];
}

std::uint64_t
NandChip::nextSenseSeq(std::uint32_t plane)
{
    ++sense_seq_;
    return plane_seq_[plane]++;
}

OpResult
NandChip::eraseBlock(std::uint32_t plane, std::uint32_t block)
{
    cells_.eraseBlock(plane, block);
    return eraseCost();
}

OpResult
NandChip::eraseCost() const
{
    Time t = timing_.timings().tErase;
    return {t, PowerModel::energy(PowerModel::kErasePower, t)};
}

OpResult
NandChip::programPage(const WordlineAddr &addr, const BitVector &data,
                      ProgramMode mode, bool randomized)
{
    return programPage(addr, PageImage::dense(data), mode, randomized);
}

OpResult
NandChip::programPage(const WordlineAddr &addr, const PageImage &image,
                      ProgramMode mode, bool randomized)
{
    PageMeta meta;
    meta.mode = mode;
    meta.randomized = randomized;
    meta.espFactor =
        (mode == ProgramMode::SlcEsp) ? EspParams{}.tEspFactor : 1.0;
    return storePage(addr, image, meta);
}

OpResult
NandChip::programPageEsp(const WordlineAddr &addr, const BitVector &data,
                         const EspParams &esp)
{
    return programPageEsp(addr, PageImage::dense(data), esp);
}

OpResult
NandChip::programPageEsp(const WordlineAddr &addr, const PageImage &image,
                         const EspParams &esp)
{
    PageMeta meta;
    meta.mode = ProgramMode::SlcEsp;
    meta.randomized = false; // Flash-Cosmos stores operands unrandomized
    meta.espFactor = esp.tEspFactor;
    return storePage(addr, image, meta);
}

OpResult
NandChip::storePage(const WordlineAddr &addr, PageImage image,
                    const PageMeta &meta)
{
    cells_.program(addr, std::move(image), meta);
    return programCost(meta);
}

OpResult
NandChip::programCost(ProgramMode mode, const EspParams &esp) const
{
    PageMeta meta;
    meta.mode = mode;
    meta.espFactor = (mode == ProgramMode::SlcEsp) ? esp.tEspFactor : 1.0;
    return programCost(meta);
}

OpResult
NandChip::programCost(const PageMeta &meta) const
{
    const Timings &t = timing_.timings();
    const Time latency = meta.mode == ProgramMode::SlcEsp
                             ? EspParams{meta.espFactor}.latency(t)
                             : t.programLatency(meta.mode);
    return {latency, PowerModel::energy(PowerModel::kProgramPower, latency)};
}

OpResult
NandChip::senseCommon(std::uint32_t plane,
                      const std::vector<WlSelection> &selections,
                      const IscmFlags &flags)
{
    fcos_assert(plane < geom_.planesPerDie, "plane %u out of range", plane);
    LatchArray &l = latches_[plane];

    // Precharge step: latch initialization per the ISCM flags.
    if (flags.initSenseLatch)
        l.initSense();
    // A dump assigns the whole C-latch, so only a sense that leaves C
    // alone needs the C-init fill.
    if (flags.initCacheLatch && !flags.dumpToCache)
        l.initCache();

    // Evaluation step: simultaneous sensing of all selected wordlines.
    BitVector conduction = cells_.senseConduction(
        plane, selections, injector_, nextSenseSeq(plane));
    l.evaluate(conduction, flags.inverseRead, flags.initSenseLatch);

    if (flags.dumpToCache) {
        // MWS dump: plain copy when the C-latch was initialized,
        // AND-merge accumulation otherwise (Figure 16 semantics).
        if (flags.initCacheLatch)
            l.dumpCopy();
        else
            l.dumpAndMerge();
    }

    return senseCost(selections);
}

OpResult
NandChip::senseCost(std::uint32_t max_wls, std::uint32_t strings) const
{
    Time t = timing_.mwsLatency(max_wls, strings);
    double power = PowerModel::mwsPower(max_wls, strings);
    return {t, PowerModel::energy(power, t)};
}

OpResult
NandChip::senseCost(const std::vector<WlSelection> &selections) const
{
    std::uint32_t max_wls = 0;
    for (const auto &s : selections)
        max_wls = std::max(max_wls, s.wordlineCount());
    return senseCost(max_wls,
                     static_cast<std::uint32_t>(selections.size()));
}

OpResult
NandChip::mwsCost(const MwsCommand &cmd) const
{
    return senseCost(cmd.selections);
}

OpResult
NandChip::readCost() const
{
    return senseCost(1, 1);
}

OpResult
NandChip::readPage(const WordlineAddr &addr, bool inverse)
{
    checkAddr(geom_, addr);
    IscmFlags flags;
    flags.inverseRead = inverse;
    WlSelection sel{addr.block, addr.subBlock, 1ULL << addr.wordline};
    return senseCommon(addr.plane, {sel}, flags);
}

OpResult
NandChip::executeMws(const MwsCommand &cmd)
{
    fcos_assert(!cmd.selections.empty(), "MWS without selections");
    // An inverse read cannot accumulate: it requires S-latch init.
    if (cmd.flags.inverseRead) {
        fcos_assert(cmd.flags.initSenseLatch,
                    "inverse MWS requires S-latch initialization");
    }
    return senseCommon(cmd.plane, cmd.selections, cmd.flags);
}

OpResult
NandChip::executeXor(std::uint32_t plane)
{
    fcos_assert(plane < geom_.planesPerDie, "plane %u out of range", plane);
    latches_[plane].xorSenseIntoCache();
    return xorCost();
}

OpResult
NandChip::xorCost() const
{
    // Latch-to-latch movement is orders of magnitude faster than a
    // sense; model it as 1 us of array-logic activity.
    Time t = usToTime(1.0);
    return {t, PowerModel::energy(0.2, t)};
}

OpResult
NandChip::programFromCache(const WordlineAddr &addr, ProgramMode mode,
                           const EspParams &esp)
{
    checkAddr(geom_, addr);
    PageMeta meta;
    meta.mode = mode;
    meta.randomized = false;
    meta.espFactor =
        (mode == ProgramMode::SlcEsp) ? esp.tEspFactor : 1.0;
    return storePage(addr, PageImage::dense(latches_[addr.plane].cache()),
                     meta);
}

OpResult
NandChip::copyback(const WordlineAddr &src, const WordlineAddr &dst)
{
    checkAddr(geom_, src);
    checkAddr(geom_, dst);
    fcos_assert(src.plane == dst.plane,
                "copyback cannot cross planes (no shared latches)");
    const PageMeta *pm = cells_.pageMeta(src);
    PageMeta meta;
    meta.mode = pm ? pm->mode : ProgramMode::SlcRegular;
    meta.randomized = pm ? pm->randomized : false;
    meta.espFactor = pm ? pm->espFactor : 1.0;

    // Read phase latches the inverse of the stored data...
    OpResult read = readPage(src, true);
    // ...and the program phase writes the latch complement back.
    OpResult prog = storePage(
        dst, PageImage::dense(~latches_[src.plane].cache()), meta);
    return {read.latency + prog.latency, read.energyJ + prog.energyJ};
}

bool
NandChip::eraseVerify(std::uint32_t plane, std::uint32_t block,
                      OpResult *cost)
{
    fcos_assert(plane < geom_.planesPerDie && block < geom_.blocksPerPlane,
                "erase-verify target out of range");
    std::uint64_t all_wls =
        (geom_.wordlinesPerSubBlock >= 64)
            ? ~0ULL
            : (1ULL << geom_.wordlinesPerSubBlock) - 1;
    // The conduction of every string must be all-'1' (all cells
    // erased); any programmed cell blocks its string. Activating all
    // sub-blocks at once would OR across strings and mask a single
    // programmed string, so verify each sub-block's AND separately.
    bool ok = true;
    OpResult total;
    for (std::uint32_t sb = 0; sb < geom_.subBlocksPerBlock; ++sb) {
        MwsCommand per;
        per.plane = plane;
        per.selections.push_back(WlSelection{block, sb, all_wls});
        OpResult r = executeMws(per);
        total.latency += r.latency;
        total.energyJ += r.energyJ;
        ok = ok && dataOut(plane).allOnes();
    }
    if (cost)
        *cost = total;
    return ok;
}

const BitVector &
NandChip::dataOut(std::uint32_t plane) const
{
    fcos_assert(plane < geom_.planesPerDie, "plane %u out of range", plane);
    return latches_[plane].cache();
}

LatchArray &
NandChip::latches(std::uint32_t plane)
{
    fcos_assert(plane < geom_.planesPerDie, "plane %u out of range", plane);
    return latches_[plane];
}

} // namespace fcos::nand
