/**
 * @file
 * Payload <-> descriptor page equivalence and the page store's scale
 * contract.
 *
 * The equivalence half drives two identically seeded twin chips
 * through the same page population (dense payloads, procedural
 * descriptors, inverted descriptors, checkered images) and the shared
 * random MWS command corpus, with the V_TH error model attached. Twin
 * A programs every page as its materialized payload
 * (PageImage::dense(img.materialize(bits))), twin B the descriptor
 * itself: sensed bits, both latches and injected-error counts must
 * match exactly. It runs once on Geometry::tiny(), whose 256-bit pages
 * the store keeps inline, and once on a page one word wider, where
 * twin A keeps dense payloads and twin B descriptors that materialize
 * per sense. The scale half instantiates a full Table-1 die, programs
 * under 1% of its pages procedurally, and pins the heap footprint —
 * the property that lets Table-1 drives run inside CTest.
 */

#include <gtest/gtest.h>

#include "nand/chip.h"
#include "reliability/error_injector.h"
#include "tests/support/command_corpus.h"
#include "util/rng.h"

namespace fcos::nand {
namespace {

/** A chip plus its own injector, so per-chip error state is isolated
 *  while both chips draw identical (page, sense) seeds. */
struct InjectedChip
{
    rel::VthModel model;
    rel::VthErrorInjector injector;
    NandChip chip;

    explicit InjectedChip(const Geometry &geom)
        : injector(model, rel::OperatingCondition{10000, 12.0, false}),
          chip(geom, Timings{}, &injector)
    {}
};

/** Program the same mixed page population on both twins: dense random
 *  payloads, procedural descriptors, inverted and checkered images.
 *  @p payload gets each image as its materialized payload,
 *  @p descriptor the image itself. */
void
programTwin(InjectedChip &payload, InjectedChip &descriptor,
            const Geometry &geom, std::uint64_t seed)
{
    const auto asPayload = [&geom](const PageImage &img) {
        return PageImage::dense(img.materialize(geom.pageBits()));
    };
    Rng rng = Rng::seeded(seed);
    for (std::uint32_t blk = 0; blk < geom.blocksPerPlane; ++blk) {
        for (std::uint32_t sb = 0; sb < geom.subBlocksPerBlock; ++sb) {
            for (std::uint32_t wl = 0; wl < geom.wordlinesPerSubBlock;
                 ++wl) {
                // ~60% of pages stay erased.
                if (rng.nextDouble() < 0.6)
                    continue;
                std::uint32_t plane = static_cast<std::uint32_t>(
                    rng.nextBounded(geom.planesPerDie));
                WordlineAddr addr{plane, blk, sb, wl};
                switch (rng.nextBounded(4)) {
                  case 0: { // dense payload
                    BitVector v(geom.pageBits());
                    v.randomize(rng);
                    payload.chip.programPageEsp(addr, v, EspParams{2.0});
                    descriptor.chip.programPageEsp(addr, v,
                                                   EspParams{2.0});
                    break;
                  }
                  case 1: { // procedural random descriptor
                    PageImage img = PageImage::random(rng.nextU64());
                    payload.chip.programPageEsp(addr, asPayload(img),
                                                EspParams{2.0});
                    descriptor.chip.programPageEsp(addr, img,
                                                   EspParams{2.0});
                    break;
                  }
                  case 2: { // inverted descriptor (De Morgan storage)
                    PageImage img =
                        PageImage::random(rng.nextU64()).inverted();
                    payload.chip.programPage(addr, asPayload(img));
                    descriptor.chip.programPage(addr, img);
                    break;
                  }
                  default: { // checkered worst-case pattern
                    PageImage img = PageImage::checkered(
                        rng.nextBounded(2) == 0);
                    payload.chip.programPage(addr, asPayload(img),
                                             ProgramMode::SlcRegular,
                                             true);
                    descriptor.chip.programPage(
                        addr, img, ProgramMode::SlcRegular, true);
                    break;
                  }
                }
            }
        }
    }
}

/** Program the mixed population on payload and descriptor twins of
 *  @p geom, run the shared MWS command corpus on both and require
 *  identical results and injected errors. */
void
expectCorpusSensesIdentically(const Geometry &geom)
{
    InjectedChip payload(geom);
    InjectedChip descriptor(geom);

    programTwin(payload, descriptor, geom, 99);
    ASSERT_EQ(payload.chip.cells().programmedPages(),
              descriptor.chip.cells().programmedPages());

    // The shared random command generator: same sequence of
    // well-formed MWS commands executed on both chips.
    Rng cmd_rng = Rng::seeded(1234);
    for (int i = 0; i < 200; ++i) {
        MwsCommand cmd = test::randomCommand(cmd_rng, geom);
        // An inverse read requires S-latch initialization.
        if (cmd.flags.inverseRead)
            cmd.flags.initSenseLatch = true;
        OpResult ra = payload.chip.executeMws(cmd);
        OpResult rb = descriptor.chip.executeMws(cmd);
        EXPECT_EQ(ra.latency, rb.latency);
        EXPECT_DOUBLE_EQ(ra.energyJ, rb.energyJ);
        ASSERT_EQ(payload.chip.dataOut(cmd.plane),
                  descriptor.chip.dataOut(cmd.plane))
            << "command " << i << " diverged";
        ASSERT_EQ(payload.chip.latches(cmd.plane).sense(),
                  descriptor.chip.latches(cmd.plane).sense())
            << "command " << i << " sense latch diverged";
    }

    // Identical injected-error accounting: every (page, sense) seed
    // must have drawn the same error positions on both twins.
    EXPECT_EQ(payload.injector.injectedErrors(),
              descriptor.injector.injectedErrors());
    EXPECT_EQ(payload.injector.sensedBits(),
              descriptor.injector.sensedBits());
    EXPECT_GT(payload.injector.injectedErrors(), 0u)
        << "the equivalence run never exercised the error model";
}

TEST(PageStoreEquivalenceTest, CorpusSensesIdenticallyFromPayloadOrDescriptor)
{
    expectCorpusSensesIdentically(Geometry::tiny());
}

TEST(PageStoreEquivalenceTest, WiderThanInlinePagesSenseIdentically)
{
    // One word wider than the inline window: the store keeps the
    // descriptors and takes the per-sense generator path. A kept
    // descriptor counts its entry's bookkeeping and no payload, so a
    // second page programmed as a dense payload adds exactly one entry
    // plus that payload's bytes.
    Geometry geom = Geometry::tiny();
    geom.pageBytes = 40;
    ASSERT_GT(geom.pageBits(), PageImage::kInlineBits);
    CellArray cells(geom);
    const PageImage img = PageImage::random(1);
    cells.program({0, 0, 0, 0}, img, PageMeta{});
    const std::size_t entry = cells.contentBytes();
    const PageImage dense = PageImage::dense(img.materialize(geom.pageBits()));
    ASSERT_GT(dense.heapBytes(), 0u);
    cells.program({0, 0, 0, 1}, dense, PageMeta{});
    EXPECT_EQ(cells.contentBytes(), 2 * entry + dense.heapBytes());
    EXPECT_EQ(cells.pageData({0, 0, 0, 0}), cells.pageData({0, 0, 0, 1}));
    expectCorpusSensesIdentically(geom);
}

TEST(PageStoreEquivalenceTest, ConductionMatchesFromPayloadOrDescriptor)
{
    const Geometry geom = Geometry::tiny();
    CellArray payload(geom);
    CellArray descriptor(geom);
    PageMeta meta;
    Rng rng = Rng::seeded(5);
    for (std::uint32_t wl = 0; wl < geom.wordlinesPerSubBlock; wl += 2) {
        PageImage img = PageImage::random(rng.nextU64(), 0.7);
        payload.program({0, 1, 0, wl},
                        PageImage::dense(img.materialize(geom.pageBits())),
                        meta);
        descriptor.program({0, 1, 0, wl}, img, meta);
    }
    std::vector<WlSelection> sels{{1, 0, 0b010101}, {1, 1, 0b1}};
    EXPECT_EQ(payload.senseConduction(0, sels, nullptr, 0),
              descriptor.senseConduction(0, sels, nullptr, 0));
}

TEST(PageStoreScaleTest, Table1ChipStaysUnderByteBudget)
{
    // A full Table-1 die with < 1% of its pages programmed must not
    // cost more than a pinned budget. Dense payloads for the same
    // population would be pages * 16 KiB (> 60 MiB); the descriptors
    // stay around a hundred bytes per page.
    const Geometry geom = Geometry::table1();
    NandChip chip(geom);

    const std::uint64_t total_pages =
        static_cast<std::uint64_t>(geom.planesPerDie) *
        geom.pagesPerPlane();
    const std::uint64_t target = total_pages / 128; // ~0.78%
    std::uint64_t programmed = 0;
    for (std::uint32_t blk = 0; blk < geom.blocksPerPlane &&
                                programmed < target; ++blk) {
        // First wordline of every string of every 2nd block, both planes.
        if (blk % 2)
            continue;
        for (std::uint32_t p = 0; p < geom.planesPerDie; ++p) {
            for (std::uint32_t sb = 0; sb < geom.subBlocksPerBlock;
                 ++sb) {
                chip.programPageEsp(
                    {p, blk, sb, 0},
                    PageImage::random(Rng::mix(3, programmed)),
                    EspParams{2.0});
                ++programmed;
            }
        }
    }
    ASSERT_GE(programmed, 4000u);
    EXPECT_LT(programmed, total_pages / 100); // < 1% programmed

    constexpr std::size_t kBudgetBytes = 4 * 1024 * 1024; // pinned
    EXPECT_LT(chip.cells().contentBytes(), kBudgetBytes);

    // Sensing a programmed string must not grow the store.
    MwsCommand cmd;
    cmd.plane = 0;
    cmd.selections.push_back(WlSelection{0, 0, 1});
    chip.executeMws(cmd);
    EXPECT_LT(chip.cells().contentBytes(), kBudgetBytes);

    // The same population programmed as payloads pays full pages: the
    // descriptor footprint must be at least 50x smaller than the
    // payload bytes alone.
    EXPECT_LT(chip.cells().contentBytes() * 50,
              programmed * geom.pageBytes);
}

TEST(PageImageTest, RandomImagesMatchSeededRandomize)
{
    // Pages of at most Mt19937_64::kMaxFirstOutputs words (156 words,
    // 9984 bits) take the MT19937-64 prefix path at p = 0.5; wider pages
    // and any other p take randomize(). The cell array calls this per
    // sense only for pages wider than PageImage::kInlineBits, and once
    // at program time for the rest. Every width must give exactly what
    // randomize() on a seeded Rng gives, tail bits included.
    for (std::size_t bits : {1u, 63u, 64u, 256u, 9984u, 9985u, 131072u}) {
        for (double p : {0.5, 0.98}) {
            for (std::uint64_t seed : {0ULL, 7ULL, 0xDEADBEEFCAFEULL}) {
                BitVector want(bits);
                Rng rng = Rng::seeded(seed);
                want.randomize(rng, p);
                const PageImage img = PageImage::random(seed, p);
                EXPECT_EQ(img.materialize(bits), want)
                    << "bits=" << bits << " p=" << p << " seed=" << seed;
                EXPECT_EQ(img.inverted().materialize(bits), ~want)
                    << "bits=" << bits << " p=" << p << " seed=" << seed;
            }
        }
    }
}

TEST(PageImageTest, InlineImagesMatchSeededRandomize)
{
    // Every width the inline window holds, both polarities, whichever
    // side of inlined() the inversion is applied on.
    for (std::size_t bits = 1; bits <= PageImage::kInlineBits; ++bits) {
        for (double p : {0.5, 0.98}) {
            const std::uint64_t seed = Rng::mix(bits, p == 0.5);
            BitVector want(bits);
            Rng rng = Rng::seeded(seed);
            want.randomize(rng, p);
            const PageImage img = PageImage::random(seed, p);
            const PageImage in = img.inlined(bits);
            ASSERT_EQ(in.kind(), PageImage::Kind::Inline);
            EXPECT_EQ(in.materialize(bits), want)
                << "bits=" << bits << " p=" << p;
            EXPECT_EQ(in.inverted().materialize(bits), ~want)
                << "bits=" << bits << " p=" << p;
            EXPECT_EQ(img.inverted().inlined(bits).materialize(bits), ~want)
                << "bits=" << bits << " p=" << p;
        }
    }
}

TEST(PageImageTest, InlineImagesHoldNoHeap)
{
    const std::size_t bits = Geometry::tiny().pageBits();
    BitVector v(bits);
    Rng rng = Rng::seeded(2);
    v.randomize(rng);
    const PageImage dense = PageImage::dense(v);
    EXPECT_GT(dense.heapBytes(), 0u);
    for (const PageImage &img :
         {PageImage::random(3), PageImage::fill(false),
          PageImage::checkered(), dense, dense.inverted()}) {
        const PageImage in = img.inlined(bits);
        EXPECT_EQ(in.heapBytes(), 0u);
        EXPECT_EQ(in.payloadId(), nullptr);
        EXPECT_EQ(in.materialize(bits), img.materialize(bits));
    }

    // A GC copyback programs the destination from the latched page
    // (a dense image); on a tiny chip it adds only its entry's
    // bookkeeping, the same bytes as a procedural page.
    const Geometry geom = Geometry::tiny();
    CellArray one(geom);
    one.program({0, 0, 0, 0}, PageImage::random(4), PageMeta{});
    const std::size_t entry = one.contentBytes();
    NandChip chip(geom);
    chip.programPageEsp({0, 1, 0, 0}, v, EspParams{2.0});
    EXPECT_EQ(chip.cells().contentBytes(), entry);
    chip.copyback({0, 1, 0, 0}, {0, 2, 0, 0});
    EXPECT_EQ(chip.cells().contentBytes(), 2 * entry);
    EXPECT_EQ(chip.cells().pageData({0, 2, 0, 0}), v);
}

TEST(PageImageTest, CopiesAndAssignmentsKeepContent)
{
    // Each kind shares the descriptor's bytes with the others, so copy,
    // move and assignment across kinds must carry the content whole.
    const std::size_t bits = Geometry::tiny().pageBits();
    BitVector v(bits);
    Rng rng = Rng::seeded(6);
    v.randomize(rng);
    const std::vector<PageImage> kinds{
        PageImage::fill(false), PageImage::random(7, 0.3),
        PageImage::checkered(false), PageImage::dense(v),
        PageImage::random(8).inlined(bits).inverted()};
    for (const PageImage &from : kinds) {
        const BitVector want = from.materialize(bits);
        for (const PageImage &to : kinds) {
            PageImage copy = to;
            copy = from;
            EXPECT_EQ(copy.materialize(bits), want);
            PageImage moved = to;
            moved = PageImage(copy);
            EXPECT_EQ(moved.materialize(bits), want);
            EXPECT_EQ(PageImage(std::move(moved)).materialize(bits), want);
        }
    }
}

TEST(PageStoreScaleTest, BroadcastCopiesShareOnePayload)
{
    // CoW dense images: N broadcast copies of one page must account
    // roughly one payload, not N.
    const Geometry geom = Geometry::table1();
    CellArray cells(geom);
    PageMeta meta;
    BitVector payload(geom.pageBits());
    Rng rng = Rng::seeded(8);
    payload.randomize(rng);
    auto shared = std::make_shared<const BitVector>(std::move(payload));

    const std::uint32_t copies = 64;
    for (std::uint32_t i = 0; i < copies; ++i)
        cells.program({0, i, 0, 0}, PageImage::shared(shared), meta);

    EXPECT_EQ(cells.programmedPages(), copies);
    // One payload (16 KiB) + per-entry bookkeeping, far below
    // copies * pageBytes = 1 MiB.
    EXPECT_LT(cells.contentBytes(), 2 * geom.pageBytes + copies * 256);
    EXPECT_EQ(cells.pageData({0, 5, 0, 0}), *shared);
}

} // namespace
} // namespace fcos::nand
