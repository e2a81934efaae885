/**
 * @file
 * ResultSink backends and the dense-vs-streamed read certification.
 *
 * The unit half pins each sink's contract (dense collection with a
 * partial tail, order-sensitive digests, popcount folds, the sparse
 * comparator, tee fan-out). The drive half certifies the tentpole
 * claim: over a corpus of expression shapes (AND / OR De Morgan /
 * wide OR / NAND / XOR / KCS fusion / the serial-read fallback), a
 * streamed fcRead on one drive delivers bit-exactly the payload the
 * dense BitVector API returns on an identically seeded twin drive,
 * with identical stats, makespan, and energy — with the V_TH error
 * model attached, so the error-seed path is covered too.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/drive.h"
#include "core/result_sink.h"
#include "reliability/error_injector.h"
#include "reliability/vth_model.h"
#include "tests/support/fnv_reference.h"
#include "tests/support/random_fixture.h"

namespace fcos::core {
namespace {

BitVector
patternVec(std::size_t bits, std::uint64_t seed)
{
    Rng rng = Rng::seeded(seed);
    return test::randomVec(rng, bits);
}

ResultChunk
chunkOf(std::uint64_t index, std::uint64_t page_bits,
        std::uint64_t bits, const BitVector &page)
{
    return ResultChunk{index, index * page_bits, bits, page,
                       PageSummary::of(page, bits)};
}

TEST(ResultSinkTest, DenseCollectReassemblesWithPartialTail)
{
    const std::uint64_t page_bits = 64;
    BitVector v = patternVec(150, 7); // 2 full pages + 22-bit tail
    DenseCollectSink sink;
    sink.begin(StreamShape{3, page_bits, v.size()});
    for (std::uint64_t j = 0; j < 3; ++j) {
        std::uint64_t len = std::min<std::uint64_t>(
            page_bits, v.size() - j * page_bits);
        BitVector page(page_bits, true); // padding must not leak
        page.paste(0, v.slice(j * page_bits, len));
        sink.consume(chunkOf(j, page_bits, len, page));
    }
    sink.end();
    EXPECT_EQ(sink.result(), v);
}

TEST(ResultSinkTest, DigestIsOrderAndContentSensitive)
{
    const std::uint64_t page_bits = 64;
    BitVector a = patternVec(128, 1);
    BitVector b = patternVec(128, 2);
    EXPECT_EQ(DigestSink::digestOf(a, page_bits),
              DigestSink::digestOf(a, page_bits));
    EXPECT_NE(DigestSink::digestOf(a, page_bits),
              DigestSink::digestOf(b, page_bits));

    // Swapping two chunks changes the digest (order sensitivity).
    BitVector p0 = a.slice(0, 64), p1 = a.slice(64, 64);
    DigestSink in_order, swapped;
    in_order.consume(chunkOf(0, page_bits, 64, p0));
    in_order.consume(chunkOf(1, page_bits, 64, p1));
    swapped.consume(chunkOf(0, page_bits, 64, p1));
    swapped.consume(chunkOf(1, page_bits, 64, p0));
    EXPECT_NE(in_order.digest(), swapped.digest());
    EXPECT_EQ(in_order.digest(), DigestSink::digestOf(a, page_bits));

    // Padding beyond the valid bits must not affect the digest.
    BitVector padded(page_bits, true);
    padded.paste(0, a.slice(0, 22));
    BitVector zeros(page_bits, false);
    zeros.paste(0, a.slice(0, 22));
    DigestSink d1, d2;
    d1.consume(chunkOf(0, page_bits, 22, padded));
    d2.consume(chunkOf(0, page_bits, 22, zeros));
    EXPECT_EQ(d1.digest(), d2.digest());
}

TEST(ResultSinkTest, DigestOfTable1PagesMatchesTheReference)
{
    // A page's digest is the reference digest of its valid bits packed
    // into words (result bit 64w + i is bit i of word w), the bits past
    // the valid ones read as 0, with the bit count as the length. The
    // stream digest is one fnvStep() per page digest from the offset
    // basis, in page order. Checked on a full Table-1 page (131072
    // bits) and a 131050-bit tail, bit by bit from get(); the page
    // summaries also count the valid '1' bits.
    const std::uint64_t page_bits = 131072;
    const BitVector full = patternVec(page_bits, 11);
    const BitVector tail = patternVec(page_bits, 12);
    auto page_digest = [](const BitVector &page, std::uint64_t bits) {
        std::vector<std::uint64_t> words((bits + 63) / 64, 0);
        for (std::uint64_t i = 0; i < bits; ++i)
            words[i / 64] |= std::uint64_t{page.get(i)} << (i % 64);
        return test::fnvReference(words, bits);
    };
    const std::uint64_t want =
        fnvStep(fnvStep(kFnvOffset, page_digest(full, page_bits)),
                page_digest(tail, 131050));

    const ResultChunk c0 = chunkOf(0, page_bits, page_bits, full);
    const ResultChunk c1 = chunkOf(1, page_bits, 131050, tail);
    EXPECT_EQ(c0.summary.digest, page_digest(full, page_bits));
    EXPECT_EQ(c1.summary.digest, page_digest(tail, 131050));
    EXPECT_EQ(c0.summary.ones, full.popcount());
    EXPECT_EQ(c1.summary.ones, tail.slice(0, 131050).popcount());
    DigestSink sink;
    sink.consume(c0);
    sink.consume(c1);
    EXPECT_EQ(sink.digest(), want);
}

TEST(ResultSinkTest, PopcountFoldsValidBitsOnly)
{
    const std::uint64_t page_bits = 64;
    BitVector v = patternVec(100, 3);
    PopcountSink sink;
    BitVector p0 = v.slice(0, 64);
    BitVector p1(page_bits, true); // tail padding is all-ones
    p1.paste(0, v.slice(64, 36));
    sink.consume(chunkOf(0, page_bits, 64, p0));
    sink.consume(chunkOf(1, page_bits, 36, p1));
    EXPECT_EQ(sink.bits(), 100u);
    EXPECT_EQ(sink.ones(), v.popcount());
}

TEST(ResultSinkTest, SparseCompareFlagsTheFirstMismatch)
{
    const std::uint64_t page_bits = 64;
    auto gen = [](std::uint64_t j) {
        return nand::PageImage::random(Rng::mix(17, j));
    };
    SparseCompareSink sink = SparseCompareSink::fromImages(gen);
    sink.begin(StreamShape{3, page_bits, 3 * page_bits});
    for (std::uint64_t j = 0; j < 3; ++j) {
        BitVector page = gen(j).materialize(page_bits);
        if (j == 1)
            page.set(5, !page.get(5)); // inject one wrong bit
        sink.consume(chunkOf(j, page_bits, page_bits, page));
    }
    sink.end();
    EXPECT_EQ(sink.pagesChecked(), 3u);
    EXPECT_EQ(sink.mismatchedPages(), 1u);
    EXPECT_EQ(sink.firstMismatch(), 1u);
    EXPECT_FALSE(sink.allMatched());
}

TEST(ResultSinkTest, TeeFansOutToEverySink)
{
    const std::uint64_t page_bits = 64;
    BitVector v = patternVec(128, 9);
    DenseCollectSink dense;
    DigestSink digest;
    PopcountSink pop;
    TeeSink tee({&dense, &digest, &pop});
    tee.begin(StreamShape{2, page_bits, v.size()});
    for (std::uint64_t j = 0; j < 2; ++j) {
        BitVector page = v.slice(j * page_bits, page_bits);
        tee.consume(chunkOf(j, page_bits, page_bits, page));
    }
    tee.end();
    EXPECT_EQ(dense.result(), v);
    EXPECT_EQ(digest.digest(), DigestSink::digestOf(v, page_bits));
    EXPECT_EQ(pop.ones(), v.popcount());
}

TEST(ResultSinkTest, OnlySummarySinksDeclineThePages)
{
    DenseCollectSink dense;
    DigestSink digest;
    PopcountSink pop;
    ChunkCallbackSink callback([](const ResultChunk &) {});
    SparseCompareSink compare(
        [](std::uint64_t, std::uint64_t bits) { return BitVector(bits); });
    EXPECT_TRUE(dense.wantsPages());
    EXPECT_FALSE(digest.wantsPages());
    EXPECT_FALSE(pop.wantsPages());
    EXPECT_TRUE(callback.wantsPages());
    EXPECT_TRUE(compare.wantsPages());
    // A tee wants pages iff one of its sinks does.
    EXPECT_FALSE(TeeSink({&digest, &pop}).wantsPages());
    EXPECT_TRUE(TeeSink({&digest, &dense, &pop}).wantsPages());
    EXPECT_TRUE(TeeSink({&pop, &callback}).wantsPages());
    EXPECT_FALSE(TeeSink({}).wantsPages());
}

TEST(ResultSinkTest, SummarySinksFoldEmptyPagesLikeFullOnes)
{
    // What a summary-only read hands them: the summary with no page.
    const std::uint64_t page_bits = 64;
    BitVector v = patternVec(100, 5);
    DigestSink digest;
    PopcountSink pop;
    TeeSink tee({&digest, &pop});
    const BitVector none;
    for (std::uint64_t j = 0; j < 2; ++j) {
        const std::uint64_t bits = std::min<std::uint64_t>(
            page_bits, v.size() - j * page_bits);
        const BitVector page = v.slice(j * page_bits, bits);
        tee.consume(ResultChunk{j, j * page_bits, bits, none,
                                PageSummary::of(page, bits)});
    }
    EXPECT_EQ(digest.digest(), DigestSink::digestOf(v, page_bits));
    EXPECT_EQ(pop.ones(), v.popcount());
    EXPECT_EQ(pop.bits(), v.size());
}

// ---------------------------------------------------------------------
// Dense vs streamed drive reads.

/** A drive with its own attached error injector, so twin instances
 *  draw identical (page, sense) error seeds independently. */
struct InjectedDrive
{
    rel::VthModel model;
    rel::VthErrorInjector injector;
    FlashCosmosDrive drive;

    explicit InjectedDrive(const FlashCosmosDrive::Config &cfg)
        : injector(model, rel::OperatingCondition{3000, 3.0, false}),
          drive(cfg)
    {
        drive.setErrorInjector(&injector);
    }
};

/** The expression corpus: built identically on every twin drive. */
struct Corpus
{
    std::vector<Expr> exprs;
    std::vector<const char *> names;
    VectorId plain_a = 0; ///< for readVector checks
};

Corpus
buildCorpus(FlashCosmosDrive &drive, std::size_t bits)
{
    Corpus c;
    FlashCosmosDrive::WriteOptions plain;
    plain.group = 1;
    FlashCosmosDrive::WriteOptions inv;
    inv.group = 2;
    inv.storeInverted = true;

    Expr a = Expr::leaf(drive.fcWrite(patternVec(bits, 100), plain));
    Expr b = Expr::leaf(drive.fcWrite(patternVec(bits, 101), plain));
    Expr e = Expr::leaf(drive.fcWrite(patternVec(bits, 102), plain));
    c.plain_a = a.id();

    std::vector<Expr> ors;
    for (std::uint64_t i = 0; i < 12; ++i)
        ors.push_back(Expr::leaf(
            drive.fcWrite(patternVec(bits, 200 + i), inv)));

    // KCS fusion: AND group in group 1, the OR rider in its own group.
    FlashCosmosDrive::WriteOptions rider;
    rider.group = 3;
    Expr clique = Expr::leaf(drive.fcWrite(patternVec(bits, 300), rider));

    // Two deep AND chains (each spans sub-blocks) cannot share the one
    // latch accumulator: the planner falls back to serial reads.
    FlashCosmosDrive::WriteOptions g4, g5;
    g4.group = 4;
    g5.group = 5;
    std::vector<Expr> deep1, deep2;
    for (std::uint64_t i = 0; i < 12; ++i) {
        deep1.push_back(Expr::leaf(
            drive.fcWrite(patternVec(bits, 400 + i), g4)));
        deep2.push_back(Expr::leaf(
            drive.fcWrite(patternVec(bits, 500 + i), g5)));
    }

    c.exprs = {
        Expr::And({a, b, e}),
        Expr::Or({ors[0], ors[1], ors[2]}),
        Expr::Or(std::vector<Expr>(ors.begin(), ors.end())),
        Expr::Nand({a, b}),
        Expr::Xor(b, e),
        Expr::Or({Expr::And({a, b}), clique}),
        Expr::Or({Expr::And(deep1), Expr::And(deep2)}), // fallback
    };
    c.names = {"AND3", "OR3", "OR12", "NAND2", "XOR2", "KCS", "FALLBACK"};
    return c;
}

FlashCosmosDrive::Config
twinConfig()
{
    FlashCosmosDrive::Config cfg;
    cfg.channels = 2;
    cfg.dies = 2;
    return cfg;
}

TEST(StreamedReadEquivalenceTest, CorpusPayloadsAndTimelinesMatch)
{
    const std::size_t bits =
        nand::Geometry::tiny().pageBits() * 8; // 8 pages per vector
    InjectedDrive dense_drive(twinConfig());
    InjectedDrive streamed_drive(twinConfig());
    Corpus dense_corpus = buildCorpus(dense_drive.drive, bits);
    Corpus streamed_corpus = buildCorpus(streamed_drive.drive, bits);
    const std::uint64_t page_bits =
        nand::Geometry::tiny().pageBits();

    for (std::size_t i = 0; i < dense_corpus.exprs.size(); ++i) {
        SCOPED_TRACE(dense_corpus.names[i]);
        FlashCosmosDrive::ReadStats ds, ss;
        BitVector dense =
            dense_drive.drive.fcRead(dense_corpus.exprs[i], &ds);

        DenseCollectSink collect;
        DigestSink digest;
        PopcountSink pop;
        std::vector<std::uint64_t> order;
        ChunkCallbackSink watcher([&order](const ResultChunk &chunk) {
            order.push_back(chunk.index);
        });
        TeeSink tee({&collect, &digest, &pop, &watcher});
        streamed_drive.drive.fcRead(streamed_corpus.exprs[i], tee, &ss);

        // Bit-exact payloads, even through the error model.
        EXPECT_EQ(collect.result(), dense);
        EXPECT_EQ(digest.digest(),
                  DigestSink::digestOf(dense, page_bits));
        EXPECT_EQ(pop.ones(), dense.popcount());

        // Chunks in strictly increasing page order.
        ASSERT_EQ(order.size(), ss.streamChunks);
        for (std::size_t j = 0; j < order.size(); ++j)
            EXPECT_EQ(order[j], j);

        // Identical command accounting and timeline.
        EXPECT_EQ(ds.planKind, ss.planKind);
        EXPECT_EQ(ds.mwsCommands, ss.mwsCommands);
        EXPECT_EQ(ds.senses, ss.senses);
        EXPECT_EQ(ds.pageReads, ss.pageReads);
        EXPECT_EQ(ds.resultPages, ss.resultPages);
        EXPECT_EQ(ds.makespan, ss.makespan);
        EXPECT_EQ(ds.nandEnergyJ, ss.nandEnergyJ);
    }

    // The twin drives executed identical work: one unified ledger.
    EXPECT_EQ(dense_drive.drive.engine().totalEnergyJ(),
              streamed_drive.drive.engine().totalEnergyJ());
    EXPECT_EQ(dense_drive.drive.engine().now(),
              streamed_drive.drive.engine().now());

    // readVector equivalence over the streamed path.
    FlashCosmosDrive::ReadStats rs;
    BitVector direct =
        dense_drive.drive.readVector(dense_corpus.plain_a);
    DenseCollectSink collect;
    streamed_drive.drive.readVector(streamed_corpus.plain_a, collect,
                                    &rs);
    EXPECT_EQ(collect.result(), direct);
    EXPECT_EQ(rs.streamChunks, rs.resultPages);
}

TEST(StreamedReadEquivalenceTest, ComparatorVerifiesProceduralRead)
{
    // fcWritePages + AND through the sparse comparator: the streaming
    // verification path the beyond-DRAM tier uses, here at unit scale
    // (no error injector: ESP at these conditions is exact, but the
    // unit tier keeps the oracle trivial).
    FlashCosmosDrive drive(twinConfig());
    const std::uint64_t pages = 16;
    auto gen = [](std::uint64_t vec) {
        return [vec](std::uint64_t j) {
            return nand::PageImage::random(Rng::mix(600 + vec, j));
        };
    };
    FlashCosmosDrive::WriteOptions group;
    group.group = 1;
    VectorId a = drive.fcWritePages(gen(0), pages, group);
    VectorId b = drive.fcWritePages(gen(1), pages, group);

    SparseCompareSink cmp(
        [&](std::uint64_t j, std::uint64_t bits) {
            BitVector ref = gen(0)(j).materialize(bits);
            ref &= gen(1)(j).materialize(bits);
            return ref;
        });
    FlashCosmosDrive::ReadStats st;
    drive.fcRead(Expr::And({Expr::leaf(a), Expr::leaf(b)}), cmp, &st);
    EXPECT_TRUE(cmp.allMatched());
    EXPECT_EQ(cmp.pagesChecked(), pages);
    EXPECT_EQ(st.streamChunks, pages);
    // The re-ordering window stays far below the result size.
    EXPECT_LT(st.streamPeakPages, pages);
}

} // namespace
} // namespace fcos::core
