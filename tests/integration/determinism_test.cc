/**
 * @file
 * Determinism guarantees: the whole library promises "same seed =>
 * identical results" so every experiment is reproducible. These tests
 * pin that contract across the RNG core, the data randomizer, and the
 * command-codec fuzz generator (whose corpus is additionally pinned on
 * disk under tests/data/).
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/drive.h"
#include "nand/command.h"
#include "obs/obs.h"
#include "reliability/error_injector.h"
#include "reliability/randomizer.h"
#include "reliability/vth_model.h"
#include "tests/support/command_corpus.h"
#include "tests/support/random_fixture.h"

namespace fcos {
namespace {

TEST(DeterminismTest, RngSameSeedSameStream)
{
    Rng a = Rng::seeded(2026);
    Rng b = Rng::seeded(2026);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.nextU64(), b.nextU64()) << "diverged at draw " << i;
    for (int i = 0; i < 100; ++i) {
        ASSERT_EQ(a.nextDouble(), b.nextDouble());
        ASSERT_EQ(a.nextBounded(97), b.nextBounded(97));
        ASSERT_EQ(a.gaussian(0.0, 1.0), b.gaussian(0.0, 1.0));
    }
}

TEST(DeterminismTest, RngForkIsDeterministicAndDecorrelated)
{
    Rng parent1 = Rng::seeded(7);
    Rng parent2 = Rng::seeded(7);
    // Forking never draws from the parent, so fork order/count cannot
    // perturb sibling streams.
    parent1.nextU64();

    Rng c1 = parent1.fork(3);
    Rng c2 = parent2.fork(3);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(c1.nextU64(), c2.nextU64());

    Rng other = parent2.fork(4);
    EXPECT_NE(parent2.fork(3).nextU64(), other.nextU64());
}

TEST(DeterminismTest, BitVectorRandomizeSameSeedSameBits)
{
    Rng a = Rng::seeded(11), b = Rng::seeded(11);
    BitVector va(4096), vb(4096);
    va.randomize(a);
    vb.randomize(b);
    EXPECT_EQ(va, vb);
}

TEST(DeterminismTest, RandomizerKeystreamIsPureFunctionOfSeeds)
{
    rel::Randomizer r1(/*device_seed=*/0xABCDEF);
    rel::Randomizer r2(/*device_seed=*/0xABCDEF);
    for (std::uint64_t page = 0; page < 16; ++page)
        for (std::size_t w = 0; w < 8; ++w)
            ASSERT_EQ(r1.keystreamWord(page, w),
                      r2.keystreamWord(page, w));

    Rng rng = Rng::seeded(1);
    BitVector page = test::randomVec(rng, 2048);
    BitVector copy = page;
    r1.apply(page, 9);
    r2.apply(copy, 9);
    EXPECT_EQ(page, copy);

    rel::Randomizer other(/*device_seed=*/0xABCDF0);
    EXPECT_NE(other.keystreamWord(0, 0), r1.keystreamWord(0, 0));
}

TEST(DeterminismTest, FuzzCommandGeneratorIsSeedStable)
{
    // The codec fuzz suite draws its inputs from randomCommand; if two
    // equal-seeded generators ever diverged, fuzz failures would be
    // unreproducible.
    nand::Geometry geom = nand::Geometry::table1();
    Rng a = Rng::seeded(31), b = Rng::seeded(31);
    for (int i = 0; i < 200; ++i) {
        nand::MwsCommand ca = test::randomCommand(a, geom);
        nand::MwsCommand cb = test::randomCommand(b, geom);
        ASSERT_EQ(ca, cb) << "generator diverged at command " << i;
        ASSERT_EQ(nand::encodeMws(geom, ca), nand::encodeMws(geom, cb));
    }
}

/**
 * One full engine run: write operands, compute three expressions, and
 * return everything an experiment would record — result bits, command
 * counts, the event-driven timeline, and the unified energy ledger.
 */
struct EngineRun
{
    BitVector and_result, or_result, xor_result;
    std::uint64_t mwsCommands = 0;
    Time makespan = 0;
    Time queueTime = 0;
    std::vector<Time> dieBusy;
    std::vector<Time> planeBusy;
    std::vector<Time> channelBusy;
    std::uint64_t events = 0;
    double energyJ = 0.0;
};

EngineRun
runEngineWorkload(std::uint64_t seed, std::uint32_t channels,
                  std::uint32_t dies, std::uint32_t planes_per_die = 2,
                  std::uint32_t workers = 0)
{
    core::FlashCosmosDrive::Config cfg;
    cfg.channels = channels;
    cfg.dies = dies;
    cfg.geometry.planesPerDie = planes_per_die;
    cfg.workers = workers;
    core::FlashCosmosDrive drive(cfg);
    rel::VthModel model;
    rel::VthErrorInjector inj(model,
                              rel::OperatingCondition{3000, 3.0, false});
    drive.setErrorInjector(&inj);

    Rng rng = Rng::seeded(seed);
    core::FlashCosmosDrive::WriteOptions group;
    group.group = 1;
    std::size_t bits = cfg.geometry.pageBits() * 8;
    core::Expr a = core::Expr::leaf(
        drive.fcWrite(test::randomVec(rng, bits), group));
    core::Expr b = core::Expr::leaf(
        drive.fcWrite(test::randomVec(rng, bits), group));
    core::Expr c = core::Expr::leaf(
        drive.fcWrite(test::randomVec(rng, bits), group));

    EngineRun run;
    core::FlashCosmosDrive::ReadStats stats;
    run.and_result = drive.fcRead(core::Expr::And({a, b, c}), &stats);
    run.mwsCommands = stats.mwsCommands;
    run.makespan = stats.makespan;
    run.or_result = drive.fcRead(core::Expr::Nand({a, b}));
    run.xor_result = drive.fcRead(core::Expr::Xor(b, c));

    const engine::ComputeEngine &eng = drive.engine();
    run.queueTime = eng.now();
    for (std::uint32_t d = 0; d < eng.farm().dieCount(); ++d) {
        run.dieBusy.push_back(eng.dieBusyTime(d));
        for (std::uint32_t p = 0; p < planes_per_die; ++p)
            run.planeBusy.push_back(eng.planeBusyTime(d, p));
    }
    for (std::uint32_t ch = 0; ch < eng.farm().channelCount(); ++ch)
        run.channelBusy.push_back(eng.channelBusyTime(ch));
    run.events = eng.scheduler().queue().executed();
    run.energyJ = eng.totalEnergyJ();
    return run;
}

TEST(DeterminismTest, EngineSameSeedSameDieCountSameEverything)
{
    // The multi-die engine promises: same seed + same farm shape =>
    // identical results, identical event-driven timeline, identical
    // energy ledger. Interleaving across dies must be a pure function
    // of the submitted work.
    for (auto [channels, dies] :
         {std::pair<std::uint32_t, std::uint32_t>{1, 2},
          {2, 2},
          {2, 4}}) {
        EngineRun r1 = runEngineWorkload(1234, channels, dies);
        EngineRun r2 = runEngineWorkload(1234, channels, dies);
        ASSERT_EQ(r1.and_result, r2.and_result);
        ASSERT_EQ(r1.or_result, r2.or_result);
        ASSERT_EQ(r1.xor_result, r2.xor_result);
        EXPECT_EQ(r1.mwsCommands, r2.mwsCommands);
        EXPECT_EQ(r1.makespan, r2.makespan);
        EXPECT_EQ(r1.queueTime, r2.queueTime);
        EXPECT_EQ(r1.dieBusy, r2.dieBusy);
        EXPECT_EQ(r1.planeBusy, r2.planeBusy);
        EXPECT_EQ(r1.channelBusy, r2.channelBusy);
        EXPECT_EQ(r1.events, r2.events);
        EXPECT_EQ(r1.energyJ, r2.energyJ);
    }
}

TEST(DeterminismTest, PlaneParallelEngineSameSeedSameTimeline)
{
    // Planes of one die execute concurrently; the interleaving must
    // still be a pure function of the submitted work. Four planes per
    // die stresses the per-plane facilities beyond the default two.
    for (std::uint32_t planes : {2u, 4u}) {
        EngineRun r1 = runEngineWorkload(4321, 2, 2, planes);
        EngineRun r2 = runEngineWorkload(4321, 2, 2, planes);
        ASSERT_EQ(r1.and_result, r2.and_result);
        ASSERT_EQ(r1.or_result, r2.or_result);
        ASSERT_EQ(r1.xor_result, r2.xor_result);
        EXPECT_EQ(r1.makespan, r2.makespan);
        EXPECT_EQ(r1.planeBusy, r2.planeBusy);
        EXPECT_EQ(r1.channelBusy, r2.channelBusy);
        EXPECT_EQ(r1.events, r2.events);
        EXPECT_EQ(r1.energyJ, r2.energyJ);
    }
}

TEST(DeterminismTest, EngineResultsStableAcrossDieCounts)
{
    // Bit results are also farm-shape independent (the sharding
    // contract); only the timeline changes with the layout.
    EngineRun narrow = runEngineWorkload(77, 1, 1);
    EngineRun wide = runEngineWorkload(77, 2, 4);
    EXPECT_EQ(narrow.and_result, wide.and_result);
    EXPECT_EQ(narrow.or_result, wide.or_result);
    EXPECT_EQ(narrow.xor_result, wide.xor_result);
}

TEST(DeterminismTest, EngineResultsStableAcrossPlaneCounts)
{
    // Per-plane sense counters make every plane's error sequence a
    // pure function of its own op order, so plane count cannot
    // perturb the computed bits either.
    EngineRun two = runEngineWorkload(78, 1, 2, 2);
    EngineRun four = runEngineWorkload(78, 1, 2, 4);
    EXPECT_EQ(two.and_result, four.and_result);
    EXPECT_EQ(two.or_result, four.or_result);
    EXPECT_EQ(two.xor_result, four.xor_result);
}

TEST(DeterminismTest, EngineWorkerCountCannotPerturbAnything)
{
    // The parallel scheduler's whole contract: host worker lanes are a
    // throughput knob, not a semantics knob. Every observable — result
    // bits, timeline, per-facility busy times, event count, the energy
    // ledger's FP accumulation — is bit-for-bit identical at 1, 2, 3,
    // and 4 workers.
    EngineRun serial = runEngineWorkload(909, 2, 4, 2, /*workers=*/1);
    for (std::uint32_t workers : {2u, 3u, 4u}) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        EngineRun run = runEngineWorkload(909, 2, 4, 2, workers);
        ASSERT_EQ(run.and_result, serial.and_result);
        ASSERT_EQ(run.or_result, serial.or_result);
        ASSERT_EQ(run.xor_result, serial.xor_result);
        EXPECT_EQ(run.mwsCommands, serial.mwsCommands);
        EXPECT_EQ(run.makespan, serial.makespan);
        EXPECT_EQ(run.queueTime, serial.queueTime);
        EXPECT_EQ(run.dieBusy, serial.dieBusy);
        EXPECT_EQ(run.planeBusy, serial.planeBusy);
        EXPECT_EQ(run.channelBusy, serial.channelBusy);
        EXPECT_EQ(run.events, serial.events);
        EXPECT_EQ(run.energyJ, serial.energyJ);
    }
}

TEST(DeterminismTest, TraceDigestWorkerCountInvariant)
{
    // The observability layer rides the same contract: spans are
    // recorded only in serial/commit-phase contexts, so the exported
    // trace JSON — certified by its digest — is bit-identical
    // at any worker count. (Queue-shape *metrics* are allowed to vary
    // with workers; that is why the capture is trace-only.)
    std::uint64_t serial_digest = 0;
    {
        obs::ScopedCapture cap(/*trace=*/true, /*metrics=*/false);
        runEngineWorkload(909, 2, 4, 2, /*workers=*/1);
        EXPECT_GT(cap.tracer().events(), 0u);
        serial_digest = cap.traceDigest();
    }
    for (std::uint32_t workers : {2u, 4u}) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        obs::ScopedCapture cap(/*trace=*/true, /*metrics=*/false);
        runEngineWorkload(909, 2, 4, 2, workers);
        EXPECT_EQ(cap.traceDigest(), serial_digest);
    }
}

/** One streamed read: chunk arrival order plus the stream digest. */
struct StreamedRead
{
    std::vector<std::uint64_t> order;
    std::uint64_t digest = 0;
    std::uint64_t denseDigest = 0; ///< digest of the dense return
    std::uint64_t peakPages = 0;
};

StreamedRead
runStreamedWorkload(std::uint64_t seed, std::uint32_t channels,
                    std::uint32_t dies, std::uint32_t planes_per_die,
                    std::uint32_t workers = 0)
{
    core::FlashCosmosDrive::Config cfg;
    cfg.channels = channels;
    cfg.dies = dies;
    cfg.geometry.planesPerDie = planes_per_die;
    cfg.workers = workers;
    core::FlashCosmosDrive drive(cfg);
    rel::VthModel model;
    rel::VthErrorInjector inj(model,
                              rel::OperatingCondition{3000, 3.0, false});
    drive.setErrorInjector(&inj);

    Rng rng = Rng::seeded(seed);
    core::FlashCosmosDrive::WriteOptions group;
    group.group = 1;
    std::size_t bits = cfg.geometry.pageBits() * 8;
    core::Expr a = core::Expr::leaf(
        drive.fcWrite(test::randomVec(rng, bits), group));
    core::Expr b = core::Expr::leaf(
        drive.fcWrite(test::randomVec(rng, bits), group));
    core::Expr c = core::Expr::leaf(
        drive.fcWrite(test::randomVec(rng, bits), group));
    core::Expr expr = core::Expr::And({a, b, c});

    StreamedRead run;
    core::DigestSink digest;
    core::ChunkCallbackSink watcher(
        [&run](const core::ResultChunk &chunk) {
            run.order.push_back(chunk.index);
        });
    core::TeeSink tee({&digest, &watcher});
    core::FlashCosmosDrive::ReadStats st;
    drive.fcRead(expr, tee, &st);
    run.digest = digest.digest();
    run.peakPages = st.streamPeakPages;

    // Twin drive, same seed: the dense return must carry the same
    // bits the stream delivered.
    core::FlashCosmosDrive::Config cfg2 = cfg;
    core::FlashCosmosDrive twin(cfg2);
    rel::VthModel model2;
    rel::VthErrorInjector inj2(model2,
                               rel::OperatingCondition{3000, 3.0, false});
    twin.setErrorInjector(&inj2);
    Rng rng2 = Rng::seeded(seed);
    core::Expr ta = core::Expr::leaf(
        twin.fcWrite(test::randomVec(rng2, bits), group));
    core::Expr tb = core::Expr::leaf(
        twin.fcWrite(test::randomVec(rng2, bits), group));
    core::Expr tc = core::Expr::leaf(
        twin.fcWrite(test::randomVec(rng2, bits), group));
    run.denseDigest = core::DigestSink::digestOf(
        twin.fcRead(core::Expr::And({ta, tb, tc})),
        cfg.geometry.pageBits());
    return run;
}

TEST(DeterminismTest, StreamedChunkOrderAndDigestAreShapeInvariant)
{
    // The sink contract: chunks arrive in strictly increasing page
    // order, and the stream digest — payload *and* order — is
    // identical across 1/2/4-channel farms and 2/4-plane interleaves,
    // and equal to the dense read's digest on every shape.
    StreamedRead ref = runStreamedWorkload(515, 1, 2, 2);
    for (std::size_t j = 0; j < ref.order.size(); ++j)
        ASSERT_EQ(ref.order[j], j);
    EXPECT_EQ(ref.digest, ref.denseDigest);

    for (auto [channels, dies, planes] :
         {std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>{
              2, 2, 2},
          {4, 2, 2},
          {2, 2, 4}}) {
        StreamedRead run =
            runStreamedWorkload(515, channels, dies, planes);
        SCOPED_TRACE(std::to_string(channels) + " channels, " +
                     std::to_string(dies) + " dies, " +
                     std::to_string(planes) + " planes");
        for (std::size_t j = 0; j < run.order.size(); ++j)
            ASSERT_EQ(run.order[j], j);
        EXPECT_EQ(run.digest, ref.digest);
        EXPECT_EQ(run.denseDigest, ref.digest);
    }
}

TEST(DeterminismTest, StreamedReadSameSeedSameStream)
{
    StreamedRead r1 = runStreamedWorkload(616, 2, 4, 2);
    StreamedRead r2 = runStreamedWorkload(616, 2, 4, 2);
    EXPECT_EQ(r1.order, r2.order);
    EXPECT_EQ(r1.digest, r2.digest);
    EXPECT_EQ(r1.peakPages, r2.peakPages);
}

TEST(DeterminismTest, StreamedReadWorkerCountInvariant)
{
    // Chunk delivery rides the same commit-phase order, so streaming
    // (order, digest, and the backpressure high-water mark) is also
    // worker-count invariant.
    StreamedRead serial = runStreamedWorkload(717, 2, 4, 2, 1);
    for (std::uint32_t workers : {2u, 4u}) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        StreamedRead run = runStreamedWorkload(717, 2, 4, 2, workers);
        EXPECT_EQ(run.order, serial.order);
        EXPECT_EQ(run.digest, serial.digest);
        EXPECT_EQ(run.denseDigest, serial.denseDigest);
        EXPECT_EQ(run.peakPages, serial.peakPages);
    }
}

TEST(DeterminismTest, LaneSummariesMatchTheHostOnTable1Pages)
{
    // Table-1 pages (16 KiB) are wide enough for the worker lanes, so
    // each result page is summarized on its die's lane.
    // Those summaries must fold to what the host computes from the
    // dense bits, at every worker count: a streamed AND (8 whole pages
    // and a 1000-bit last page, not a multiple of 64) and a plain
    // vector read of one operand.
    const nand::Geometry geom = nand::Geometry::table1();
    const std::uint64_t page_bits = geom.pageBits();
    const std::size_t bits = page_bits * 8 + 1000;
    Rng rng = Rng::seeded(828);
    std::vector<BitVector> data;
    for (int i = 0; i < 3; ++i)
        data.push_back(test::randomVec(rng, bits));
    BitVector want = data[0];
    want &= data[1];
    want &= data[2];

    std::vector<std::uint64_t> serial;
    for (std::uint32_t workers : {1u, 2u, 4u}) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        obs::ScopedCapture cap(/*trace=*/false, /*metrics=*/true);
        core::FlashCosmosDrive::Config cfg;
        cfg.channels = 2;
        cfg.dies = 2;
        cfg.geometry = geom;
        cfg.workers = workers;
        core::FlashCosmosDrive drive(cfg);
        core::FlashCosmosDrive::WriteOptions group;
        group.group = 1;
        std::vector<core::Expr> leaves;
        for (const BitVector &v : data)
            leaves.push_back(core::Expr::leaf(drive.fcWrite(v, group)));

        std::vector<std::uint64_t> digests;
        auto check = [&](const auto &read, const BitVector &expect) {
            core::DenseCollectSink dense;
            core::DigestSink digest;
            core::PopcountSink ones;
            core::TeeSink tee({&dense, &digest, &ones});
            read(tee);
            EXPECT_EQ(dense.result(), expect);
            EXPECT_EQ(digest.digest(),
                      core::DigestSink::digestOf(dense.result(), page_bits));
            EXPECT_EQ(ones.ones(), dense.result().popcount());
            EXPECT_EQ(ones.bits(), bits);
            digests.push_back(digest.digest());
        };
        check([&](core::ResultSink &sink) {
            drive.fcRead(core::Expr::And(leaves), sink);
        }, want);
        check([&](core::ResultSink &sink) {
            drive.readVector(leaves[0].id(), sink);
        }, data[0]);

        if (workers == 1)
            serial = digests;
        else
            EXPECT_GT(
                cap.metricsRegistry().counter("host.pool.dispatches").value(),
                0u);
        EXPECT_EQ(digests, serial);
    }
}

TEST(DeterminismTest, PinnedCorpusDecodesToDistinctCommands)
{
    // Sanity on the on-disk corpus itself: entries are well-formed and
    // not accidental duplicates of one command.
    nand::Geometry geom = nand::Geometry::table1();
    auto corpus = test::loadCorpus("codec_corpus.txt");
    ASSERT_GE(corpus.size(), 32u);
    std::vector<nand::MwsCommand> decoded;
    for (const auto &bytes : corpus)
        decoded.push_back(nand::decodeMws(geom, bytes));
    int distinct = 0;
    for (std::size_t i = 1; i < decoded.size(); ++i)
        if (!(decoded[i] == decoded[0]))
            ++distinct;
    EXPECT_GT(distinct, 0);
}

} // namespace
} // namespace fcos
