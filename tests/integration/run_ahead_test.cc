/**
 * @file
 * Run-ahead determinism on Table-1 pages: with worker lanes, each
 * die's data work runs ahead of the simulated clock (a program whose
 * result is summary-only or not read out is launched at submit; any
 * other program posts each step at its start). These tests drive the
 * mixes where that could go wrong — summary-only reads racing
 * overwrites of the same planes, dense reads, error-injected senses,
 * and one die whose two planes mix launched and start-posted programs
 * — and require pages, digests, per-plane sense counters and every
 * simulated number to be identical at 1, 2 and 4 workers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "core/drive.h"
#include "core/result_sink.h"
#include "tests/support/random_fixture.h"

namespace fcos::core {
namespace {

/** Everything a run leaves that must not depend on the worker count. */
struct Fingerprint
{
    std::vector<std::uint64_t> digests;
    std::vector<std::uint64_t> ones;
    std::vector<BitVector> pages;
    std::vector<std::uint64_t> senses; ///< per (die, plane), after the run
    std::vector<std::uint64_t> stats;  ///< ReadStats counters and spans
    Time now = 0;
    std::uint64_t energyBits = 0;
    std::uint64_t injected = 0;
};

FlashCosmosDrive::Config
table1Drive(std::uint32_t workers)
{
    FlashCosmosDrive::Config cfg;
    cfg.channels = 1;
    cfg.dies = 2;
    cfg.geometry = nand::Geometry::table1();
    cfg.workers = workers;
    return cfg;
}

/** A summary-only read: a tee of a digest and a popcount sink. */
struct SummaryRead
{
    DigestSink digest;
    PopcountSink pop;
    TeeSink tee{{&digest, &pop}};
};

void
record(Fingerprint &fp, FlashCosmosDrive &drive,
       const std::vector<SummaryRead> &reads,
       const std::vector<DenseCollectSink> &dense,
       const std::vector<FlashCosmosDrive::ReadStats> &stats)
{
    for (const SummaryRead &r : reads) {
        fp.digests.push_back(r.digest.digest());
        fp.ones.push_back(r.pop.ones());
    }
    for (const DenseCollectSink &d : dense)
        fp.pages.push_back(d.result());
    for (const FlashCosmosDrive::ReadStats &s : stats) {
        fp.stats.insert(fp.stats.end(),
                        {s.mwsCommands, s.senses, s.resultPages,
                         s.streamChunks, s.makespan, s.nandTime});
    }
    // drive.chip() fences each die: what the lanes wrote is visible.
    for (std::uint32_t die = 0; die < drive.dieCount(); ++die) {
        for (std::uint32_t p = 0; p < 2; ++p)
            fp.senses.push_back(drive.chip(die).senseCount(p));
    }
    // Table-1 pages go to the lanes whenever there is more than one
    // worker.
    EXPECT_EQ(drive.engine().scheduler().lanes(),
              drive.engine().scheduler().workerCount() > 1);
    fp.now = drive.now();
    const double e = drive.engine().totalEnergyJ();
    std::memcpy(&fp.energyBits, &e, sizeof e);
}

/** Table-1 vectors of @p pages pages, drawn from @p rng. */
std::vector<BitVector>
operands(Rng &rng, std::size_t count, std::uint64_t pages)
{
    std::vector<BitVector> v;
    for (std::size_t i = 0; i < count; ++i)
        v.push_back(test::randomVec(
            rng, pages * nand::Geometry::table1().pageBits()));
    return v;
}

constexpr std::uint64_t kPages = 8; // two page stripes over 4 columns

Fingerprint
readsRacingOverwrites(std::uint32_t workers)
{
    FlashCosmosDrive drive(table1Drive(workers));
    Rng rng = Rng::seeded(301);
    const std::vector<BitVector> data = operands(rng, 5, kPages);
    FlashCosmosDrive::WriteOptions g1;
    g1.group = 1;
    std::vector<Expr> leaves;
    for (std::size_t i = 0; i < 3; ++i)
        leaves.push_back(Expr::leaf(drive.fcWrite(data[i], g1)));
    const VectorId spare = drive.fcWrite(data[3]);

    // Nothing waits in between: every read is summary-only and
    // launched at submit, while writes over the same planes (and an
    // overwrite of a vector no read touches) launch beside them.
    std::vector<SummaryRead> reads(4);
    std::vector<FlashCosmosDrive::ReadStats> stats(2);
    drive.submitRead(Expr::And(leaves), reads[0].tee, &stats[0]);
    FlashCosmosDrive::WriteOptions over;
    over.replaces = spare;
    const auto fresh = drive.submitWrite(data[4], over);
    drive.submitRead(leaves[0] & leaves[1], reads[1].tee, &stats[1]);
    drive.submitReadVector(fresh.vector, reads[2].tee);
    drive.submitWrite(data[0]);
    drive.submitRead(Expr::And(leaves), reads[3].tee);
    drive.waitAll();

    const std::uint64_t page_bits = nand::Geometry::table1().pageBits();
    BitVector and3 = data[0];
    and3 &= data[1];
    and3 &= data[2];
    BitVector and2 = data[0];
    and2 &= data[1];
    EXPECT_EQ(reads[0].digest.digest(), DigestSink::digestOf(and3, page_bits));
    EXPECT_EQ(reads[0].pop.ones(), and3.popcount());
    EXPECT_EQ(reads[1].digest.digest(), DigestSink::digestOf(and2, page_bits));
    EXPECT_EQ(reads[2].digest.digest(),
              DigestSink::digestOf(data[4], page_bits));
    EXPECT_EQ(reads[3].digest.digest(), reads[0].digest.digest());

    Fingerprint fp;
    record(fp, drive, reads, {}, stats);
    return fp;
}

Fingerprint
planesMixLaunchedAndPostedPrograms(std::uint32_t workers)
{
    FlashCosmosDrive drive(table1Drive(workers));
    Rng rng = Rng::seeded(302);
    const std::vector<BitVector> data = operands(rng, 4, 1);
    // One-page vectors on die 0: plane 0 (home column 0) and plane 1.
    std::vector<VectorId> p0, p1;
    for (std::size_t i = 0; i < 2; ++i) {
        FlashCosmosDrive::WriteOptions wo;
        wo.homeColumn = 0;
        p0.push_back(drive.fcWrite(data[i], wo));
        wo.homeColumn = 1;
        p1.push_back(drive.fcWrite(data[2 + i], wo));
    }

    // Plane 0 carries dense reads (posted at each step's start, latch
    // captured at completion), each followed by a summary-only read of
    // the other plane-0 vector, submitted once the dense read's sense
    // has started, and a write; plane 1 carries summary-only reads,
    // launched at submit. The plane-0 summary reads must wait
    // unlaunched until the dense capture: launched, their senses would
    // overwrite its latch first.
    std::vector<DenseCollectSink> dense(6);
    std::vector<SummaryRead> reads(12);
    for (std::size_t k = 0; k < 6; ++k) {
        drive.submitReadVector(p0[k % 2], dense[k]);
        drive.advanceTo(drive.now() + usToTime(1.0));
        drive.submitReadVector(p0[(k + 1) % 2], reads[2 * k].tee);
        drive.submitReadVector(p1[k % 2], reads[2 * k + 1].tee);
        FlashCosmosDrive::WriteOptions wo;
        wo.homeColumn = k % 2;
        drive.submitWrite(data[k % 4], wo);
    }
    drive.waitAll();

    const std::uint64_t page_bits = nand::Geometry::table1().pageBits();
    for (std::size_t k = 0; k < 6; ++k) {
        EXPECT_EQ(dense[k].result(), data[k % 2]) << "read " << k;
        EXPECT_EQ(reads[2 * k].digest.digest(),
                  DigestSink::digestOf(data[(k + 1) % 2], page_bits))
            << "read " << k;
        EXPECT_EQ(reads[2 * k + 1].digest.digest(),
                  DigestSink::digestOf(data[2 + k % 2], page_bits))
            << "read " << k;
    }
    Fingerprint fp;
    record(fp, drive, reads, dense, {});
    return fp;
}

/** Flips a few bits of every sensed page at positions drawn from the
 *  sense's seed alone: what it flips depends only on each plane's
 *  sense sequence, which run-ahead must leave unchanged. */
class SeedFlipInjector final : public nand::ErrorInjector
{
  public:
    void inject(BitVector &bits, const nand::PageMeta &,
                std::uint64_t seed) override
    {
        Rng rng = Rng::seeded(seed);
        for (int i = 0; i < 3; ++i) {
            const std::size_t pos =
                static_cast<std::size_t>(rng.nextBounded(bits.size()));
            bits.set(pos, !bits.get(pos));
        }
        flips_ += 3;
    }

    std::uint64_t flips() const { return flips_.load(); }

  private:
    std::atomic<std::uint64_t> flips_{0};
};

Fingerprint
injectedSenses(std::uint32_t workers)
{
    FlashCosmosDrive drive(table1Drive(workers));
    SeedFlipInjector inj;
    drive.setErrorInjector(&inj);
    Rng rng = Rng::seeded(303);
    const std::vector<BitVector> data = operands(rng, 3, kPages);
    FlashCosmosDrive::WriteOptions g1;
    g1.group = 1;
    std::vector<Expr> leaves;
    for (const BitVector &v : data)
        leaves.push_back(Expr::leaf(drive.fcWrite(v, g1)));

    std::vector<SummaryRead> reads(2);
    std::vector<DenseCollectSink> dense(1);
    drive.submitRead(Expr::And(leaves), reads[0].tee);
    drive.submitRead(Expr::And(leaves), dense[0]);
    drive.submitReadVector(leaves[1].id(), reads[1].tee);
    drive.waitAll();

    Fingerprint fp;
    record(fp, drive, reads, dense, {});
    fp.injected = inj.flips();
    EXPECT_GT(fp.injected, 0u);
    BitVector clean = data[0];
    clean &= data[1];
    clean &= data[2];
    EXPECT_FALSE(dense[0].result() == clean); // the flips reached it
    drive.setErrorInjector(nullptr);
    return fp;
}

void
expectWorkerInvariant(Fingerprint (*run)(std::uint32_t))
{
    const Fingerprint serial = run(1);
    for (std::uint32_t workers : {2u, 4u}) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        const Fingerprint par = run(workers);
        EXPECT_EQ(par.digests, serial.digests);
        EXPECT_EQ(par.ones, serial.ones);
        EXPECT_TRUE(par.pages == serial.pages);
        EXPECT_EQ(par.senses, serial.senses);
        EXPECT_EQ(par.stats, serial.stats);
        EXPECT_EQ(par.now, serial.now);
        EXPECT_EQ(par.energyBits, serial.energyBits);
        EXPECT_EQ(par.injected, serial.injected);
    }
}

TEST(RunAheadTest, SummaryReadsRacingOverwritesAreWorkerInvariant)
{
    expectWorkerInvariant(readsRacingOverwrites);
}

TEST(RunAheadTest, OneDieMixingLaunchedAndPostedProgramsIsWorkerInvariant)
{
    expectWorkerInvariant(planesMixLaunchedAndPostedPrograms);
}

TEST(RunAheadTest, ErrorInjectedSensesAreWorkerInvariant)
{
    expectWorkerInvariant(injectedSenses);
}

} // namespace
} // namespace fcos::core
