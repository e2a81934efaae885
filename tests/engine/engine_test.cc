/**
 * @file
 * Unit tests of the multi-die compute engine: farm topology, scheduler
 * parallelism/serialization, result readout, replication, and the
 * drive-level sharded paths (multi-channel fcRead, fcReplicate).
 */

#include <gtest/gtest.h>

#include "core/drive.h"
#include "engine/engine.h"
#include "obs/obs.h"
#include "tests/support/random_fixture.h"
#include "tests/support/trace_check.h"

namespace fcos::engine {
namespace {

ssd::SsdConfig
smallFarm(std::uint32_t channels, std::uint32_t dies)
{
    ssd::SsdConfig fc;
    fc.channels = channels;
    fc.dies = dies;
    fc.geometry = nand::Geometry::tiny();
    return fc;
}

/** A one-step program on (@p die, @p plane) that runs @p run. */
ColumnProgram
oneStep(std::uint32_t die, std::uint32_t plane, StepKind kind,
        std::function<nand::OpResult(nand::NandChip &)> run,
        std::uint64_t dma_before = 0)
{
    return stepProgram(die, plane, {kind, std::move(run), 0, dma_before});
}

/** A die-free step that occupies its plane for @p us. */
nand::OpResult
busyFor(double us)
{
    return nand::OpResult{usToTime(us), 0.0};
}

TEST(ChipFarmTest, TopologyMapsDiesAndColumns)
{
    ChipFarm farm(smallFarm(2, 4));
    EXPECT_EQ(farm.dieCount(), 8u);
    EXPECT_EQ(farm.channelCount(), 2u);
    EXPECT_EQ(farm.channelOfDie(0), 0u);
    EXPECT_EQ(farm.channelOfDie(3), 0u);
    EXPECT_EQ(farm.channelOfDie(4), 1u);
    EXPECT_EQ(farm.channelOfDie(7), 1u);
    // tiny() has 2 planes/die: column = die * 2 + plane.
    EXPECT_EQ(farm.columnCount(), 16u);
    EXPECT_EQ(farm.dieOfColumn(5), 2u);
    EXPECT_EQ(farm.planeOfColumn(5), 1u);
}

TEST(SchedulerTest, IndependentDiesRunInParallel)
{
    ChipFarm farm(smallFarm(2, 1));
    CommandScheduler sched(farm);
    auto op = [](nand::NandChip &) { return busyFor(10.0); };
    sched.submit(oneStep(0, 0, StepKind::PageRead, op));
    sched.submit(oneStep(1, 0, StepKind::PageRead, op));
    EXPECT_EQ(sched.drain(), usToTime(10.0));
    EXPECT_EQ(sched.dieBusyTime(0), usToTime(10.0));
    EXPECT_EQ(sched.dieBusyTime(1), usToTime(10.0));
}

TEST(SchedulerTest, PlanesOfOneDieSenseConcurrently)
{
    // tiny() has 2 planes/die: both planes of a single die must
    // overlap on the timeline (per-plane facilities).
    ChipFarm farm(smallFarm(1, 1));
    CommandScheduler sched(farm);
    auto op = [](nand::NandChip &) { return busyFor(10.0); };
    sched.submit(oneStep(0, 0, StepKind::PageRead, op));
    sched.submit(oneStep(0, 1, StepKind::PageRead, op));
    EXPECT_EQ(sched.drain(), usToTime(10.0));
    EXPECT_EQ(sched.planeBusyTime(0, 0), usToTime(10.0));
    EXPECT_EQ(sched.planeBusyTime(0, 1), usToTime(10.0));
    EXPECT_EQ(sched.dieBusyTime(0), usToTime(10.0));
}

TEST(SchedulerTest, SamePlaneOpsSerializeInSubmissionOrder)
{
    ChipFarm farm(smallFarm(1, 1));
    CommandScheduler sched(farm);
    std::vector<int> order;
    for (int i = 0; i < 3; ++i)
        sched.submit(oneStep(0, 0, StepKind::PageRead,
                             [&order, i](nand::NandChip &) {
                                 order.push_back(i);
                                 return busyFor(5.0);
                             }));
    EXPECT_EQ(sched.drain(), usToTime(15.0));
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SchedulerTest, DataInPipelinesBehindCacheLatch)
{
    // Two programs with data-in on one plane: the second transfer
    // streams into the cache latch while the first program occupies
    // the array, so the plane never waits for it.
    ssd::SsdConfig fc = smallFarm(1, 1);
    fc.io.channelGBps = 0.001; // 32-B page -> 32 us per transfer
    ChipFarm farm(fc);
    CommandScheduler sched(farm);
    const std::uint64_t bytes = farm.geometry().pageBytes;
    const Time dma = transferTime(bytes, fc.io.channelGBps);
    ASSERT_EQ(dma, usToTime(32.0));
    auto op = [](nand::NandChip &) { return busyFor(10.0); };
    sched.submit(oneStep(0, 0, StepKind::Program, op, bytes));
    sched.submit(oneStep(0, 0, StepKind::Program, op, bytes));
    // Pipelined: dma1 [0,32], op1 [32,42] with dma2 [32,64] behind the
    // latch, op2 [64,74]. Fully serialized this would be 84 us.
    EXPECT_EQ(sched.drain(), usToTime(74.0));
    EXPECT_LT(sched.makespan(), usToTime(84.0));
}

TEST(SchedulerTest, ProgramsOnOnePlaneRunWholeInFifoOrder)
{
    // A two-step program whose second step waits for its data-in, then
    // a one-step program on the same plane: the second program must
    // not slip into the gap, although its plane sits idle there.
    ssd::SsdConfig fc = smallFarm(1, 1);
    fc.io.channelGBps = 0.001; // 32-B page -> 32 us per transfer
    ChipFarm farm(fc);
    CommandScheduler sched(farm);
    std::vector<std::string> order;
    auto step = [&order](std::string name) {
        return [&order, name](nand::NandChip &) {
            order.push_back(name);
            return busyFor(5.0);
        };
    };
    std::vector<std::pair<std::string, Time>> completed;
    auto record = [&completed, &sched](std::string name) {
        return [&completed, &sched, name] {
            completed.emplace_back(name, sched.queue().now());
        };
    };
    ColumnProgram two = oneStep(0, 0, StepKind::Sense, step("a0"));
    two.steps.push_back(ColumnStep{StepKind::Program, step("a1"), 0,
                                   farm.geometry().pageBytes});
    two.onComplete = record("a");
    ColumnProgram one = oneStep(0, 0, StepKind::Sense, step("b0"));
    one.onComplete = record("b");
    OpStats stats;
    sched.submit(std::move(two), &stats);
    sched.submit(std::move(one), &stats);

    // a0 [0,5]; a1's data-in [0,32] streams behind a0, a1 [32,37];
    // b0 [37,42].
    EXPECT_EQ(sched.drain(), usToTime(42.0));
    EXPECT_EQ(order, (std::vector<std::string>{"a0", "a1", "b0"}));
    ASSERT_EQ(completed.size(), 2u);
    EXPECT_EQ(completed[0], std::make_pair(std::string("a"), usToTime(37.0)));
    EXPECT_EQ(completed[1], std::make_pair(std::string("b"), usToTime(42.0)));
    EXPECT_EQ(stats.mwsCommands, 2u);
    EXPECT_EQ(stats.programs, 1u);
    EXPECT_EQ(sched.dieOpsExecuted(), 3u);
}

TEST(SchedulerTest, StepKindDecidesEnergyTallyAndSpan)
{
    // One step of each kind, each with its own power-of-two joules:
    // every step's energy lands under energyComponentFor(kind) and its
    // span is named after that component.
    obs::ScopedCapture cap(/*trace=*/true, /*metrics=*/false);
    ChipFarm farm(smallFarm(1, 1));
    CommandScheduler sched(farm);
    const StepKind kinds[] = {StepKind::Sense,   StepKind::LatchXor,
                              StepKind::PageRead, StepKind::Program,
                              StepKind::Copyback, StepKind::Erase};
    ColumnProgram prog;
    prog.readOutResult = false;
    double joules = 1.0;
    for (StepKind kind : kinds) {
        prog.steps.push_back(ColumnStep{
            kind,
            [joules](nand::NandChip &) {
                return nand::OpResult{usToTime(1.0), joules};
            },
            0, 0});
        joules *= 2;
    }
    OpStats stats;
    sched.submit(std::move(prog), &stats);
    EXPECT_EQ(sched.drain(), usToTime(6.0));

    const ssd::EnergyMeter &e = sched.energy();
    EXPECT_EQ(e.get(ssd::EnergyComponent::NandMws), 1.0 + 2.0);
    EXPECT_EQ(e.get(ssd::EnergyComponent::NandRead), 4.0);
    EXPECT_EQ(e.get(ssd::EnergyComponent::NandProgram), 8.0 + 16.0);
    EXPECT_EQ(e.get(ssd::EnergyComponent::NandErase), 32.0);
    EXPECT_EQ(e.total(), 63.0);

    EXPECT_EQ(stats.mwsCommands, 1u);
    EXPECT_EQ(stats.senses, 2u);
    EXPECT_EQ(stats.latchXors, 1u);
    EXPECT_EQ(stats.pageReads, 1u);
    EXPECT_EQ(stats.programs, 1u);
    EXPECT_EQ(stats.copybacks, 1u);
    EXPECT_EQ(stats.erases, 1u);
    EXPECT_EQ(stats.resultPages, 0u);
    EXPECT_EQ(stats.nandTime, usToTime(6.0));
    EXPECT_EQ(stats.nandEnergyJ, 63.0);

    std::vector<std::string> spans;
    std::istringstream json(cap.traceJson());
    for (std::string line; std::getline(json, line);)
        if (test::trace_detail::rawField(line, "ph") == "B")
            spans.push_back(test::trace_detail::rawField(line, "name"));
    EXPECT_EQ(spans, (std::vector<std::string>{"mws", "mws", "read",
                                               "program", "program",
                                               "erase"}));
}

TEST(SchedulerTest, TransfersBookEnergyFacilityAndSpan)
{
    // Each of the four transfer kinds lands its joules in its energy
    // component and a span on its facility's track: a program step's
    // data-in and its result readout on channel 0's bus, an external
    // transfer on the drive's link, accelerator work on channel 1's
    // port.
    obs::ScopedCapture cap(/*trace=*/true, /*metrics=*/false);
    ssd::SsdConfig fc = smallFarm(2, 1);
    fc.io.channelGBps = 0.001;  // 32-B page -> 32 us on a channel
    fc.io.externalGBps = 0.004; // 32 B -> 8 us on the external link
    ChipFarm farm(fc);
    CommandScheduler sched(farm);
    const std::uint64_t bytes = farm.geometry().pageBytes;
    ASSERT_EQ(bytes, 32u);

    ColumnProgram prog = oneStep(
        0, 0, StepKind::Program,
        [](nand::NandChip &) { return busyFor(5.0); }, bytes);
    prog.readOutResult = true;
    sched.submit(std::move(prog));
    sched.submitExternal(bytes);
    sched.submitAccel(1, bytes);
    // data-in [0,32], program [32,37], readout [37,69].
    EXPECT_EQ(sched.drain(), usToTime(69.0));

    const ssd::IoParams &io = fc.io;
    const ssd::EnergyMeter &e = sched.energy();
    EXPECT_EQ(e.get(ssd::EnergyComponent::ChannelDma),
              io.channelEnergyJ(bytes) + io.channelEnergyJ(bytes));
    EXPECT_EQ(e.get(ssd::EnergyComponent::ExternalLink),
              io.externalEnergyJ(bytes));
    EXPECT_EQ(e.get(ssd::EnergyComponent::IspAccel),
              io.accelEnergyJ(bytes));

    // (track, name, begin us, end us) of every span, tracks named
    // "process/thread", in the trace's track order.
    using test::trace_detail::rawField;
    std::map<std::string, std::string> process, track;
    std::vector<std::string> spans;
    std::istringstream json(cap.traceJson());
    std::string open;
    for (std::string line; std::getline(json, line);) {
        const std::string ph = rawField(line, "ph");
        const std::string pid = rawField(line, "pid");
        const std::string ids = pid + ":" + rawField(line, "tid");
        if (ph == "M" && rawField(line, "name") == "process_name")
            process[pid] = rawField(line, "args\":{\"name");
        else if (ph == "M")
            track[ids] = process[pid] + "/" +
                         rawField(line, "args\":{\"name");
        else if (ph == "B")
            open = track[ids] + " " + rawField(line, "name") + " [" +
                   rawField(line, "ts");
        else if (ph == "E")
            spans.push_back(open + ", " + rawField(line, "ts") + ")");
    }
    EXPECT_EQ(spans, (std::vector<std::string>{
                         "channel0/bus data-in [0.000, 32.000)",
                         "channel0/bus dma [37.000, 69.000)",
                         "channel1/accel accel [0.000, 32.000)",
                         "channel0/die0.plane0 program [32.000, 37.000)",
                         "drive/external ext [0.000, 8.000)",
                     }));
}

TEST(SchedulerTest, SharedChannelSerializesDma)
{
    // Two dies on one channel: die work overlaps, channel does not.
    ChipFarm farm(smallFarm(1, 2));
    CommandScheduler sched(farm);
    Time dma = transferTime(farm.geometry().pageBytes,
                            farm.config().io.channelGBps);
    sched.submitDma(0, farm.geometry().pageBytes);
    sched.submitDma(1, farm.geometry().pageBytes);
    EXPECT_EQ(sched.drain(), 2 * dma);
    EXPECT_EQ(sched.channelBusyTime(0), 2 * dma);
}

TEST(SchedulerTest, ExternalLinkSerializesTransfers)
{
    ChipFarm farm(smallFarm(2, 1));
    CommandScheduler sched(farm);
    Time t1 = 0, t2 = 0;
    sched.submitExternal(8000, [&] { t1 = sched.queue().now(); });
    sched.submitExternal(8000, [&] { t2 = sched.queue().now(); });
    sched.drain();
    EXPECT_EQ(t1, 1000u); // 8000 B at 8 GB/s = 1 us
    EXPECT_EQ(t2, 2000u);
    EXPECT_EQ(sched.externalBusyTime(), 2000u);
}

TEST(SchedulerTest, AccelPortsRunPerChannel)
{
    ChipFarm farm(smallFarm(2, 1));
    CommandScheduler sched(farm);
    Time t1 = 0, t2 = 0;
    sched.submitAccel(0, 16 * 1024, [&] { t1 = sched.queue().now(); });
    sched.submitAccel(1, 16 * 1024, [&] { t2 = sched.queue().now(); });
    sched.drain();
    EXPECT_GT(t1, 0u);
    EXPECT_EQ(t1, t2); // separate channels, parallel ports
    EXPECT_GT(sched.energy().get(ssd::EnergyComponent::IspAccel), 0.0);
}

TEST(SchedulerTest, TransferEnergyBookkeeping)
{
    ChipFarm farm(smallFarm(1, 1));
    CommandScheduler sched(farm);
    sched.submitDma(0, 16 * 1024);
    sched.submitExternal(16 * 1024);
    sched.drain();
    const ssd::EnergyMeter &e = sched.energy();
    // 16 KiB * 8 bits * 2 pJ = 0.262 uJ on the channel.
    EXPECT_NEAR(e.get(ssd::EnergyComponent::ChannelDma), 2.62e-7, 1e-9);
    // 16 KiB * 8 bits * 10 pJ = 1.31 uJ on the external link.
    EXPECT_NEAR(e.get(ssd::EnergyComponent::ExternalLink), 1.31e-6,
                5e-9);
}

TEST(SchedulerTest, Table1PageTransferTimes)
{
    const ssd::SsdConfig cfg = ssd::SsdConfig::table1();
    // 16 KiB at 1.2 GB/s ~ 13.65 us; at 8 GB/s ~ 2.05 us.
    EXPECT_NEAR(timeToUs(cfg.pageDmaTime()), 13.65, 0.05);
    EXPECT_NEAR(timeToUs(cfg.pageExternalTime()), 2.05, 0.05);

    // The scheduler books exactly those times from the same IoParams.
    ssd::SsdConfig fc = smallFarm(1, 1);
    fc.io = cfg.io;
    ChipFarm farm(fc);
    CommandScheduler sched(farm);
    sched.submitDma(0, cfg.geometry.pageBytes);
    EXPECT_EQ(sched.drain(), cfg.pageDmaTime());
    sched.submitExternal(cfg.geometry.pageBytes);
    EXPECT_EQ(sched.drain(), cfg.pageDmaTime() + cfg.pageExternalTime());
}

TEST(ComputeEngineTest, ProgramReadsOutResultPage)
{
    ComputeEngine eng(smallFarm(1, 2));
    Rng rng = Rng::seeded(5);
    BitVector data = test::randomVec(rng, eng.farm().geometry().pageBits());
    eng.farm().chip(1).programPageEsp({0, 0, 0, 3}, data,
                                      nand::EspParams{2.0});

    ColumnProgram prog;
    prog.die = 1;
    prog.plane = 0;
    prog.steps.push_back(ColumnStep{
        StepKind::PageRead,
        [](nand::NandChip &chip) {
            return chip.readPage({0, 0, 0, 3});
        },
        0, 0});
    BitVector out;
    bool complete = false;
    PageSummary summary;
    prog.onResult = [&out, &summary](BitVector page, PageSummary s) {
        out = std::move(page);
        summary = s;
    };
    prog.onComplete = [&complete] { complete = true; };

    OpStats stats;
    eng.scheduler().submit(std::move(prog), &stats);
    Time makespan = eng.drain();

    EXPECT_EQ(out, data);
    // The last step's work phase summarized the whole page.
    EXPECT_EQ(summary, PageSummary::of(data, data.size()));
    EXPECT_EQ(summary.ones, data.popcount());
    EXPECT_TRUE(complete);
    EXPECT_EQ(stats.pageReads, 1u);
    EXPECT_EQ(stats.senses, 1u);
    EXPECT_EQ(stats.resultPages, 1u);
    // Sense then channel readout, nothing else on the timeline.
    Time dma = transferTime(eng.farm().geometry().pageBytes,
                            eng.farm().config().io.channelGBps);
    EXPECT_EQ(makespan, usToTime(22.5) + dma);
    EXPECT_GT(eng.energy().get(ssd::EnergyComponent::ChannelDma), 0.0);
}

TEST(ComputeEngineTest, ReplicatePageCopiesAcrossDies)
{
    ComputeEngine eng(smallFarm(2, 2));
    Rng rng = Rng::seeded(6);
    BitVector data = test::randomVec(rng, eng.farm().geometry().pageBits());
    eng.farm().chip(0).programPageEsp({0, 1, 0, 0}, data,
                                      nand::EspParams{2.0});

    OpStats stats;
    eng.broadcastPage(0, {0, 1, 0, 0}, {{3, {1, 2, 1, 4}}},
                      nand::EspParams{2.0}, &stats);
    eng.drain();

    eng.farm().chip(3).readPage({1, 2, 1, 4});
    EXPECT_EQ(eng.farm().chip(3).dataOut(1), data);
    EXPECT_EQ(stats.pageReads, 1u);
    EXPECT_EQ(stats.programs, 1u);
    // Channel out of die 0 (channel 0) and into die 3 (channel 1).
    EXPECT_GT(eng.channelBusyTime(0), 0u);
    EXPECT_GT(eng.channelBusyTime(1), 0u);
}

TEST(ComputeEngineTest, BroadcastSensesOnceAndFansOut)
{
    // Four channels x 1 die: the broadcast copies to three other dies
    // with exactly one source sense and one source readout; the
    // destination programs overlap across channels.
    ComputeEngine eng(smallFarm(4, 1));
    Rng rng = Rng::seeded(7);
    BitVector data = test::randomVec(rng, eng.farm().geometry().pageBits());
    eng.farm().chip(0).programPageEsp({0, 1, 0, 0}, data,
                                      nand::EspParams{2.0});

    std::vector<ComputeEngine::BroadcastTarget> targets;
    for (std::uint32_t die : {1u, 2u, 3u})
        targets.push_back({die, {0, 2, 0, 5}});
    OpStats stats;
    eng.broadcastPage(0, {0, 1, 0, 0}, targets, nand::EspParams{2.0},
                      &stats);
    Time broadcast_makespan = eng.drain();

    EXPECT_EQ(stats.pageReads, 1u);
    EXPECT_EQ(stats.programs, 3u);
    for (std::uint32_t die : {1u, 2u, 3u}) {
        eng.farm().chip(die).readPage({0, 2, 0, 5});
        EXPECT_EQ(eng.farm().chip(die).dataOut(0), data) << "die " << die;
    }

    // Reference: the page-by-page loop senses the source once per
    // copy and serializes on the source die; the broadcast fan-out
    // must beat it on a wide farm.
    ComputeEngine serial(smallFarm(4, 1));
    serial.farm().chip(0).programPageEsp({0, 1, 0, 0}, data,
                                         nand::EspParams{2.0});
    OpStats serial_stats;
    for (const auto &t : targets)
        serial.broadcastPage(0, {0, 1, 0, 0}, {t}, nand::EspParams{2.0},
                             &serial_stats);
    Time serial_makespan = serial.drain();
    EXPECT_EQ(serial_stats.pageReads, 3u);
    EXPECT_LT(broadcast_makespan, serial_makespan);
}

} // namespace
} // namespace fcos::engine

namespace fcos::core {
namespace {

TEST(MultiDieDriveTest, MultiChannelFcReadMatchesReference)
{
    FlashCosmosDrive::Config cfg;
    cfg.channels = 2;
    cfg.dies = 2;
    FlashCosmosDrive drive(cfg);
    EXPECT_EQ(drive.dieCount(), 4u);

    Rng rng = Rng::seeded(21);
    FlashCosmosDrive::WriteOptions group;
    group.group = 1;
    std::size_t bits =
        cfg.geometry.pageBits() * drive.dieCount() * 3; // 12 pages
    BitVector a = test::randomVec(rng, bits);
    BitVector b = test::randomVec(rng, bits);
    BitVector c = test::randomVec(rng, bits);
    Expr ea = Expr::leaf(drive.fcWrite(a, group));
    Expr eb = Expr::leaf(drive.fcWrite(b, group));
    Expr ec = Expr::leaf(drive.fcWrite(c, group));

    FlashCosmosDrive::ReadStats stats;
    BitVector r = drive.fcRead(Expr::And({ea, eb, ec}), &stats);
    EXPECT_EQ(r, a & b & c);
    EXPECT_EQ(stats.planKind, MwsPlan::Kind::Mws);
    EXPECT_EQ(stats.resultPages, 12u);
    EXPECT_GT(stats.makespan, 0u);
    // All 4 dies computed; the sharded makespan must beat the serial
    // sum of the NAND work.
    EXPECT_LT(stats.makespan, stats.nandTime);
}

TEST(MultiDieDriveTest, FcReplicateTilesAcrossGroupColumns)
{
    FlashCosmosDrive::Config cfg;
    cfg.channels = 2;
    cfg.dies = 2;
    FlashCosmosDrive drive(cfg);

    Rng rng = Rng::seeded(22);
    std::uint64_t page_bits = cfg.geometry.pageBits();
    std::uint64_t pages = 8;
    std::size_t bits = page_bits * pages;

    FlashCosmosDrive::WriteOptions group;
    group.group = 7;
    BitVector a = test::randomVec(rng, bits);
    Expr ea = Expr::leaf(drive.fcWrite(a, group));

    // One-page mask vector, stored outside the group, then replicated
    // into it so Equation-1 co-location holds on every column.
    BitVector mask = test::randomVec(rng, page_bits);
    VectorId mask_id = drive.fcWrite(mask);
    FlashCosmosDrive::ReadStats rstats;
    VectorId tiled = drive.fcReplicate(mask_id, pages, group, &rstats);
    EXPECT_EQ(drive.vectorBits(tiled), bits);
    // Broadcast fan-out: one sense feeds every copy.
    EXPECT_EQ(rstats.pageReads, 1u);
    EXPECT_GT(rstats.makespan, 0u);

    // Reference: the mask page tiled across every page of `a`.
    BitVector tiled_ref(bits);
    for (std::uint64_t j = 0; j < pages; ++j)
        tiled_ref.paste(j * page_bits, mask);
    EXPECT_EQ(drive.readVector(tiled), tiled_ref);

    FlashCosmosDrive::ReadStats stats;
    BitVector r =
        drive.fcRead(Expr::And({ea, Expr::leaf(tiled)}), &stats);
    EXPECT_EQ(stats.planKind, MwsPlan::Kind::Mws);
    EXPECT_EQ(r, a & tiled_ref);
}

TEST(MultiDieDriveTest, WritesShardAcrossAllDies)
{
    FlashCosmosDrive::Config cfg;
    cfg.channels = 2;
    cfg.dies = 4;
    FlashCosmosDrive drive(cfg);
    Rng rng = Rng::seeded(23);
    std::size_t bits = cfg.geometry.pageBits() * 16;
    VectorId id = drive.fcWrite(test::randomVec(rng, bits));
    const auto &pages = drive.vectorPages(id);
    ASSERT_EQ(pages.size(), 16u);
    std::vector<bool> die_used(drive.dieCount(), false);
    for (const auto &p : pages)
        die_used[p.die] = true;
    for (std::uint32_t d = 0; d < drive.dieCount(); ++d)
        EXPECT_TRUE(die_used[d]) << "die " << d << " unused";
}

} // namespace
} // namespace fcos::core
