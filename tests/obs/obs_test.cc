/**
 * @file
 * Observability layer tests: the metric primitives, the registry's
 * deterministic render (pinned as a golden), the tracer's Chrome
 * trace_event JSON (schema-checked by tests/support/trace_check.h),
 * the epoch guard, and an end-to-end drive capture.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/drive.h"
#include "core/result_sink.h"
#include "obs/obs.h"
#include "reliability/error_injector.h"
#include "reliability/vth_model.h"
#include "tests/support/golden.h"
#include "tests/support/random_fixture.h"
#include "tests/support/trace_check.h"
#include "util/fnv.h"

namespace fcos {
namespace {

// ---------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------

TEST(ObsMetricsTest, CounterAccumulates)
{
    obs::Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(ObsMetricsTest, GaugeTracksValueAndHighWaterMark)
{
    obs::Gauge g;
    g.set(3.0);
    g.set(1.0);
    EXPECT_EQ(g.value(), 1.0);
    EXPECT_EQ(g.max(), 3.0);
    g.noteMax(2.0); // below the mark: no change
    EXPECT_EQ(g.max(), 3.0);
    g.noteMax(5.0);
    EXPECT_EQ(g.max(), 5.0);
}

TEST(ObsMetricsTest, HistogramLogBucketsAndStats)
{
    obs::Histogram h;
    EXPECT_EQ(h.quantile(0.5), 0u);

    h.record(0);
    h.record(1);
    h.record(2);
    h.record(3);
    h.record(1000);

    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 1006u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_DOUBLE_EQ(h.mean(), 1006.0 / 5.0);

    // Zero gets its own bucket; v lands in bucket bit_width(v).
    EXPECT_EQ(h.bucket(0), 1u); // 0
    EXPECT_EQ(h.bucket(1), 1u); // 1
    EXPECT_EQ(h.bucket(2), 2u); // 2, 3
    EXPECT_EQ(h.bucket(10), 1u); // 1000 in [512, 1024)

    // Quantiles are bucket upper bounds; p99 is clamped to max().
    EXPECT_EQ(h.quantile(0.2), 0u);
    EXPECT_EQ(h.quantile(0.4), 1u);
    EXPECT_EQ(h.quantile(0.8), 3u);
    EXPECT_EQ(h.quantile(0.99), 1000u);
}

TEST(ObsMetricsTest, RegistryFindOrCreateReturnsStableRefs)
{
    obs::Registry r;
    EXPECT_TRUE(r.empty());
    obs::Counter &a = r.counter("x");
    obs::Counter &b = r.counter("x");
    EXPECT_EQ(&a, &b);
    a.add(7);
    EXPECT_EQ(r.counter("x").value(), 7u);
    EXPECT_FALSE(r.empty());
}

TEST(ObsMetricsTest, DeterministicRenderExcludesHostMetrics)
{
    obs::Registry r;
    r.counter("sim.good").add(3);
    r.counter("host.pool.lane0.busy_ns").add(12345);
    r.gauge("host.pool.lane0.busy_frac").set(0.5);
    const std::string det = r.renderDeterministic();
    EXPECT_NE(det.find("sim.good"), std::string::npos);
    EXPECT_EQ(det.find("host."), std::string::npos);
    // The full report keeps everything.
    const std::string full = r.renderReport();
    EXPECT_NE(full.find("host.pool.lane0.busy_ns"), std::string::npos);
}

TEST(ObsMetricsTest, FacilityTableRanksByBusyTime)
{
    obs::Registry r;
    r.recordFacility("quiet", 10, 1, 1000);
    r.recordFacility("busy", 900, 5, 1000);
    const std::string top1 = r.renderFacilityTable(1);
    EXPECT_NE(top1.find("busy"), std::string::npos);
    EXPECT_EQ(top1.find("quiet"), std::string::npos);
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

TEST(ObsTraceTest, JsonIsSchemaValidAndDigestStable)
{
    obs::Tracer t;
    const std::uint32_t pid = t.newProcess("channel0");
    const std::uint32_t bus = t.newTrack(pid, "bus");
    const std::uint32_t plane = t.newTrack(pid, "die0.plane0");
    const std::uint32_t wait = t.newTrack(pid, "die0.plane0.wait");

    t.span(bus, "dma", 100, 250);
    t.span(plane, "mws", 250, 1250);
    t.span(plane, "read", 1250, 2000);
    // Overlapping queue-wait windows ride the overlay track.
    t.overlay(wait, "wait", 100, 900);
    t.overlay(wait, "wait", 100, 1250);

    EXPECT_EQ(t.events(), 5u);
    EXPECT_EQ(t.tracks(), 3u);

    const std::string json = t.toJson();
    EXPECT_TRUE(test::IsValidChromeTrace(json));
    EXPECT_EQ(t.digest(), fnvDigestBytes(json));

    // Same recording => same JSON => same digest.
    obs::Tracer u;
    const std::uint32_t upid = u.newProcess("channel0");
    const std::uint32_t ubus = u.newTrack(upid, "bus");
    const std::uint32_t uplane = u.newTrack(upid, "die0.plane0");
    const std::uint32_t uwait = u.newTrack(upid, "die0.plane0.wait");
    u.span(ubus, "dma", 100, 250);
    u.span(uplane, "mws", 250, 1250);
    u.span(uplane, "read", 1250, 2000);
    u.overlay(uwait, "wait", 100, 900);
    u.overlay(uwait, "wait", 100, 1250);
    EXPECT_EQ(u.digest(), t.digest());
}

TEST(ObsTraceTest, ChunkedExportMatchesTheWholeJson)
{
    // Enough events for several render chunks: the file and the digest
    // writeFile() produces in one pass must match toJson() exactly.
    obs::Tracer t;
    const std::uint32_t pid = t.newProcess("channel0");
    const std::uint32_t plane = t.newTrack(pid, "die0.plane0");
    const std::uint32_t wait = t.newTrack(pid, "die0.plane0.wait");
    for (Time i = 0; i < 40'000; ++i) {
        t.span(plane, "mws", 1000 * i, 1000 * i + 700);
        t.overlay(wait, "wait", 1000 * i, 1000 * i + 300);
    }
    const std::string json = t.toJson();
    ASSERT_GT(json.size(), std::size_t{3} << 20);
    EXPECT_EQ(t.digest(), fnvDigestBytes(json));

    const std::string path = ::testing::TempDir() + "obs_chunked_trace.json";
    std::uint64_t digest = 0;
    ASSERT_TRUE(t.writeFile(path, &digest));
    EXPECT_EQ(digest, fnvDigestBytes(json));
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string back(json.size() + 1, '\0');
    back.resize(std::fread(back.data(), 1, back.size(), f));
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_TRUE(back == json);
}

TEST(ObsTraceTest, TimestampsSerializeAsFractionalMicroseconds)
{
    obs::Tracer t;
    const std::uint32_t pid = t.newProcess("p");
    const std::uint32_t tr = t.newTrack(pid, "t");
    t.span(tr, "op", 1500, 2003); // 1.500 us .. 2.003 us
    const std::string json = t.toJson();
    EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
    EXPECT_NE(json.find("\"ts\":2.003"), std::string::npos);
}

TEST(ObsTraceTest, StaleTrackHandleIsDropped)
{
    obs::Tracer t;
    // A handle minted by a previous session must not crash or record.
    t.span(99, "ghost", 0, 1);
    EXPECT_EQ(t.events(), 0u);
}

// ---------------------------------------------------------------------
// Epoch guard + ScopedCapture
// ---------------------------------------------------------------------

TEST(ObsSessionTest, EpochGuardDistinguishesSessions)
{
    ASSERT_FALSE(obs::traceOn()); // tests run with obs off by default
    EXPECT_FALSE(obs::traceLive(0));

    std::uint64_t first = 0;
    {
        obs::ScopedCapture cap(/*trace=*/true, /*metrics=*/true);
        first = obs::traceEpoch();
        EXPECT_NE(first, 0u);
        EXPECT_TRUE(obs::traceLive(first));
        EXPECT_TRUE(obs::metricsLive(obs::metricsEpoch()));
    }
    // Outside the scope the old epoch is dead.
    EXPECT_FALSE(obs::traceLive(first));
    EXPECT_FALSE(obs::traceOn());
    EXPECT_FALSE(obs::metricsOn());

    // A later session never reuses an epoch.
    obs::ScopedCapture cap2(/*trace=*/true, /*metrics=*/false);
    EXPECT_NE(obs::traceEpoch(), first);
    EXPECT_FALSE(obs::traceLive(first));
    EXPECT_FALSE(obs::metricsOn());
}

TEST(ObsSessionTest, DriveBuiltOutsideCaptureStaysQuiet)
{
    // The engine of a drive built before the capture, its admission
    // queue included, holds a stale epoch and records no engine.* row
    // into the scoped registry. (The read's result stream is built
    // inside the capture, so its stream.* rows may land.)
    core::FlashCosmosDrive::Config cfg;
    core::FlashCosmosDrive drive(cfg);
    obs::ScopedCapture cap(/*trace=*/false, /*metrics=*/true);
    Rng rng = Rng::seeded(516);
    core::VectorId v =
        drive.fcWrite(test::randomVec(rng, cfg.geometry.pageBits()));
    drive.readVector(v);
    EXPECT_EQ(cap.metricsText().find("engine."), std::string::npos)
        << cap.metricsText();
}

// ---------------------------------------------------------------------
// End-to-end drive capture
// ---------------------------------------------------------------------

/** The golden workload: one small drive, three writes, two reads. */
void
runSmallWorkload(std::uint32_t workers)
{
    core::FlashCosmosDrive::Config cfg;
    cfg.channels = 2;
    cfg.dies = 2;
    cfg.geometry.planesPerDie = 2;
    cfg.workers = workers;
    core::FlashCosmosDrive drive(cfg);
    rel::VthModel model;
    rel::VthErrorInjector inj(model,
                              rel::OperatingCondition{3000, 3.0, false});
    drive.setErrorInjector(&inj);

    Rng rng = Rng::seeded(515);
    core::FlashCosmosDrive::WriteOptions group;
    group.group = 1;
    std::size_t bits = cfg.geometry.pageBits() * 8;
    core::Expr a = core::Expr::leaf(
        drive.fcWrite(test::randomVec(rng, bits), group));
    core::Expr b = core::Expr::leaf(
        drive.fcWrite(test::randomVec(rng, bits), group));
    core::Expr c = core::Expr::leaf(
        drive.fcWrite(test::randomVec(rng, bits), group));
    drive.fcRead(core::Expr::And({a, b, c}));
    drive.fcRead(core::Expr::Xor(b, c));
}

TEST(ObsEndToEndTest, DriveTraceIsSchemaValid)
{
    obs::ScopedCapture cap(/*trace=*/true, /*metrics=*/false);
    runSmallWorkload(/*workers=*/1);
    EXPECT_GT(cap.tracer().events(), 0u);
    EXPECT_TRUE(test::IsValidChromeTrace(cap.traceJson()));
}

TEST(ObsEndToEndTest, MetricsSnapshotMatchesGolden)
{
    // Pins the deterministic metrics render for the small workload.
    // Regenerate with FCOS_UPDATE_GOLDEN=1 after an intentional change
    // to metric names, table layout, or scheduler behaviour.
    obs::ScopedCapture cap(/*trace=*/false, /*metrics=*/true);
    runSmallWorkload(/*workers=*/1);
    EXPECT_TRUE(
        test::MatchesGolden(cap.metricsText(), "golden/obs_metrics.txt"));
}

/** Stream digest of a multi-die AND3 (third operand stored inverted),
 *  two rows per plane column, read into a DigestSink. */
std::uint64_t
and3StreamDigest()
{
    core::FlashCosmosDrive::Config cfg;
    cfg.channels = 2;
    cfg.dies = 2;
    cfg.geometry.planesPerDie = 2;
    core::FlashCosmosDrive drive(cfg);

    const std::uint64_t pages = 2 * cfg.columnCount();
    auto gen = [](std::uint64_t vec) {
        return [vec](std::uint64_t j) {
            return nand::PageImage::random(Rng::mix(9100 + vec, j));
        };
    };
    const std::uint64_t group = 5;
    core::VectorId a = drive.fcWritePages(gen(0), pages, {group, false});
    core::VectorId b = drive.fcWritePages(gen(1), pages, {group, false});
    core::VectorId c = drive.fcWritePages(gen(2), pages, {group, true});

    core::DigestSink digest;
    drive.fcRead(core::Expr::And({core::Expr::leaf(a), core::Expr::leaf(b),
                                  core::Expr::leaf(c)}),
                 digest);
    return digest.digest();
}

TEST(ObsEndToEndTest, CaptureLeavesStreamDigestUnchanged)
{
    const std::uint64_t plain = and3StreamDigest();
    obs::ScopedCapture cap(/*trace=*/true, /*metrics=*/true);
    EXPECT_EQ(and3StreamDigest(), plain);
    EXPECT_GT(cap.tracer().events(), 0u);
    EXPECT_FALSE(cap.metricsRegistry().empty());
}

TEST(ObsEndToEndTest, DisabledHooksRecordNothing)
{
    ASSERT_FALSE(obs::traceOn());
    ASSERT_FALSE(obs::metricsOn());
    runSmallWorkload(/*workers=*/1); // must not crash or record
    {
        obs::ScopedCapture cap(/*trace=*/true, /*metrics=*/true);
        // Nothing was constructed inside the scope: both stay empty.
        EXPECT_EQ(cap.tracer().events(), 0u);
        EXPECT_TRUE(cap.metricsRegistry().empty());
    }
}

} // namespace
} // namespace fcos
