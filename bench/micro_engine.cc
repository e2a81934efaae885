/**
 * @file
 * Google-benchmark microbenchmarks of the kernels fcbench's layer
 * probes do not time on their own: event-queue throughput, the seeded
 * page-generation and popcount kernels at each ISA level, the result
 * digest of a full and of a tiny page, an MWS over the serving drive's
 * tiny pages, and BCH coding.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "core/result_sink.h"
#include "engine/result_stream.h"
#include "nand/chip.h"
#include "reliability/bch.h"
#include "sim/event_queue.h"
#include "util/bitvector.h"
#include "util/fnv.h"
#include "util/isa.h"
#include "util/rng.h"

using namespace fcos;

namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        EventQueue q;
        int sink = 0;
        for (int i = 0; i < n; ++i)
            q.schedule(static_cast<Time>(i), [&sink] { ++sink; });
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(65536);

// The dispatched kernels pinned to one ISA level, range(0) indexing
// kIsaLevels (0 baseline, 1 x86-64-v3, 2 x86-64-v4), each per 16-KiB
// page: the README's per-level table. Levels the host lacks are
// skipped.
bool
pinIsaLevel(benchmark::State &state, IsaLevel &level)
{
    level = kIsaLevels[state.range(0)];
    state.SetLabel(isaLevelName(level));
    if (isaLevelSupported(level))
        return true;
    state.SkipWithError("ISA level not supported on this host");
    return false;
}

void
BM_LessThanBitsAtLevel(benchmark::State &state)
{
    // A freshly seeded engine draws one page at p = 0.98 (the BMI
    // bitmaps' density).
    IsaLevel level;
    if (!pinIsaLevel(state, level))
        return;
    const std::uint64_t threshold = Rng::bernoulliThreshold(0.98);
    std::vector<std::uint64_t> page(2048);
    std::uint64_t seed = 0;
    for (auto _ : state) {
        Mt19937_64 eng(++seed, level);
        eng.lessThanBits(page.data(), page.size() * 64, threshold);
        benchmark::DoNotOptimize(page.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations()); // pages
}
BENCHMARK(BM_LessThanBitsAtLevel)->Arg(0)->Arg(1)->Arg(2);

void
BM_SeedFillAtLevel(benchmark::State &state)
{
    // Seed an engine and fill one page of words (the p = 0.5 path).
    IsaLevel level;
    if (!pinIsaLevel(state, level))
        return;
    std::vector<std::uint64_t> page(2048);
    std::uint64_t seed = 0;
    for (auto _ : state) {
        Mt19937_64 eng(++seed, level);
        eng.fill(page.data(), page.size());
        benchmark::DoNotOptimize(page.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations()); // pages
}
BENCHMARK(BM_SeedFillAtLevel)->Arg(0)->Arg(1)->Arg(2);

void
BM_PopcountAtLevel(benchmark::State &state)
{
    IsaLevel level;
    if (!pinIsaLevel(state, level))
        return;
    std::vector<std::uint64_t> page(2048);
    Rng rng(4);
    rng.fillU64(page.data(), page.size());
    for (auto _ : state) {
        benchmark::ClobberMemory();
        std::size_t ones = popcountWords(page.data(), page.size(), level);
        benchmark::DoNotOptimize(ones);
    }
    state.SetItemsProcessed(state.iterations()); // pages
}
BENCHMARK(BM_PopcountAtLevel)->Arg(0)->Arg(1)->Arg(2);

void
BM_DigestPage(benchmark::State &state)
{
    // The digest of one 16-KiB page, as PageSummary::of hashes a full
    // result page on its die's lane.
    std::vector<std::uint64_t> page(2048);
    Rng rng(5);
    rng.fillU64(page.data(), page.size());
    for (auto _ : state) {
        benchmark::ClobberMemory();
        std::uint64_t h = fnvDigestBits(page.data(), 64 * page.size());
        benchmark::DoNotOptimize(h);
    }
    state.SetItemsProcessed(state.iterations()); // pages
}
BENCHMARK(BM_DigestPage);

void
BM_DigestTinyPage(benchmark::State &state)
{
    // One 256-bit Geometry::tiny() result page summarized and folded
    // into a DigestSink: the serving path's digest work per page.
    BitVector page(256);
    Rng rng(6);
    rng.fillU64(page.words().data(), page.words().size());
    core::DigestSink sink;
    for (auto _ : state) {
        benchmark::ClobberMemory();
        sink.consume(core::ResultChunk{0, 0, 256, page,
                                       engine::PageSummary::of(page, 256)});
    }
    benchmark::DoNotOptimize(sink.digest());
    state.SetItemsProcessed(state.iterations()); // pages
}
BENCHMARK(BM_DigestTinyPage);

void
BM_SenseTinyPage(benchmark::State &state)
{
    // A 2-wordline MWS on a Geometry::tiny() chip holding random
    // images, stored inline: the serving drive's page layer, which
    // fcbench's nand.* probes (Table-1 pages) do not time.
    const nand::Geometry geom = nand::Geometry::tiny();
    nand::NandChip chip(geom);
    for (std::uint32_t wl = 0; wl < 2; ++wl)
        chip.programPageEsp({0, 0, 0, wl},
                            nand::PageImage::random(Rng::mix(11, wl)),
                            nand::EspParams{2.0});
    nand::MwsCommand cmd;
    cmd.selections.push_back(nand::WlSelection{0, 0, 0b11});
    for (auto _ : state) {
        nand::OpResult r = chip.executeMws(cmd);
        benchmark::DoNotOptimize(r.latency);
    }
    state.SetItemsProcessed(state.iterations()); // senses
}
BENCHMARK(BM_SenseTinyPage);

void
BM_BchEncode(benchmark::State &state)
{
    rel::BchCode code(10, 4);
    Rng rng = Rng::seeded(3);
    BitVector data(code.k());
    data.randomize(rng);
    for (auto _ : state) {
        BitVector cw = code.encode(data);
        benchmark::DoNotOptimize(cw.words().data());
    }
    state.SetBytesProcessed(state.iterations() * code.k() / 8);
}
BENCHMARK(BM_BchEncode);

void
BM_BchDecodeWithErrors(benchmark::State &state)
{
    rel::BchCode code(10, 4);
    Rng rng = Rng::seeded(4);
    BitVector data(code.k());
    data.randomize(rng);
    BitVector cw = code.encode(data);
    for (auto _ : state) {
        BitVector corrupted = cw;
        for (int e = 0; e < 4; ++e) {
            auto p =
                static_cast<std::size_t>(rng.nextBounded(code.n()));
            corrupted.set(p, !corrupted.get(p));
        }
        auto r = code.decode(corrupted);
        benchmark::DoNotOptimize(r.ok);
    }
}
BENCHMARK(BM_BchDecodeWithErrors);

} // namespace

BENCHMARK_MAIN();
