/**
 * @file
 * Google-benchmark microbenchmarks of the simulation substrate:
 * event-queue throughput, bulk bit-vector operations, seeded page
 * generation, MWS execution on
 * the functional chip, BCH coding, and plan compilation. These bound
 * how large a workload the timing/functional simulators can sustain.
 */

#include "bench/minibench.h"

#include "core/drive.h"
#include "nand/chip.h"
#include "reliability/bch.h"
#include "sim/event_queue.h"
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

void
BM_BitVectorAnd(benchmark::State &state)
{
    const std::size_t bits = static_cast<std::size_t>(state.range(0));
    Rng rng = Rng::seeded(1);
    BitVector a(bits), b(bits);
    a.randomize(rng);
    b.randomize(rng);
    for (auto _ : state) {
        a &= b;
        benchmark::DoNotOptimize(a.words().data());
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(bits / 8));
}
BENCHMARK(BM_BitVectorAnd)->Arg(16 * 1024 * 8)->Arg(1024 * 1024 * 8);

void
BM_BitVectorRandomize(benchmark::State &state)
{
    // One 16-KiB page at density range(0)/100: 50 takes the one-word-
    // per-draw path (bulk AND3 operands), any other density the
    // one-draw-per-bit Bernoulli path (98: the BMI bitmaps). This is
    // the kernel behind NAND page materialization.
    const double p_one = static_cast<double>(state.range(0)) / 100.0;
    Rng rng = Rng::seeded(3);
    BitVector page(16 * 1024 * 8);
    for (auto _ : state) {
        page.randomize(rng, p_one);
        benchmark::DoNotOptimize(page.words().data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations()); // pages
}
BENCHMARK(BM_BitVectorRandomize)->Arg(50)->Arg(98);

void
BM_ChipMws48(benchmark::State &state)
{
    nand::Geometry geom = nand::Geometry::tiny();
    geom.wordlinesPerSubBlock = 48;
    geom.pageBytes = 16 * 1024;
    nand::NandChip chip(geom);
    Rng rng = Rng::seeded(2);
    std::uint64_t mask = 0;
    for (std::uint32_t wl = 0; wl < 48; ++wl) {
        BitVector v(geom.pageBits());
        v.randomize(rng);
        chip.programPage({0, 0, 0, wl}, v);
        mask |= 1ULL << wl;
    }
    nand::MwsCommand cmd;
    cmd.plane = 0;
    cmd.selections.push_back(nand::WlSelection{0, 0, mask});
    for (auto _ : state) {
        chip.executeMws(cmd);
        benchmark::DoNotOptimize(chip.dataOut(0).words().data());
    }
    state.SetItemsProcessed(state.iterations() * 48);
}
BENCHMARK(BM_ChipMws48);

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

void
BM_PlannerFig16(benchmark::State &state)
{
    core::FlashCosmosDrive drive;
    core::FlashCosmosDrive::WriteOptions pa, pb, ic, id;
    pa.group = 1;
    pb.group = 2;
    ic.group = 3;
    ic.storeInverted = true;
    id.group = 4;
    id.storeInverted = true;
    Rng rng = Rng::seeded(5);
    auto mk = [&](core::FlashCosmosDrive::WriteOptions &o) {
        BitVector v(256);
        v.randomize(rng);
        return core::Expr::leaf(drive.fcWrite(v, o));
    };
    core::Expr a1 = mk(pa);
    core::Expr b1 = mk(pb), b2 = mk(pb), b3 = mk(pb), b4 = mk(pb);
    core::Expr c1 = mk(ic), c3 = mk(ic);
    core::Expr d2 = mk(id), d4 = mk(id);
    core::Expr expr = core::Expr::And(
        {core::Expr::Or({a1, core::Expr::And({b1, b2, b3, b4})}),
         core::Expr::Or({c1, c3}), core::Expr::Or({d2, d4})});
    for (auto _ : state) {
        core::MwsPlan plan = drive.planFor(expr);
        benchmark::DoNotOptimize(plan.commands.size());
    }
}
BENCHMARK(BM_PlannerFig16);

void
BM_DriveFcReadAnd8(benchmark::State &state)
{
    core::FlashCosmosDrive drive;
    core::FlashCosmosDrive::WriteOptions group;
    group.group = 1;
    Rng rng = Rng::seeded(6);
    std::vector<core::Expr> leaves;
    for (int i = 0; i < 8; ++i) {
        BitVector v(8192);
        v.randomize(rng);
        leaves.push_back(core::Expr::leaf(drive.fcWrite(v, group)));
    }
    core::Expr expr = core::Expr::And(leaves);
    for (auto _ : state) {
        BitVector r = drive.fcRead(expr);
        benchmark::DoNotOptimize(r.words().data());
    }
    state.SetBytesProcessed(state.iterations() * 8192 / 8);
}
BENCHMARK(BM_DriveFcReadAnd8);

} // namespace

BENCHMARK_MAIN();
