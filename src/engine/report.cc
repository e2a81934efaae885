#include "engine/report.h"

#include <algorithm>

#include "engine/engine.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/units.h"

namespace fcos::engine {

std::vector<ScalingConfig>
defaultScalingSweep()
{
    // Dies-per-channel growth exposes the channel-contention knee;
    // channel growth on top shows the independent-channel scaling.
    return {{1, 1}, {1, 2}, {1, 4}, {1, 8}, {2, 8}, {4, 8}, {8, 8}};
}

namespace {

/** Deterministic operand payload for (column, row, operand). */
BitVector
operandData(std::uint64_t page_bits, std::uint32_t col, std::uint32_t row,
            std::uint32_t op)
{
    Rng rng = Rng::seeded(0x5CA1E000ULL + (static_cast<std::uint64_t>(col)
                                           << 20) +
                          (static_cast<std::uint64_t>(row) << 8) + op);
    BitVector v(page_bits);
    v.randomize(rng);
    return v;
}

} // namespace

TablePrinter
scalingReport(const std::vector<ScalingConfig> &configs,
              std::uint64_t and_operands, std::uint32_t pages_per_column,
              std::uint32_t page_bytes, std::vector<ScalingPoint> *points)
{
    fcos_assert(and_operands >= 2 && and_operands < 64,
                "operand count must fit one PBM");
    fcos_assert(pages_per_column >= 1, "need at least one result page");

    const wl::Workload shape = wl::makeEngineScaling(
        and_operands, static_cast<std::uint64_t>(page_bytes) *
                          pages_per_column);

    nand::Geometry geom;
    geom.planesPerDie = 2;
    geom.blocksPerPlane = std::max<std::uint32_t>(2, pages_per_column);
    geom.subBlocksPerBlock = 1;
    geom.wordlinesPerSubBlock = static_cast<std::uint32_t>(and_operands);
    geom.pageBytes = page_bytes;
    const std::uint64_t wl_mask = (1ULL << and_operands) - 1;

    TablePrinter table(
        "Engine scaling — weak-scaling bulk AND of " +
        std::to_string(and_operands) + " operands (" + shape.name +
        "), one intra-block MWS per result page");
    table.setHeader({"channels", "dies/ch", "dies", "columns",
                     "operand data", "makespan", "GB/s", "GB/s/die",
                     "ch util", "bit-exact"});

    for (const ScalingConfig &sc : configs) {
        ssd::SsdConfig fc;
        fc.channels = sc.channels;
        fc.dies = sc.diesPerChannel;
        fc.geometry = geom;
        ComputeEngine eng(fc);
        const std::uint32_t cols = eng.farm().columnCount();
        const std::uint64_t page_bits = geom.pageBits();

        // Operands in place (instant functional programming), plus the
        // per-page reference AND the engine's results must reproduce.
        std::vector<BitVector> expected;
        expected.reserve(static_cast<std::size_t>(cols) *
                         pages_per_column);
        std::vector<ColumnProgram> programs;
        std::vector<BitVector> results(
            static_cast<std::size_t>(cols) * pages_per_column);
        std::vector<bool> arrived(results.size(), false);
        for (std::uint32_t col = 0; col < cols; ++col) {
            std::uint32_t die = eng.farm().dieOfColumn(col);
            std::uint32_t plane = eng.farm().planeOfColumn(col);
            for (std::uint32_t row = 0; row < pages_per_column; ++row) {
                BitVector ref(page_bits, true);
                for (std::uint32_t i = 0; i < and_operands; ++i) {
                    BitVector data = operandData(page_bits, col, row, i);
                    eng.farm().chip(die).programPageEsp(
                        {plane, row, 0, i}, data, nand::EspParams{});
                    ref &= data;
                }
                expected.push_back(std::move(ref));

                nand::MwsCommand cmd;
                cmd.plane = plane;
                cmd.selections.push_back(
                    nand::WlSelection{row, 0, wl_mask});
                ColumnProgram prog;
                prog.die = die;
                prog.plane = plane;
                prog.steps.push_back(ColumnStep{
                    StepKind::Sense,
                    [cmd](nand::NandChip &chip) {
                        return chip.executeMws(cmd);
                    },
                    0, 0, eng.farm().chip(die).mwsCost(cmd)});
                std::size_t slot =
                    static_cast<std::size_t>(col) * pages_per_column +
                    row;
                prog.onResult = [&results, &arrived,
                                 slot](BitVector page, PageSummary) {
                    results[slot] = std::move(page);
                    arrived[slot] = true;
                };
                programs.push_back(std::move(prog));
            }
        }

        OpStats stats;
        for (ColumnProgram &prog : programs)
            eng.scheduler().submit(std::move(prog), &stats);
        Time makespan = eng.drain();

        bool exact = true;
        for (std::size_t i = 0; i < results.size(); ++i)
            exact = exact && arrived[i] && results[i] == expected[i];

        const double bytes =
            static_cast<double>(and_operands) * pages_per_column * cols *
            page_bytes;
        const double gbps = bytes / static_cast<double>(makespan);
        const double per_die = gbps / fc.dieCount();
        Time busiest = 0;
        for (std::uint32_t c = 0; c < fc.channels; ++c)
            busiest = std::max(busiest, eng.channelBusyTime(c));
        const double util = static_cast<double>(busiest) /
                            static_cast<double>(makespan);

        table.addRow(
            {std::to_string(sc.channels),
             std::to_string(sc.diesPerChannel),
             std::to_string(fc.dieCount()), std::to_string(cols),
             formatBytes(static_cast<std::uint64_t>(bytes)),
             formatTime(makespan), TablePrinter::cell(gbps, 2),
             TablePrinter::cell(per_die, 2),
             TablePrinter::cell(util * 100.0, 1) + "%",
             exact ? "yes" : "NO"});

        if (points) {
            ScalingPoint p;
            p.config = sc;
            p.makespan = makespan;
            p.throughputGBps = gbps;
            p.perDieGBps = per_die;
            p.channelUtilization = util;
            p.energyJ = eng.totalEnergyJ();
            p.bitExact = exact;
            points->push_back(p);
        }
    }
    return table;
}

} // namespace fcos::engine
