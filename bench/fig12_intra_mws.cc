/**
 * @file
 * Figure 12 — intra-block MWS latency (tMWS as a multiple of tR) vs
 * number of simultaneously read wordlines, validated for correctness
 * on the functional chip at every point.
 *
 * Paper anchors: <1% extra latency up to 8 wordlines; +3.3% at 48.
 */

#include "bench/bench_util.h"
#include "nand/chip.h"
#include "nand/timing_model.h"
#include "platforms/reports.h"
#include "reliability/error_injector.h"
#include "reliability/patterns.h"
#include "util/rng.h"

using namespace fcos;
using nand::TimingModel;

namespace {

/**
 * Functional validation at one sweep point, following the Section 5.2
 * methodology: program the string with the MWS *worst-case* pattern
 * (maximum string resistance: < 2 '1' cells per string, all on target
 * wordlines) using ESP, sense via MWS under worst-case wear/retention,
 * and compare with the reference AND.
 */
bool
validate(std::uint32_t n, Rng &rng)
{
    rel::VthModel model;
    rel::OperatingCondition worst{10000, 12.0, false};
    rel::VthErrorInjector inj(model, worst);
    nand::Geometry geom = nand::Geometry::tiny();
    geom.wordlinesPerSubBlock = 48;
    nand::NandChip chip(geom, nand::Timings{}, &inj);

    std::uint64_t mask = (n >= 64) ? ~0ULL : ((1ULL << n) - 1);
    auto pages = rel::worstCaseMwsPattern(48, geom.pageBits(), mask, rng);
    fcos_assert(rel::satisfiesWorstCaseConstraints(pages, mask),
                "pattern generator violated its own constraints");

    BitVector expected(geom.pageBits(), true);
    for (std::uint32_t wl = 0; wl < 48; ++wl) {
        chip.programPageEsp({0, 0, 0, wl}, pages[wl]);
        if (mask & (1ULL << wl))
            expected &= pages[wl];
    }
    nand::MwsCommand cmd;
    cmd.plane = 0;
    cmd.selections.push_back(nand::WlSelection{0, 0, mask});
    chip.executeMws(cmd);
    return chip.dataOut(0) == expected;
}

} // namespace

int
main(int argc, char **argv)
{
    fcos::bench::initObs(argc, argv);
    bench::header("Figure 12",
                  "intra-block MWS latency vs number of read "
                  "wordlines (zero-error operating points)");

    Rng rng = Rng::seeded(12);

    // The latency table is shared with the golden test that pins it;
    // the worst-case functional validation stays here (it needs the
    // reliability stack).
    plat::fig12MwsLatencyTable().print();
    std::printf("\n");
    for (std::uint32_t n : {1u, 2u, 4u, 8u, 16u, 24u, 32u, 40u, 48u})
        bench::anchor("zero errors at " + std::to_string(n) +
                          " wordlines (worst-case pattern)",
                      "yes", validate(n, rng) ? "yes" : "NO");
    std::printf("\n");

    bench::anchor("tMWS at 8 wordlines", "< 1% over tR",
                  TablePrinter::cell(
                      (TimingModel::intraBlockFactor(8) - 1) * 100, 2) +
                      "% over tR");
    bench::anchor("tMWS at 48 wordlines", "+3.3%",
                  TablePrinter::cell(
                      (TimingModel::intraBlockFactor(48) - 1) * 100,
                      2) +
                      "%");
    bench::anchor(
        "48-operand AND vs serial reads", "~46x fewer sensing time",
        bench::ratioStr(48.0 / TimingModel::intraBlockFactor(48)));
    return 0;
}
