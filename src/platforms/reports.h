/**
 * @file
 * Shared builders for the paper-figure tables that benches print and
 * tests pin as goldens.
 *
 * A bench that assembles its table inline can drift silently: the
 * binary still runs, the numbers change, nobody notices. Building the
 * table in one place lets bench drivers print it and a golden test
 * diff the exact same string against tests/data/golden/, so any drift
 * in configuration constants or model curves fails CI.
 */

#ifndef FCOS_PLATFORMS_REPORTS_H
#define FCOS_PLATFORMS_REPORTS_H

#include <vector>

#include "host/host_model.h"
#include "platforms/runner.h"
#include "platforms/sweep.h"
#include "reliability/chip_farm.h"
#include "ssd/config.h"
#include "util/table.h"

namespace fcos::plat {

/** Table 1 (SSD half): every configured parameter vs the paper. */
TablePrinter tab01SsdTable(const ssd::SsdConfig &cfg);

/** Table 1 (host half). */
TablePrinter tab01HostTable(const host::HostConfig &cfg);

/**
 * Figure 12: intra-block MWS latency (tMWS as a multiple of tR) vs
 * simultaneously read wordlines, from the calibrated timing model.
 * (The functional zero-error validation stays in the bench driver —
 * it needs the reliability stack.)
 */
TablePrinter fig12MwsLatencyTable();

/**
 * Figure 7: per-channel execution timelines of OSP, ISP and in-flash
 * processing for the illustrative OR of three 1-MiB vectors, with the
 * busiest resource called out per platform. Runs through @p runner,
 * so the pinned golden certifies the engine-produced timeline.
 */
TablePrinter fig07TimelineTable(const PlatformRunner &runner);

/** The Figure 7 micro-workload (OR of three 1-MiB vectors). */
wl::Workload figure7Workload();

/**
 * Figure 17: speedup over OSP per sweep point, one section per
 * workload series. Shared by the bench (full paper grids) and the
 * golden test (reduced grids) so the formatting and arithmetic cannot
 * drift between them.
 */
TablePrinter fig17SpeedupTable(const std::vector<SweepSeries> &series);

/** Figure 18: energy-efficiency ratios over OSP per sweep point. */
TablePrinter fig18EnergyTable(const std::vector<SweepSeries> &series);

/**
 * The reduced chip population the Figure 8 bench prints with and the
 * golden test pins — per-block statistics are analytic, so the
 * population size only affects the process-variation average.
 */
rel::ChipFarm::Config fig08FarmConfig();

/**
 * One Figure 8 panel: population-average RBER across the (P/E cycles,
 * retention months) measurement grid for a programming mode, with or
 * without data randomization.
 */
TablePrinter fig08RberPanel(const rel::ChipFarm &farm,
                            nand::ProgramMode mode, bool randomized);

/** All four Figure 8 panels (SLC/MLC x randomization) concatenated. */
std::string fig08RberReport(const rel::ChipFarm &farm);

/** Figure 11: RBER vs tESP for the worst / median / best block. */
TablePrinter fig11EspTable(const rel::ChipFarm &farm,
                           const rel::OperatingCondition &cond);

/**
 * Figure 11's zero-error validation campaigns: observed vs expected
 * error counts over @p total_bits at tESP factors 1.5 / 1.7 / 1.9 /
 * 2.0 (Poisson-sampled from the analytic rates).
 */
TablePrinter fig11CampaignTable(const rel::ChipFarm &farm,
                                const rel::OperatingCondition &cond,
                                std::uint64_t total_bits);

/**
 * Figure 13: inter-block MWS latency vs simultaneously activated
 * blocks, each point functionally validated (an inter-block MWS over
 * error-injected chips must still reproduce the reference OR).
 */
TablePrinter fig13InterMwsTable();

/**
 * Figure 14: normalized chip power of inter-block MWS vs activated
 * blocks, against the read / program / erase reference lines.
 */
TablePrinter fig14PowerTable();

// ---------------------------------------------------------------------
// Ablation tables (bench/ablation_*.cc print these; the golden test
// pins them, so the ablation conclusions cannot drift silently).

/** Ablation: inter-block MWS fan-in cap sweep for a 32-operand bulk
 *  OR — latency, peak power vs the erase budget, sensing energy. */
TablePrinter ablationBlockLimitTable();

/** Ablation: bulk-OR sensing cost by execution strategy (serial
 *  reads vs capped inter-block MWS vs §6.1 inverse intra-block). */
TablePrinter ablationDeMorganTable();

/** Ablation: operand-storage reliability comparison (ESP vs regular
 *  SLC vs MLC-LSB vs MLC) at the worst-case operating point. */
TablePrinter ablationMlcLsbTable();

/** Measured cost of one placement-ablation query on the functional
 *  drive (co-located group vs scattered sub-blocks). */
struct AblationPlacementCost
{
    std::uint64_t commandsPerPage = 0;
    Time nandTime = 0;
    double energyJ = 0.0;
    bool correct = false;
};

AblationPlacementCost ablationPlacementQuery(bool colocated,
                                             int operands);

/** Ablation: co-located vs scattered operand placement for bulk AND,
 *  executed on the functional drive (Section 6.3's contract). */
TablePrinter ablationPlacementTable();

/** Outcome counters of the XOR-encryption ablation run. */
struct AblationXorStats
{
    bool encryptChanges = false; ///< cipher != plaintext
    bool roundTrips = false;     ///< decrypt(encrypt(x)) == x
    std::uint64_t sensesPerPage = 0;
};

/** Ablation: in-flash XOR encryption (footnote 13) — bit-exact but
 *  one sense per operand, so MWS gains nothing. */
TablePrinter ablationXorEncryptionTable(AblationXorStats *stats =
                                            nullptr);

/** Outcome counters of the ECC-incompatibility trials. */
struct AblationEccStats
{
    int rejected = 0;
    int miscorrected = 0;
    int acceptedCorrect = 0;
    int trials = 0;
};

/** Ablation (Section 3.2): AND of two valid BCH codewords is not a
 *  codeword — decode outcomes over seeded random trials. */
TablePrinter ablationEccTable(AblationEccStats *stats = nullptr);

/** Ablation (Section 3.2): AND of two randomized pages cannot be
 *  de-randomized — recovery outcomes over seeded random trials.
 *  @p derand_ok receives how many trials recovered the payload AND. */
TablePrinter ablationRandomizationTable(int *derand_ok = nullptr);

} // namespace fcos::plat

#endif // FCOS_PLATFORMS_REPORTS_H
