#include "platforms/reports.h"

#include "core/drive.h"
#include "nand/chip.h"
#include "nand/power_model.h"
#include "nand/timing_model.h"
#include "reliability/bch.h"
#include "reliability/error_injector.h"
#include "reliability/randomizer.h"
#include "reliability/vth_model.h"
#include "util/rng.h"
#include "util/units.h"

namespace fcos::plat {

TablePrinter
tab01SsdTable(const ssd::SsdConfig &c)
{
    TablePrinter t("Simulated SSD");
    t.setHeader({"parameter", "paper", "this build"});
    auto row = [&](const char *name, const char *paper,
                   std::string val) {
        t.addRow({name, paper, std::move(val)});
    };
    row("channels", "8", std::to_string(c.channels));
    row("dies/channel", "8", std::to_string(c.dies));
    row("planes/die", "2", std::to_string(c.geometry.planesPerDie));
    row("blocks/plane", "2048",
        std::to_string(c.geometry.blocksPerPlane));
    row("WLs/block", "192 (4x48)",
        std::to_string(c.geometry.wordlinesPerBlock()) + " (" +
            std::to_string(c.geometry.subBlocksPerBlock) + "x" +
            std::to_string(c.geometry.wordlinesPerSubBlock) + ")");
    row("page size", "16 KiB", formatBytes(c.geometry.pageBytes));
    row("external I/O", "8 GB/s (PCIe Gen4 x4)",
        TablePrinter::cell(c.io.externalGBps, 1) + " GB/s");
    row("channel I/O rate", "1.2 GB/s",
        TablePrinter::cell(c.io.channelGBps, 1) + " GB/s");
    row("tR (SLC)", "22.5 us", formatTime(c.timings.tReadSlc));
    row("tMWS (max 4 blocks)", "25 us", formatTime(c.timings.tMwsFixed));
    row("tPROG SLC/MLC/TLC", "200/500/700 us",
        formatTime(c.timings.tProgSlc) + " / " +
            formatTime(c.timings.tProgMlc) + " / " +
            formatTime(c.timings.tProgTlc));
    row("tESP", "400 us",
        formatTime(c.timings.programLatency(nand::ProgramMode::SlcEsp)));
    row("tBERS", "3-5 ms", formatTime(c.timings.tErase));
    row("ISP accel energy", "93 pJ / 64 B",
        TablePrinter::cell(c.io.accelPjPer64B, 0) + " pJ / 64 B");
    row("inter-block MWS cap", "4 blocks",
        std::to_string(core::PlanCommand::kMaxStrings));
    return t;
}

TablePrinter
tab01HostTable(const host::HostConfig &h)
{
    TablePrinter t("Real host system (modelled)");
    t.setHeader({"parameter", "paper", "this build"});
    t.addRow({"CPU", "i7-11700K, 8 cores, 3.6 GHz",
              "throughput model (see host/host_model.h)"});
    t.addRow({"main memory", "64 GB DDR4-3600 x4",
              TablePrinter::cell(h.dramGBps, 1) + " GB/s peak"});
    t.addRow({"bitwise stream rate", "(measured)",
              TablePrinter::cell(h.streamGBps, 1) + " GB/s"});
    t.addRow({"package power (streaming)", "(RAPL)",
              TablePrinter::cell(h.cpuActiveWatts, 0) + " W"});
    return t;
}

TablePrinter
fig12MwsLatencyTable()
{
    nand::TimingModel tm;
    TablePrinter t("tMWS / tR vs wordlines read");
    t.setHeader({"wordlines", "tMWS/tR", "tMWS", "serial reads"});
    for (std::uint32_t n : {1u, 2u, 4u, 8u, 16u, 24u, 32u, 40u, 48u}) {
        double factor = nand::TimingModel::intraBlockFactor(n);
        Time t_mws = tm.mwsLatency(n, 1);
        t.addRow({std::to_string(n), TablePrinter::cell(factor, 4),
                  formatTime(t_mws),
                  formatTime(n * tm.timings().tReadSlc)});
    }
    return t;
}

wl::Workload
figure7Workload()
{
    wl::Workload w;
    w.name = "fig7";
    w.paramName = "-";
    wl::OpBatch b;
    b.andOperands = 0;
    b.orOperands = 3;
    b.operandBytes = 1ULL << 20;
    b.resultToHost = true;
    b.hostPostProcess = false;
    w.batches.push_back(b);
    return w;
}

TablePrinter
fig07TimelineTable(const PlatformRunner &runner)
{
    const wl::Workload w = figure7Workload();
    TablePrinter t("Per-channel execution timeline (engine path)");
    t.setHeader({"platform", "exec time", "paper", "plane busy",
                 "channel busy", "external busy", "bottleneck"});

    struct Row
    {
        PlatformKind kind;
        const char *paper;
    };
    for (const Row &r : {Row{PlatformKind::Osp, "471 us"},
                         Row{PlatformKind::Isp, "431 us"},
                         Row{PlatformKind::ParaBit, "335 us"}}) {
        RunResult res = runner.run(r.kind, w);
        const char *bottleneck = "sensing";
        if (res.externalBusy >= res.channelBusy &&
            res.externalBusy >= res.planeBusy)
            bottleneck = "external I/O";
        else if (res.channelBusy >= res.planeBusy)
            bottleneck = "internal I/O";
        t.addRow({platformName(r.kind), formatTime(res.makespan),
                  r.paper, formatTime(res.planeBusy),
                  formatTime(res.channelBusy),
                  formatTime(res.externalBusy), bottleneck});
    }
    return t;
}

rel::ChipFarm::Config
fig08FarmConfig()
{
    rel::ChipFarm::Config cfg;
    cfg.chips = 40;
    cfg.blocksPerChip = 40;
    return cfg;
}

namespace {

/** The Figure 8 measurement grid (paper Section 5.1). */
const std::uint32_t kFig08Pecs[] = {0, 1000, 2000, 3000, 6000, 10000};
const double kFig08Months[] = {0.0, 1.0, 2.0, 3.0, 6.0, 12.0};

} // namespace

TablePrinter
fig08RberPanel(const rel::ChipFarm &farm, nand::ProgramMode mode,
               bool randomized)
{
    std::string title = std::string("Avg. RBER [x1e-3], ") +
                        (mode == nand::ProgramMode::Mlc ? "MLC" : "SLC") +
                        "-mode, " + (randomized ? "with" : "without") +
                        " data randomization";
    TablePrinter t(title);
    t.setHeader({"PEC \\ months", "0", "1", "2", "3", "6", "12"});
    for (std::uint32_t pec : kFig08Pecs) {
        std::vector<std::string> row{std::to_string(pec / 1000) + "K"};
        for (double mo : kFig08Months) {
            double rber = farm.averageRber(
                mode, rel::OperatingCondition{pec, mo, randomized});
            row.push_back(TablePrinter::cell(rber * 1e3, 3));
        }
        t.addRow(row);
    }
    return t;
}

std::string
fig08RberReport(const rel::ChipFarm &farm)
{
    std::string out;
    for (nand::ProgramMode mode :
         {nand::ProgramMode::SlcRegular, nand::ProgramMode::Mlc}) {
        for (bool randomized : {true, false}) {
            if (!out.empty())
                out += "\n";
            out += fig08RberPanel(farm, mode, randomized).toString();
        }
    }
    return out;
}

TablePrinter
fig11EspTable(const rel::ChipFarm &farm,
              const rel::OperatingCondition &cond)
{
    TablePrinter t("RBER per 1-KiB data vs ESP latency");
    t.setHeader({"tESP/tPROG", "tESP", "worst", "median", "best"});
    for (double f :
         {1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0}) {
        auto p = farm.espRber(f, cond);
        char lat[32];
        std::snprintf(lat, sizeof(lat), "%.0f us", 200.0 * f);
        t.addRow({TablePrinter::cell(f, 1), lat,
                  TablePrinter::cellSci(p.worst),
                  TablePrinter::cellSci(p.median),
                  TablePrinter::cellSci(p.best)});
    }
    return t;
}

TablePrinter
fig11CampaignTable(const rel::ChipFarm &farm,
                   const rel::OperatingCondition &cond,
                   std::uint64_t total_bits)
{
    TablePrinter t("Observed errors by tESP");
    t.setHeader({"tESP/tPROG", "observed errors", "expected errors"});
    for (double f : {1.5, 1.7, 1.9, 2.0}) {
        nand::PageMeta meta;
        meta.mode = nand::ProgramMode::SlcEsp;
        meta.espFactor = f;
        auto camp = farm.runCampaign(meta, cond, total_bits);
        t.addRow({TablePrinter::cell(f, 1),
                  TablePrinter::cellInt(
                      static_cast<long long>(camp.errors)),
                  TablePrinter::cellSci(camp.expectedErrors)});
    }
    return t;
}

namespace {

/** OR of n blocks' wordline 0 via one inter-block MWS, checked
 *  against the reference fold at a zero-error operating point. */
bool
fig13Validate(std::uint32_t n, Rng &rng)
{
    rel::VthModel model;
    rel::OperatingCondition worst{10000, 12.0, false};
    rel::VthErrorInjector inj(model, worst);
    nand::Geometry geom = nand::Geometry::tiny();
    geom.blocksPerPlane = 32;
    nand::NandChip chip(geom, nand::Timings{}, &inj);

    BitVector expected(geom.pageBits(), false);
    nand::MwsCommand cmd;
    cmd.plane = 0;
    for (std::uint32_t b = 0; b < n; ++b) {
        BitVector v(geom.pageBits());
        v.randomize(rng, 0.2);
        chip.programPageEsp({0, b, 0, 0}, v, nand::EspParams{});
        expected |= v;
        cmd.selections.push_back(nand::WlSelection{b, 0, 1});
    }
    chip.executeMws(cmd);
    return chip.dataOut(0) == expected;
}

} // namespace

TablePrinter
fig13InterMwsTable()
{
    Rng rng = Rng::seeded(13);
    nand::TimingModel tm;
    TablePrinter t("tMWS / tR vs activated blocks");
    t.setHeader({"blocks", "tMWS/tR", "tMWS", "serial reads",
                 "zero errors"});
    for (std::uint32_t n : {1u, 2u, 4u, 8u, 16u, 32u}) {
        double factor = nand::TimingModel::interBlockFactor(n);
        t.addRow({std::to_string(n), TablePrinter::cell(factor, 4),
                  formatTime(tm.mwsLatency(1, n)),
                  formatTime(n * tm.timings().tReadSlc),
                  fig13Validate(n, rng) ? "yes" : "NO"});
    }
    return t;
}

TablePrinter
fig14PowerTable()
{
    TablePrinter t("Power normalized to a regular page read");
    t.setHeader({"blocks", "MWS power", "vs read", "vs program",
                 "vs erase"});
    for (std::uint32_t n : {1u, 2u, 3u, 4u, 5u}) {
        double p = nand::PowerModel::interBlockMwsPower(n);
        t.addRow({std::to_string(n), TablePrinter::cell(p, 3),
                  TablePrinter::cell(p / nand::PowerModel::kReadPower,
                                     2) +
                      "x",
                  p < nand::PowerModel::kProgramPower ? "below" : "above",
                  p < nand::PowerModel::kErasePower ? "below" : "above"});
    }
    return t;
}

TablePrinter
fig17SpeedupTable(const std::vector<SweepSeries> &series)
{
    TablePrinter t("Speedup over OSP per sweep point");
    t.setHeader({"series", "param", "OSP time", "ISP x", "PB x", "FC x"});
    for (const SweepSeries &s : series) {
        for (const SweepPoint &p : s.points) {
            t.addRow({s.name,
                      p.workload.paramName + "=" +
                          std::to_string(p.workload.paramValue),
                      formatTime(p.osp.makespan),
                      TablePrinter::cell(p.speedup(PlatformKind::Isp), 2),
                      TablePrinter::cell(
                          p.speedup(PlatformKind::ParaBit), 2),
                      TablePrinter::cell(
                          p.speedup(PlatformKind::FlashCosmos), 2)});
        }
    }
    return t;
}

TablePrinter
fig18EnergyTable(const std::vector<SweepSeries> &series)
{
    TablePrinter t("Energy-efficiency ratio over OSP per sweep point");
    t.setHeader(
        {"series", "param", "OSP energy", "ISP x", "PB x", "FC x"});
    for (const SweepSeries &s : series) {
        for (const SweepPoint &p : s.points) {
            t.addRow(
                {s.name,
                 p.workload.paramName + "=" +
                     std::to_string(p.workload.paramValue),
                 formatEnergy(p.osp.energyJ),
                 TablePrinter::cell(p.energyRatio(PlatformKind::Isp), 2),
                 TablePrinter::cell(p.energyRatio(PlatformKind::ParaBit),
                                    2),
                 TablePrinter::cell(
                     p.energyRatio(PlatformKind::FlashCosmos), 2)});
        }
    }
    return t;
}

// ---------------------------------------------------------------------
// Ablation tables.

TablePrinter
ablationBlockLimitTable()
{
    using nand::PowerModel;
    const std::uint32_t operands = 32;
    nand::TimingModel tm;

    TablePrinter t("Cap sweep");
    t.setHeader({"cap", "MWS ops", "sense time", "peak power",
                 "within erase budget", "sense energy"});
    for (std::uint32_t cap : {1u, 2u, 4u, 8u, 16u, 32u}) {
        std::uint32_t ops = (operands + cap - 1) / cap;
        Time per_op = tm.mwsLatency(1, cap);
        Time total = ops * per_op;
        double power = PowerModel::interBlockMwsPower(cap);
        double energy = ops * PowerModel::energy(power, per_op);
        t.addRow({std::to_string(cap), std::to_string(ops),
                  formatTime(total), TablePrinter::cell(power, 2),
                  power <= PowerModel::kErasePower ? "yes" : "NO",
                  formatEnergy(energy)});
    }
    return t;
}

TablePrinter
ablationDeMorganTable()
{
    nand::TimingModel tm;
    TablePrinter t("Sensing cost per result page for OR of N operands");
    t.setHeader({"N", "(a) serial reads", "(b) inter-block (cap 4)",
                 "(c) inverse intra-block"});
    for (std::uint32_t n : {2u, 4u, 8u, 16u, 32u, 48u, 96u}) {
        Time serial = n * tm.timings().tReadSlc;
        std::uint32_t inter_ops = (n + 3) / 4;
        Time inter = inter_ops * tm.mwsLatency(1, 4);
        std::uint32_t intra_ops = (n + 47) / 48;
        Time intra = intra_ops * tm.mwsLatency(std::min(n, 48u), 1);
        t.addRow({std::to_string(n),
                  formatTime(serial) + " (" + std::to_string(n) +
                      " ops)",
                  formatTime(inter) + " (" + std::to_string(inter_ops) +
                      " ops)",
                  formatTime(intra) + " (" + std::to_string(intra_ops) +
                      " ops)"});
    }
    return t;
}

TablePrinter
ablationMlcLsbTable()
{
    rel::VthModel model;
    rel::OperatingCondition worst{10000, 12.0, false};

    TablePrinter t("Operand-storage comparison");
    t.setHeader({"storage", "RBER", "errors per 16-KiB page",
                 "capacity vs MLC", "usable for error-intolerant apps"});
    auto row = [&](const char *name, double rber, const char *capacity) {
        double per_page = rber * 16 * 1024 * 8;
        t.addRow({name, TablePrinter::cellSci(rber),
                  TablePrinter::cell(per_page, per_page < 0.01 ? 6 : 1),
                  capacity, rber < 1e-11 ? "yes" : "no"});
    };
    row("ESP (tESP = 2x)", model.rberEsp(2.0, worst), "0.5x");
    row("regular SLC", model.rberSlc(worst), "0.5x");
    row("MLC, LSB pages only", model.rberMlcLsb(worst), "0.5x");
    row("MLC, both pages", model.rberMlc(worst), "1.0x");
    return t;
}

AblationPlacementCost
ablationPlacementQuery(bool colocated, int operands)
{
    using core::Expr;
    using core::FlashCosmosDrive;
    // Scattered placement burns one sub-block per operand; give the
    // drive enough blocks for the 16-operand case.
    FlashCosmosDrive::Config cfg;
    cfg.geometry.blocksPerPlane = 32;
    FlashCosmosDrive drive(cfg);
    Rng rng = Rng::seeded(77);
    std::vector<BitVector> data;
    std::vector<Expr> leaves;
    for (int i = 0; i < operands; ++i) {
        FlashCosmosDrive::WriteOptions opts;
        if (colocated)
            opts.group = 1; // same NAND strings
        // else: default auto group — every vector in its own sub-block
        BitVector v(1024);
        v.randomize(rng);
        leaves.push_back(Expr::leaf(drive.fcWrite(v, opts)));
        data.push_back(std::move(v));
    }
    FlashCosmosDrive::ReadStats stats;
    BitVector result = drive.fcRead(Expr::And(leaves), &stats);
    BitVector expected = data[0];
    for (int i = 1; i < operands; ++i)
        expected &= data[i];
    return AblationPlacementCost{stats.mwsCommands / stats.resultPages,
                                 stats.nandTime, stats.nandEnergyJ,
                                 result == expected};
}

TablePrinter
ablationPlacementTable()
{
    TablePrinter t("Placement comparison");
    t.setHeader({"operands", "layout", "MWS/page", "NAND time",
                 "NAND energy", "correct"});
    for (int n : {4, 8, 16}) {
        for (bool coloc : {true, false}) {
            AblationPlacementCost c = ablationPlacementQuery(coloc, n);
            t.addRow({std::to_string(n),
                      coloc ? "co-located group" : "scattered",
                      std::to_string(c.commandsPerPage),
                      formatTime(c.nandTime), formatEnergy(c.energyJ),
                      c.correct ? "yes" : "NO"});
        }
    }
    return t;
}

TablePrinter
ablationXorEncryptionTable(AblationXorStats *stats)
{
    using core::Expr;
    using core::FlashCosmosDrive;
    // 16-Kib vectors need more room than the tiny test geometry.
    FlashCosmosDrive::Config cfg;
    cfg.geometry.pageBytes = 512;
    cfg.geometry.blocksPerPlane = 64;
    FlashCosmosDrive drive(cfg);
    Rng rng = Rng::seeded(21);

    // "Encrypt" an image by XOR-ing with a key stream (the optical
    // image-encryption scheme ParaBit evaluates).
    const std::size_t bits = 16384;
    BitVector image(bits), key(bits);
    image.randomize(rng);
    key.randomize(rng);
    core::VectorId vi = drive.fcWrite(image);
    core::VectorId vk = drive.fcWrite(key);

    FlashCosmosDrive::ReadStats enc_stats;
    BitVector cipher = drive.fcRead(
        Expr::Xor(Expr::leaf(vi), Expr::leaf(vk)), &enc_stats);

    // Decrypt: XOR with the key again.
    core::VectorId vc = drive.fcWrite(cipher);
    BitVector plain =
        drive.fcRead(Expr::Xor(Expr::leaf(vc), Expr::leaf(vk)));

    if (stats) {
        stats->encryptChanges = (cipher != image);
        stats->roundTrips = (plain == image);
        stats->sensesPerPage =
            enc_stats.senses / enc_stats.resultPages;
    }

    TablePrinter t("XOR encryption in flash");
    t.setHeader({"metric", "value"});
    t.addRow({"cipher != plaintext", cipher != image ? "yes" : "NO"});
    t.addRow(
        {"decrypt(encrypt(x)) == x", plain == image ? "yes" : "NO"});
    t.addRow({"senses per result page",
              std::to_string(enc_stats.senses / enc_stats.resultPages)});
    t.addRow({"serial reads ParaBit would need per page", "2"});
    return t;
}

TablePrinter
ablationEccTable(AblationEccStats *stats)
{
    Rng rng = Rng::seeded(99);
    rel::BchCode code(10, 4);
    AblationEccStats s;
    s.trials = 50;
    for (int i = 0; i < s.trials; ++i) {
        BitVector d1(code.k()), d2(code.k());
        d1.randomize(rng);
        d2.randomize(rng);
        BitVector cw = code.encode(d1) & code.encode(d2);
        rel::BchDecodeResult r = code.decode(cw);
        if (!r.ok)
            ++s.rejected;
        else if (code.extractData(cw) != (d1 & d2))
            ++s.miscorrected;
        else
            ++s.acceptedCorrect;
    }
    if (stats)
        *stats = s;

    TablePrinter t("AND of two valid BCH(1023, k, t=4) codewords");
    t.setHeader({"outcome", "count"});
    t.addRow({"decode failure", std::to_string(s.rejected)});
    t.addRow({"decodes to WRONG data", std::to_string(s.miscorrected)});
    t.addRow(
        {"decodes to AND of payloads", std::to_string(s.acceptedCorrect)});
    return t;
}

TablePrinter
ablationRandomizationTable(int *derand_ok_out)
{
    Rng rng = Rng::seeded(98);
    rel::Randomizer randomizer;
    const int trials = 50;
    int derand_ok = 0;
    std::size_t total_damage = 0;
    for (int i = 0; i < trials; ++i) {
        BitVector a(4096), b(4096);
        a.randomize(rng);
        b.randomize(rng);
        BitVector sa = a, sb = b;
        randomizer.apply(sa, 2 * static_cast<std::uint64_t>(i));
        randomizer.apply(sb, 2 * static_cast<std::uint64_t>(i) + 1);
        BitVector sensed = sa & sb; // what in-flash AND would return
        randomizer.apply(sensed, 2 * static_cast<std::uint64_t>(i));
        if (sensed == (a & b))
            ++derand_ok;
        total_damage += sensed.hammingDistance(a & b);
    }
    if (derand_ok_out)
        *derand_ok_out = derand_ok;

    TablePrinter t("AND of two randomized 4-Kib pages, de-randomized");
    t.setHeader({"outcome", "value"});
    t.addRow({"trials recovering AND of payloads",
              std::to_string(derand_ok) + " / " +
                  std::to_string(trials)});
    t.addRow({"average corrupted bits per page",
              std::to_string(total_damage / trials) + " / 4096"});
    return t;
}

} // namespace fcos::plat
