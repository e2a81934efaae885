/**
 * @file
 * Section 8.3 — sequential write bandwidth by programming mode,
 * measured on the compute engine's scheduler (host data over the
 * external link, data-in over the channels, programming on the
 * planes, one page per program operation).
 *
 * Paper anchors: regular SLC / MLC / TLC = 6.4 / 3.87 / 2.82 GB/s and
 * ESP = 4.7 GB/s — i.e. ESP costs write bandwidth vs regular SLC but
 * still beats MLC- and TLC-mode programming, so storing Flash-Cosmos
 * operands never becomes the SSD's write bottleneck.
 */

#include "bench/bench_util.h"
#include "engine/engine.h"
#include "nand/power_model.h"

using namespace fcos;

namespace {

/** Sequentially write @p total_bytes in @p mode; return GB/s. */
double
measure(nand::ProgramMode mode, std::uint64_t total_bytes)
{
    // Per-channel symmetric simulation, like the platform runner.
    ssd::SsdConfig cfg = ssd::SsdConfig::table1();
    ssd::SsdConfig chan = cfg;
    chan.channels = 1;
    chan.io.externalGBps = cfg.io.externalGBps / cfg.channels;

    engine::ComputeEngine eng(chan);
    engine::CommandScheduler &sched = eng.scheduler();
    const std::uint64_t page = cfg.geometry.pageBytes;
    const std::uint32_t planes_per_die = chan.geometry.planesPerDie;
    const std::uint32_t planes = chan.columnCount();
    Time t_prog = cfg.timings.programLatency(mode);
    double e_prog = nand::PowerModel::energy(
        nand::PowerModel::kProgramPower, t_prog);

    std::uint64_t pages =
        total_bytes / cfg.channels / page; // this channel's share
    for (std::uint64_t i = 0; i < pages; ++i) {
        std::uint32_t p = static_cast<std::uint32_t>(i % planes);
        // Host -> SSD, then the die data-in and the program pulse.
        sched.submitExternal(page, [&sched, p, planes_per_die, page,
                                    t_prog, e_prog] {
            sched.submit(engine::stepProgram(
                p / planes_per_die, p % planes_per_die,
                {engine::StepKind::Program,
                 [t_prog, e_prog](nand::NandChip &) {
                     return nand::OpResult{t_prog, e_prog};
                 },
                 0, /*dmaBeforeBytes=*/page}));
        });
    }
    Time makespan = eng.drain();
    return static_cast<double>(pages * page * cfg.channels) /
           static_cast<double>(makespan); // bytes/ns == GB/s
}

} // namespace

int
main(int argc, char **argv)
{
    fcos::bench::initObs(argc, argv);
    bench::header("Section 8.3",
                  "sequential write bandwidth by programming mode");

    const std::uint64_t total = 2ULL << 30; // 2 GiB written

    struct Row
    {
        const char *name;
        nand::ProgramMode mode;
        const char *paper;
    };
    double slc_bw = 0, esp_bw = 0, mlc_bw = 0, tlc_bw = 0;

    TablePrinter t("Sequential write bandwidth");
    t.setHeader({"mode", "tPROG", "measured", "paper"});
    for (const Row &r :
         {Row{"SLC (regular)", nand::ProgramMode::SlcRegular,
              "6.4 GB/s"},
          Row{"ESP", nand::ProgramMode::SlcEsp, "4.7 GB/s"},
          Row{"MLC", nand::ProgramMode::Mlc, "3.87 GB/s"},
          Row{"TLC", nand::ProgramMode::Tlc, "2.82 GB/s"}}) {
        double bw = measure(r.mode, total);
        if (r.mode == nand::ProgramMode::SlcRegular)
            slc_bw = bw;
        if (r.mode == nand::ProgramMode::SlcEsp)
            esp_bw = bw;
        if (r.mode == nand::ProgramMode::Mlc)
            mlc_bw = bw;
        if (r.mode == nand::ProgramMode::Tlc)
            tlc_bw = bw;
        ssd::SsdConfig cfg;
        t.addRow({r.name,
                  formatTime(cfg.timings.programLatency(r.mode)),
                  TablePrinter::cell(bw, 2) + " GB/s", r.paper});
    }
    t.print();
    std::printf("\n");

    bench::anchor("ESP / SLC write bandwidth", "73.4%",
                  TablePrinter::cell(esp_bw / slc_bw * 100, 1) + "%");
    bench::anchor("ESP / MLC", "121.4%",
                  TablePrinter::cell(esp_bw / mlc_bw * 100, 1) + "%");
    bench::anchor("ESP / TLC", "166.7%",
                  TablePrinter::cell(esp_bw / tlc_bw * 100, 1) + "%");
    bench::anchor("ordering", "TLC < MLC < ESP < SLC",
                  (tlc_bw < mlc_bw && mlc_bw < esp_bw &&
                   esp_bw < slc_bw)
                      ? "TLC < MLC < ESP < SLC"
                      : "MISMATCH");
    std::printf("\nNote: absolute SLC bandwidth is limited here by the "
                "modelled external link;\nthe paper's testbed includes "
                "additional per-program overheads.\n");
    return 0;
}
