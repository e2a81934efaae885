/**
 * @file
 * End-to-end SSD example: the fc_write / fc_read path (paper
 * Section 6.3) on the functional drive.
 *
 * Every request executes bit-exactly through the latch models on the
 * compute engine's event-driven timeline, so each call leaves its
 * completion time (drive.now(), ReadStats::makespan) and its energy
 * (the engine's ledger) behind. The drive's ledger covers the dies and
 * channels; the host link is modelled by the platform runner
 * (platforms/runner.h: OSP / ISP / FC).
 */

#include <cstdio>

#include "core/drive.h"
#include "util/rng.h"

using namespace fcos;
using core::Expr;
using core::FlashCosmosDrive;

int
main()
{
    std::printf("End-to-end SSD (drive) example\n");
    std::printf("==============================\n\n");

    FlashCosmosDrive::Config drive_cfg;
    drive_cfg.dies = 8;
    FlashCosmosDrive drive(drive_cfg);

    Rng rng = Rng::seeded(1);
    const std::size_t bits = 16000;

    FlashCosmosDrive::WriteOptions group;
    group.group = 1;

    std::printf("writing 12 operand vectors (%zu bits each, ESP)...\n",
                bits);
    std::vector<BitVector> data;
    std::vector<Expr> leaves;
    for (int i = 0; i < 12; ++i) {
        BitVector v(bits);
        v.randomize(rng);
        leaves.push_back(Expr::leaf(drive.fcWrite(v, group)));
        data.push_back(std::move(v));
    }
    const Time writes_done = drive.now();
    std::printf("  all writes complete at t = %s\n\n",
                formatTime(writes_done).c_str());

    std::printf("fc_read: AND of all 12 operands...\n");
    FlashCosmosDrive::ReadStats stats;
    BitVector result = drive.fcRead(Expr::And(leaves), &stats);

    BitVector expected = data[0];
    for (int i = 1; i < 12; ++i)
        expected &= data[i];

    std::printf("  result %s\n",
                result == expected ? "bit-exact" : "INCORRECT");
    std::printf("  completed at t = %s (query makespan %s)\n",
                formatTime(drive.now()).c_str(),
                formatTime(stats.makespan).c_str());
    std::printf("  MWS commands issued: %llu (%llu result pages)\n",
                (unsigned long long)stats.mwsCommands,
                (unsigned long long)stats.resultPages);
    std::printf("\nDie + channel energy breakdown:\n%s",
                drive.engine().energy().breakdown().c_str());
    return result == expected ? 0 : 1;
}
