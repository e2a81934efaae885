/**
 * @file
 * Table 1 — evaluated system configurations. Prints every configured
 * parameter from the live config objects, so any drift between code
 * and paper is visible. The tables come from platforms/reports and are
 * pinned as goldens by tests/platforms/report_golden_test.cc.
 */

#include "bench/bench_util.h"
#include "platforms/reports.h"

using namespace fcos;

int
main(int argc, char **argv)
{
    fcos::bench::initObs(argc, argv);
    bench::header("Table 1", "evaluated system configurations");

    ssd::SsdConfig c = ssd::SsdConfig::table1();
    host::HostConfig h;

    plat::tab01SsdTable(c).print();
    std::printf("\n");
    plat::tab01HostTable(h).print();

    std::printf("\nDerived totals: %u dies, %u planes, SLC die "
                "capacity %s\n",
                c.dieCount(), c.columnCount(),
                formatBytes(c.geometry.dieBytesSlc()).c_str());
    return 0;
}
