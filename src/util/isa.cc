#include "util/isa.h"

namespace fcos {

namespace {

struct Support
{
    bool v3 = false;
    bool v4 = false;
};

/** What the host runs, probed once: the CPU and OS do not change under
 *  a running process. */
const Support &
hostSupport()
{
    static const Support support = [] {
        Support s;
#if FCOS_ISA_DISPATCH
        // Safe before constructors have run; the probe also checks that
        // the OS saves the AVX and AVX-512 register state.
        __builtin_cpu_init();
        s.v3 = __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("bmi") &&
               __builtin_cpu_supports("bmi2") &&
               __builtin_cpu_supports("fma") &&
               __builtin_cpu_supports("popcnt");
        s.v4 = s.v3 && __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512bw") &&
               __builtin_cpu_supports("avx512cd") &&
               __builtin_cpu_supports("avx512dq") &&
               __builtin_cpu_supports("avx512vl");
#endif
        return s;
    }();
    return support;
}

} // namespace

const char *
isaLevelName(IsaLevel level)
{
    switch (level) {
    case IsaLevel::Baseline:
        return "baseline";
    case IsaLevel::X86_64_V3:
        return "x86-64-v3";
    case IsaLevel::X86_64_V4:
        return "x86-64-v4";
    }
    return "?";
}

bool
isaLevelSupported(IsaLevel level)
{
    switch (level) {
    case IsaLevel::Baseline:
        return true;
    case IsaLevel::X86_64_V3:
        return hostSupport().v3;
    case IsaLevel::X86_64_V4:
        return hostSupport().v4;
    }
    return false;
}

IsaLevel
activeIsaLevel()
{
    const Support &s = hostSupport();
    return s.v4   ? IsaLevel::X86_64_V4
           : s.v3 ? IsaLevel::X86_64_V3
                  : IsaLevel::Baseline;
}

} // namespace fcos
