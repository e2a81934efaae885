#include "nand/config.h"

#include "util/log.h"

namespace fcos::nand {

const char *
programModeName(ProgramMode m)
{
    switch (m) {
      case ProgramMode::SlcRegular:
        return "SLC";
      case ProgramMode::SlcEsp:
        return "ESP";
      case ProgramMode::Mlc:
        return "MLC";
      case ProgramMode::Tlc:
        return "TLC";
    }
    return "?";
}

Time
Timings::programLatency(ProgramMode mode) const
{
    switch (mode) {
      case ProgramMode::SlcRegular:
        return tProgSlc;
      case ProgramMode::SlcEsp:
        return EspParams{}.latency(*this);
      case ProgramMode::Mlc:
        return tProgMlc;
      case ProgramMode::Tlc:
        return tProgTlc;
    }
    fcos_panic("unknown program mode");
}

} // namespace fcos::nand
