/**
 * @file
 * NAND operation modes and timing parameters (paper Table 1, Section 5).
 */

#ifndef FCOS_NAND_CONFIG_H
#define FCOS_NAND_CONFIG_H

#include <cstdint>

#include "util/units.h"

namespace fcos::nand {

/**
 * Cell programming mode. The paper evaluates SLC-mode (1 bit/cell),
 * MLC-mode (2 bits/cell) and the proposed Enhanced SLC-mode Programming
 * (ESP, Section 4.2). TLC is the chips' native mode, used for P/E
 * cycling stress.
 */
enum class ProgramMode : std::uint8_t
{
    SlcRegular, ///< regular SLC-mode programming
    SlcEsp,     ///< Enhanced SLC-mode Programming (Flash-Cosmos)
    Mlc,        ///< 2 bits/cell
    Tlc,        ///< 3 bits/cell (native mode of the evaluated chips)
};

const char *programModeName(ProgramMode m);

/**
 * Timing parameters (Table 1 plus program/erase latencies from
 * Sections 2.1 and 5.1). All values are exact in nanoseconds.
 */
struct Timings
{
    Time tReadSlc = usToTime(22.5);   ///< tR, SLC-mode page read
    Time tProgSlc = usToTime(200.0);  ///< tPROG, regular SLC
    Time tProgMlc = usToTime(500.0);  ///< tPROG, MLC
    Time tProgTlc = usToTime(700.0);  ///< tPROG, TLC
    Time tErase = usToTime(3500.0);   ///< tBERS (paper: 3-5 ms)
    Time tMwsFixed = usToTime(25.0);  ///< tMWS with <= 4 blocks (Table 1)

    /** Program latency for @p mode; SlcEsp takes the default
     *  EspParams (tESP = 2.0 x tPROG(SLC), 400 us in Table 1). */
    Time programLatency(ProgramMode mode) const;
};

/**
 * ESP knobs (Section 4.2): the ISPP extension is expressed as the ratio
 * tESP / tPROG(SLC) in [1.0, 2.0]. 1.0 degenerates to regular SLC
 * programming; the Table 1 operating point is 2.0 (400 us).
 */
struct EspParams
{
    double tEspFactor = 2.0;

    Time latency(const Timings &t) const
    {
        return static_cast<Time>(static_cast<double>(t.tProgSlc) *
                                 tEspFactor);
    }
};

} // namespace fcos::nand

#endif // FCOS_NAND_CONFIG_H
