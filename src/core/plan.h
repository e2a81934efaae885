/**
 * @file
 * Compiled execution plans for in-flash bulk bitwise operations.
 *
 * A plan is a *chain* of MWS commands executed on one plane's latch
 * pair. Each command senses a set of NAND strings simultaneously
 * (conduction = OR over strings of AND over each string's target
 * wordlines), optionally in inverse mode, and merges the sensed result
 * into the cache latch:
 *
 *   Copy : C := S      (ISCM: init-C + dump — first command)
 *   And  : C := C AND S (ISCM: dump with init-C off, Figure 16)
 *   Or   : C := C OR S  (legacy cache-read transfer path, Figure 6(c),
 *                        the "leverage ParaBit" accumulation of §6.1)
 *
 * The chain structure mirrors the real hardware limit the paper works
 * around: there is exactly one accumulator (the latch pair), so an
 * expression is executable iff it linearizes into single-command
 * factors folded one at a time. XOR/XNOR use the on-chip XOR between
 * the two latches. A NOT never needs a command of its own: inverse
 * sensing is the dual of normal sensing, so the planner folds every
 * NOT into the sensing modes.
 */

#ifndef FCOS_CORE_PLAN_H
#define FCOS_CORE_PLAN_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/expression.h"

namespace fcos::core {

/** A vector reference with polarity: value = id or NOT(id). */
struct Literal
{
    VectorId id = 0;
    bool negated = false;

    bool operator==(const Literal &o) const = default;
};

/**
 * One NAND string activation: the *stored* pages of all members are
 * sensed together, contributing AND(stored bits) to the command's
 * conduction. All members must be co-located in one sub-block.
 */
struct PlanString
{
    std::vector<Literal> members;
};

enum class MergeMode : std::uint8_t
{
    Copy, ///< C := S (first command: init-C + dump)
    And,  ///< C := C AND S (Flash-Cosmos accumulate dump)
    Or,   ///< C := C OR S (legacy OR transfer)
};

struct PlanCommand
{
    bool inverse = false;
    MergeMode merge = MergeMode::Copy;
    std::vector<PlanString> strings;

    /** Maximum simultaneously activated strings per command (power
     *  cap from Section 5.2 / Figure 15's four address slots). */
    static constexpr std::size_t kMaxStrings = 4;
};

/** How an expression executes. */
struct MwsPlan
{
    enum class Kind : std::uint8_t
    {
        Mws,      ///< chain of MWS commands
        Xor,      ///< two senses + on-chip XOR
        Fallback, ///< serial page reads + controller-side evaluation
    };

    Kind kind = Kind::Mws;

    // --- Kind::Mws ---
    std::vector<PlanCommand> commands;

    // --- Kind::Xor ---
    /** XOR chain members (>= 2): sensed one at a time, folded with the
     *  on-chip latch XOR. Polarity parity (XNOR / negated literals)
     *  folds into the sensing modes. */
    std::vector<Literal> xorMembers;
    /** Complement the overall XOR (folded into the last sense). */
    bool xorInvert = false;

    // --- Kind::Fallback ---
    std::string fallbackReason;

    /** Number of sensing operations the plan performs per page column
     *  (fallback counts one sense per leaf). */
    std::size_t senseCount(std::size_t fallback_leaves = 0) const
    {
        switch (kind) {
          case Kind::Mws:
            return commands.size();
          case Kind::Xor:
            return 2;
          case Kind::Fallback:
            return fallback_leaves;
        }
        return 0;
    }

    std::string toString() const;
};

} // namespace fcos::core

#endif // FCOS_CORE_PLAN_H
