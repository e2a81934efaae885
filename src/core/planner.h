/**
 * @file
 * Compiles bitwise expressions to MWS command chains (Section 6).
 *
 * The planner needs to know, for every vector, (i) whether it is
 * stored inverted (the §6.1 De Morgan trick for OR) and (ii) which
 * NAND string set it occupies (co-location). It receives both through
 * the StorageResolver interface so it stays independent of the drive.
 *
 * Planning rules (derivation in plan.h). OR is the De Morgan dual of
 * AND (§6.1), so each rule is stated once, with its dual in brackets,
 * and the planner applies it with the polarity as an argument:
 *
 *  - a *literal* l (v or NOT v) fits a normal [inverse] string iff
 *    stored(v) == l [stored(v) == NOT l];
 *  - a normal [inverse] string senses AND [OR] over its members, so it
 *    realizes one literal or an AND [OR] of literals co-located in one
 *    sub-block (Equation 1);
 *  - a normal [inverse] command senses OR [AND] over at most
 *    PlanCommand::kMaxStrings strings (the §5.2 power cap), which is
 *    how one command yields (C1+C3)(D2+D4) from inverse-stored
 *    operands (Figure 16);
 *  - a node is one command when it is one string of its own polarity
 *    (AND normal [OR inverse]) or at most kMaxStrings strings of the
 *    dual polarity;
 *  - otherwise an AND [OR] node is a chain folded with the AND-merge
 *    dump [the legacy OR transfer]: its own-polarity literals group by
 *    string key into one command each, its dual-polarity strings pool
 *    kMaxStrings to a command, and at most one child may itself need a
 *    multi-command chain (single accumulator). Two differences are not
 *    dual: AND appends its groups before its pool and OR its pool
 *    before its groups, and only a wide OR pool packs its chained and
 *    plain strings apart (the split PlatformRunner::fcSensesPerRow
 *    charges);
 *  - since every rule holds with its dual, NOT(expr) linearizes
 *    exactly when expr does, and no plan needs a final invert;
 *  - XOR/XNOR chains of literals use the on-chip latch XOR;
 *  - everything else falls back to serial reads + controller-side
 *    evaluation, with the reason recorded.
 */

#ifndef FCOS_CORE_PLANNER_H
#define FCOS_CORE_PLANNER_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/expression.h"
#include "core/plan.h"

namespace fcos::core {

/** Storage facts the planner needs about vectors. */
class StorageResolver
{
  public:
    virtual ~StorageResolver() = default;

    /** True if the vector's pages hold the complement of its value. */
    virtual bool isStoredInverted(VectorId id) const = 0;

    /**
     * Opaque key identifying the NAND string set (sub-block chain
     * position) the vector occupies; vectors with equal keys are
     * co-located and can share a string.
     */
    virtual std::uint64_t stringKey(VectorId id) const = 0;
};

class Planner
{
  public:
    explicit Planner(const StorageResolver &storage) : storage_(storage)
    {}

    /**
     * Compile @p expr. Always succeeds; inspect plan.kind for the
     * fallback case.
     */
    MwsPlan plan(const Expr &expr) const;

  private:
    /** Negation-normal-form node. */
    struct Nnf
    {
        enum class Kind { Lit, And, Or, Xor } kind = Kind::Lit;
        Literal lit{};
        bool xorInvert = false; ///< Kind::Xor: XNOR when true
        std::vector<Nnf> children;
    };

    static Nnf toNnf(const Expr &e, bool negate);
    static void flatten(Nnf &n);

    /** Try to realize a node as a single command. */
    std::optional<PlanCommand> singleCommand(const Nnf &n) const;
    /** Try to realize a node as one string of an inverse (@p inverse)
     *  or normal command. */
    std::optional<PlanString> polarString(const Nnf &n, bool inverse) const;
    /** Literal usable in an inverse (@p inverse) or normal string? */
    bool literalOk(const Literal &l, bool inverse) const;

    /** Plan an And/Or node as a command chain; nullopt on failure. */
    std::optional<std::vector<PlanCommand>> planChain(const Nnf &n) const;

    const StorageResolver &storage_;
};

} // namespace fcos::core

#endif // FCOS_CORE_PLANNER_H
