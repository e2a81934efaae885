#include "core/planner.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>

#include "util/log.h"

namespace fcos::core {

namespace {

std::string
mergeName(MergeMode m)
{
    switch (m) {
      case MergeMode::Copy:
        return "copy";
      case MergeMode::And:
        return "and";
      case MergeMode::Or:
        return "or";
    }
    return "?";
}

} // namespace

std::string
MwsPlan::toString() const
{
    switch (kind) {
      case Kind::Xor: {
        std::string s = "XOR plan:";
        for (std::size_t i = 0; i < xorMembers.size(); ++i) {
            if (i)
                s += " ^";
            s += " ";
            if (xorMembers[i].negated)
                s += "!";
            s += "v" + std::to_string(xorMembers[i].id);
        }
        if (xorInvert)
            s += " [inverted]";
        return s;
      }
      case Kind::Fallback:
        return "FALLBACK: " + fallbackReason;
      case Kind::Mws: {
        std::string s = "MWS plan (" + std::to_string(commands.size()) +
                        " commands)";
        for (const auto &c : commands) {
            s += "\n  [" + mergeName(c.merge) + "]";
            s += c.inverse ? " inverse" : " normal";
            for (const auto &str : c.strings) {
                s += " {";
                for (std::size_t i = 0; i < str.members.size(); ++i) {
                    if (i)
                        s += ",";
                    if (str.members[i].negated)
                        s += "!";
                    s += "v" + std::to_string(str.members[i].id);
                }
                s += "}";
            }
        }
        return s;
      }
    }
    return "?";
}

Planner::Nnf
Planner::toNnf(const Expr &e, bool negate)
{
    Nnf n;
    switch (e.op()) {
      case BitOp::Leaf:
        n.kind = Nnf::Kind::Lit;
        n.lit = Literal{e.id(), negate};
        return n;
      case BitOp::Not:
        return toNnf(e.children()[0], !negate);
      case BitOp::And:
      case BitOp::Nand: {
        bool inner_neg = negate ^ (e.op() == BitOp::Nand);
        n.kind = inner_neg ? Nnf::Kind::Or : Nnf::Kind::And;
        for (const Expr &c : e.children())
            n.children.push_back(toNnf(c, inner_neg));
        return n;
      }
      case BitOp::Or:
      case BitOp::Nor: {
        bool inner_neg = negate ^ (e.op() == BitOp::Nor);
        n.kind = inner_neg ? Nnf::Kind::And : Nnf::Kind::Or;
        for (const Expr &c : e.children())
            n.children.push_back(toNnf(c, inner_neg));
        return n;
      }
      case BitOp::Xor:
      case BitOp::Xnor: {
        n.kind = Nnf::Kind::Xor;
        n.xorInvert = negate ^ (e.op() == BitOp::Xnor);
        n.children.push_back(toNnf(e.children()[0], false));
        n.children.push_back(toNnf(e.children()[1], false));
        return n;
      }
    }
    fcos_panic("bad op");
}

void
Planner::flatten(Nnf &n)
{
    for (Nnf &c : n.children)
        flatten(c);
    if (n.kind != Nnf::Kind::And && n.kind != Nnf::Kind::Or)
        return;
    // Absorb children of the same kind and unwrap single-child nodes.
    std::vector<Nnf> merged;
    for (Nnf &c : n.children) {
        if (c.kind == n.kind) {
            for (Nnf &gc : c.children)
                merged.push_back(std::move(gc));
        } else {
            merged.push_back(std::move(c));
        }
    }
    n.children = std::move(merged);
    if (n.children.size() == 1) {
        Nnf only = std::move(n.children[0]);
        n = std::move(only);
    }
}

bool
Planner::literalOk(const Literal &l, bool inverse) const
{
    // A normal sense reads the stored data, an inverse sense its
    // complement; either must equal the literal's value.
    return storage_.isStoredInverted(l.id) == (l.negated != inverse);
}

std::optional<PlanString>
Planner::polarString(const Nnf &n, bool inverse) const
{
    // A normal string senses AND of its members' stored data, an
    // inverse string OR of their complements, so either realizes one
    // literal or its own connective over co-located literals.
    if (n.kind == Nnf::Kind::Lit) {
        if (!literalOk(n.lit, inverse))
            return std::nullopt;
        return PlanString{{n.lit}};
    }
    if (n.kind != (inverse ? Nnf::Kind::Or : Nnf::Kind::And))
        return std::nullopt;
    PlanString s;
    std::optional<std::uint64_t> key;
    for (const Nnf &c : n.children) {
        if (c.kind != Nnf::Kind::Lit || !literalOk(c.lit, inverse))
            return std::nullopt;
        const std::uint64_t k = storage_.stringKey(c.lit.id);
        if (key && k != *key)
            return std::nullopt; // not co-located in one sub-block
        key = k;
        s.members.push_back(c.lit);
    }
    return s;
}

std::optional<PlanCommand>
Planner::singleCommand(const Nnf &n) const
{
    if (n.kind == Nnf::Kind::Xor)
        return std::nullopt;
    PlanCommand cmd;
    if (n.kind == Nnf::Kind::Lit) {
        // An inverse sense of a complement-stored literal reads its
        // value.
        cmd.inverse = !literalOk(n.lit, false);
        cmd.strings.push_back(PlanString{{n.lit}});
        return cmd;
    }
    // (i) The whole node as one string of its own polarity: an AND of
    // co-located literals sensed normally, or an OR of co-located
    // literals sensed inverse (NOT(AND(stored)) == OR(values), §6.1).
    const bool is_or = n.kind == Nnf::Kind::Or;
    if (auto s = polarString(n, is_or)) {
        cmd.inverse = is_or;
        cmd.strings.push_back(std::move(*s));
        return cmd;
    }
    // (ii) One string per child in the dual polarity: a normal command
    // ORs its strings (inter-block MWS), an inverse one ANDs them
    // (Figure 16's first command).
    cmd.inverse = !is_or;
    for (const Nnf &c : n.children) {
        auto s = polarString(c, !is_or);
        if (!s)
            return std::nullopt;
        cmd.strings.push_back(std::move(*s));
    }
    if (cmd.strings.size() > PlanCommand::kMaxStrings)
        return std::nullopt;
    return cmd;
}

std::optional<std::vector<PlanCommand>>
Planner::planChain(const Nnf &n) const
{
    if (n.kind == Nnf::Kind::Lit)
        return std::vector<PlanCommand>{*singleCommand(n)};
    if (n.kind == Nnf::Kind::Xor)
        return std::nullopt;

    // An AND node folds normal strings with the AND-merge dump, an OR
    // node inverse strings with the OR transfer. Literals of the node's
    // own polarity that share a string key form one string, one command
    // each (intra-block MWS); strings of the dual polarity pool,
    // kMaxStrings to a command (inter-block MWS).
    const bool is_or = n.kind == Nnf::Kind::Or;
    std::map<std::uint64_t, PlanString> groups;
    std::vector<PlanString> pool;
    std::vector<PlanCommand> built; // commands from batchable factors
    std::vector<PlanCommand> deep;  // chain of the one deep child
    for (const Nnf &c : n.children) {
        if (c.kind == Nnf::Kind::Lit && literalOk(c.lit, is_or)) {
            groups[storage_.stringKey(c.lit.id)].members.push_back(c.lit);
        } else if (auto s = polarString(c, !is_or)) {
            pool.push_back(std::move(*s));
        } else if (auto cmd = singleCommand(c)) {
            built.push_back(std::move(*cmd));
        } else {
            auto chain = planChain(c);
            if (!chain || !deep.empty())
                return std::nullopt; // only one accumulator exists
            deep = std::move(*chain);
        }
    }

    auto appendGroups = [&] {
        for (auto &[key, s] : groups) {
            (void)key;
            PlanCommand cmd;
            cmd.inverse = is_or;
            cmd.strings.push_back(std::move(s));
            built.push_back(std::move(cmd));
        }
    };
    auto pack = [&](auto first, auto last) {
        while (first != last) {
            const auto step = std::min<std::ptrdiff_t>(
                last - first, PlanCommand::kMaxStrings);
            PlanCommand cmd;
            cmd.inverse = !is_or;
            cmd.strings.assign(std::make_move_iterator(first),
                               std::make_move_iterator(first + step));
            built.push_back(std::move(cmd));
            first += step;
        }
    };
    auto appendPool = [&] {
        // An OR pool's chained (multi-member AND-group) string shares a
        // command with plain strings only when the whole pool fits in
        // one command: the KCS fusion, where the OR operands ride as
        // the AND command's spare string slots. A wider OR pool packs
        // its chained strings and its plain strings into separate
        // commands, exactly how the analytic sense-count model
        // (PlatformRunner::fcSensesPerRow) charges wide mixed batches:
        // AND commands first, then OR-merge commands of plain strings.
        // Mixing the two would beat the model and break the
        // functional-vs-timing certification.
        auto split = pool.end();
        if (is_or && pool.size() > PlanCommand::kMaxStrings)
            split = std::stable_partition(
                pool.begin(), pool.end(),
                [](const PlanString &s) { return s.members.size() > 1; });
        pack(pool.begin(), split);
        pack(split, pool.end());
    };
    // Not dual, and part of every pinned plan: an AND chain appends its
    // groups first, an OR chain its pool first.
    if (is_or) {
        appendPool();
        appendGroups();
    } else {
        appendGroups();
        appendPool();
    }

    std::vector<PlanCommand> chain = std::move(deep);
    const MergeMode merge = is_or ? MergeMode::Or : MergeMode::And;
    for (auto &cmd : built) {
        cmd.merge = chain.empty() ? MergeMode::Copy : merge;
        chain.push_back(std::move(cmd));
    }
    fcos_assert(!chain.empty(), "chain with no commands");
    return chain;
}

MwsPlan
Planner::plan(const Expr &expr) const
{
    Nnf nnf = toNnf(expr, false);
    flatten(nnf);

    // XOR / XNOR chains of stored vectors: on-chip latch XOR. Nested
    // XOR nodes flatten into one chain; every negation (XNOR nodes,
    // negated literals) contributes to a single overall parity bit.
    if (nnf.kind == Nnf::Kind::Xor) {
        MwsPlan p;
        p.kind = MwsPlan::Kind::Xor;
        bool ok = true;
        std::function<void(const Nnf &)> gather = [&](const Nnf &n) {
            if (n.kind == Nnf::Kind::Lit) {
                p.xorMembers.push_back(Literal{n.lit.id, false});
                p.xorInvert ^= n.lit.negated;
                return;
            }
            if (n.kind == Nnf::Kind::Xor) {
                p.xorInvert ^= n.xorInvert;
                for (const Nnf &c : n.children)
                    gather(c);
                return;
            }
            ok = false;
        };
        gather(nnf);
        if (ok && p.xorMembers.size() >= 2)
            return p;
        MwsPlan f;
        f.kind = MwsPlan::Kind::Fallback;
        f.fallbackReason =
            "XOR chain members must be stored vectors (or their "
            "negations)";
        return f;
    }

    // Every rule holds with its De Morgan dual (AND with OR, normal
    // with inverse sensing), so NOT(expr) linearizes exactly when expr
    // does and there is no complement to retry.
    if (auto chain = planChain(nnf)) {
        fcos_assert(chain->front().merge == MergeMode::Copy,
                    "a chain opens with a copy");
        MwsPlan p;
        p.commands = std::move(*chain);
        return p;
    }

    MwsPlan p;
    p.kind = MwsPlan::Kind::Fallback;
    p.fallbackReason =
        "expression does not linearize onto the single latch "
        "accumulator with the current data placement: " +
        expr.toString();
    return p;
}

} // namespace fcos::core
