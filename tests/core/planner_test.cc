/**
 * @file
 * Planner unit tests: expression -> MWS command-chain compilation
 * against a scripted storage layout, plus a seeded random corpus whose
 * plans are pinned byte for byte in golden/plan_corpus.txt.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "core/plan.h"
#include "core/planner.h"
#include "tests/support/golden.h"
#include "tests/support/scripted_storage.h"
#include "util/rng.h"

namespace fcos::core {
namespace {

class PlannerTest : public ::testing::Test
{
  protected:
    test::ScriptedStorage storage;

    MwsPlan plan(const Expr &e)
    {
        Planner p(storage);
        return p.plan(e);
    }
};

TEST_F(PlannerTest, SingleLeafPlainIsOneNormalCommand)
{
    storage.place(0, 1, false);
    MwsPlan p = plan(Expr::leaf(0));
    ASSERT_EQ(p.kind, MwsPlan::Kind::Mws);
    ASSERT_EQ(p.commands.size(), 1u);
    EXPECT_FALSE(p.commands[0].inverse);
    ASSERT_EQ(p.commands[0].strings.size(), 1u);
    EXPECT_EQ(p.commands[0].strings[0].members.size(), 1u);
}

TEST_F(PlannerTest, SingleLeafInvertedSensesInverse)
{
    storage.place(0, 1, true);
    MwsPlan p = plan(Expr::leaf(0));
    ASSERT_EQ(p.kind, MwsPlan::Kind::Mws);
    ASSERT_EQ(p.commands.size(), 1u);
    EXPECT_TRUE(p.commands[0].inverse);
}

TEST_F(PlannerTest, AndOfColocatedPlainIsOneIntraBlockMws)
{
    for (VectorId v = 0; v < 10; ++v)
        storage.place(v, /*key=*/7, false);
    std::vector<Expr> leaves;
    for (VectorId v = 0; v < 10; ++v)
        leaves.push_back(Expr::leaf(v));
    MwsPlan p = plan(Expr::And(leaves));
    ASSERT_EQ(p.kind, MwsPlan::Kind::Mws);
    ASSERT_EQ(p.commands.size(), 1u);
    EXPECT_FALSE(p.commands[0].inverse);
    ASSERT_EQ(p.commands[0].strings.size(), 1u);
    EXPECT_EQ(p.commands[0].strings[0].members.size(), 10u);
}

TEST_F(PlannerTest, AndAcrossTwoStringsAccumulatesTwoCommands)
{
    // 96 operands spanning two sub-block chains (Section 6.1:
    // "accumulate the results of multiple intra-block MWS").
    for (VectorId v = 0; v < 96; ++v)
        storage.place(v, v / 48, false);
    std::vector<Expr> leaves;
    for (VectorId v = 0; v < 96; ++v)
        leaves.push_back(Expr::leaf(v));
    MwsPlan p = plan(Expr::And(leaves));
    ASSERT_EQ(p.kind, MwsPlan::Kind::Mws);
    ASSERT_EQ(p.commands.size(), 2u);
    EXPECT_EQ(p.commands[0].merge, MergeMode::Copy);
    EXPECT_EQ(p.commands[1].merge, MergeMode::And);
    for (const auto &c : p.commands) {
        ASSERT_EQ(c.strings.size(), 1u);
        EXPECT_EQ(c.strings[0].members.size(), 48u);
    }
}

TEST_F(PlannerTest, OrOfInverseStoredIsSingleInverseMws)
{
    // Section 6.1: OR of inverse-stored co-located operands is one
    // inverse intra-block MWS via De Morgan.
    for (VectorId v = 0; v < 20; ++v)
        storage.place(v, 3, true);
    std::vector<Expr> leaves;
    for (VectorId v = 0; v < 20; ++v)
        leaves.push_back(Expr::leaf(v));
    MwsPlan p = plan(Expr::Or(leaves));
    ASSERT_EQ(p.kind, MwsPlan::Kind::Mws);
    ASSERT_EQ(p.commands.size(), 1u);
    EXPECT_TRUE(p.commands[0].inverse);
    ASSERT_EQ(p.commands[0].strings.size(), 1u);
    EXPECT_EQ(p.commands[0].strings[0].members.size(), 20u);
}

TEST_F(PlannerTest, OrOfPlainLeavesUsesInterBlockStrings)
{
    for (VectorId v = 0; v < 3; ++v)
        storage.place(v, 10 + v, false);
    MwsPlan p =
        plan(Expr::Or({Expr::leaf(0), Expr::leaf(1), Expr::leaf(2)}));
    ASSERT_EQ(p.kind, MwsPlan::Kind::Mws);
    ASSERT_EQ(p.commands.size(), 1u);
    EXPECT_FALSE(p.commands[0].inverse);
    EXPECT_EQ(p.commands[0].strings.size(), 3u);
}

TEST_F(PlannerTest, WideOrOfPlainLeavesChainsWithOrMerge)
{
    // 9 plain singleton strings -> ceil(9/4) = 3 commands, OR-merged.
    std::vector<Expr> leaves;
    for (VectorId v = 0; v < 9; ++v) {
        storage.place(v, 100 + v, false);
        leaves.push_back(Expr::leaf(v));
    }
    MwsPlan p = plan(Expr::Or(leaves));
    ASSERT_EQ(p.kind, MwsPlan::Kind::Mws);
    ASSERT_EQ(p.commands.size(), 3u);
    EXPECT_EQ(p.commands[0].merge, MergeMode::Copy);
    EXPECT_EQ(p.commands[1].merge, MergeMode::Or);
    EXPECT_EQ(p.commands[2].merge, MergeMode::Or);
}

TEST_F(PlannerTest, Figure16ExpressionTakesTwoCommands)
{
    // {A1 + (B1 B2 B3 B4)} (C1+C3) (D2+D4), with C/D inverse-stored.
    storage.place(0, 0, false); // A1
    for (VectorId v = 1; v <= 4; ++v)
        storage.place(v, 1, false); // B1..B4 co-located
    storage.place(5, 2, true);      // C1
    storage.place(6, 2, true);      // C3
    storage.place(7, 3, true);      // D2
    storage.place(8, 3, true);      // D4

    Expr expr = Expr::And(
        {Expr::Or({Expr::leaf(0),
                   Expr::And({Expr::leaf(1), Expr::leaf(2), Expr::leaf(3),
                              Expr::leaf(4)})}),
         Expr::Or({Expr::leaf(5), Expr::leaf(6)}),
         Expr::Or({Expr::leaf(7), Expr::leaf(8)})});

    MwsPlan p = plan(expr);
    ASSERT_EQ(p.kind, MwsPlan::Kind::Mws);
    ASSERT_EQ(p.commands.size(), 2u);

    // One inverse command carrying both OR factors as strings, and one
    // normal command with the A1 + B-product strings.
    int inverse_cmds = 0, normal_cmds = 0;
    for (const auto &c : p.commands) {
        if (c.inverse) {
            ++inverse_cmds;
            EXPECT_EQ(c.strings.size(), 2u);
        } else {
            ++normal_cmds;
            ASSERT_EQ(c.strings.size(), 2u);
        }
    }
    EXPECT_EQ(inverse_cmds, 1);
    EXPECT_EQ(normal_cmds, 1);
}

TEST_F(PlannerTest, NandOfColocatedPlainIsSingleInverseCommand)
{
    for (VectorId v = 0; v < 5; ++v)
        storage.place(v, 4, false);
    std::vector<Expr> leaves;
    for (VectorId v = 0; v < 5; ++v)
        leaves.push_back(Expr::leaf(v));
    MwsPlan p = plan(Expr::Nand(leaves));
    ASSERT_EQ(p.kind, MwsPlan::Kind::Mws);
    ASSERT_EQ(p.commands.size(), 1u);
    EXPECT_TRUE(p.commands[0].inverse);
}

TEST_F(PlannerTest, NorOfPlainLeavesIsSingleInverseCommand)
{
    for (VectorId v = 0; v < 3; ++v)
        storage.place(v, 20 + v, false);
    MwsPlan p =
        plan(Expr::Nor({Expr::leaf(0), Expr::leaf(1), Expr::leaf(2)}));
    ASSERT_EQ(p.kind, MwsPlan::Kind::Mws);
    // NOR = NOT(OR): the single inter-block command flips to inverse.
    ASSERT_EQ(p.commands.size(), 1u);
    EXPECT_TRUE(p.commands[0].inverse);
    EXPECT_EQ(p.commands[0].strings.size(), 3u);
}

TEST_F(PlannerTest, XorOfTwoLeavesUsesLatchXor)
{
    storage.place(0, 0, false);
    storage.place(1, 1, false);
    MwsPlan p = plan(Expr::Xor(Expr::leaf(0), Expr::leaf(1)));
    ASSERT_EQ(p.kind, MwsPlan::Kind::Xor);
    EXPECT_EQ(p.xorMembers.size(), 2u);
    EXPECT_FALSE(p.xorInvert);

    MwsPlan q = plan(Expr::Xnor(Expr::leaf(0), Expr::leaf(1)));
    ASSERT_EQ(q.kind, MwsPlan::Kind::Xor);
    EXPECT_TRUE(q.xorInvert);

    MwsPlan r = plan(Expr::Not(Expr::Xor(Expr::leaf(0), Expr::leaf(1))));
    ASSERT_EQ(r.kind, MwsPlan::Kind::Xor);
    EXPECT_TRUE(r.xorInvert);
}

TEST_F(PlannerTest, NestedXorChainsFlatten)
{
    for (VectorId v = 0; v < 4; ++v)
        storage.place(v, v, false);
    // ((a ^ b) ^ (c ^ d)) -> one 4-member chain, no parity.
    MwsPlan p = plan(
        Expr::Xor(Expr::Xor(Expr::leaf(0), Expr::leaf(1)),
                  Expr::Xor(Expr::leaf(2), Expr::leaf(3))));
    ASSERT_EQ(p.kind, MwsPlan::Kind::Xor);
    EXPECT_EQ(p.xorMembers.size(), 4u);
    EXPECT_FALSE(p.xorInvert);

    // XNOR nesting and negated literals accumulate parity.
    MwsPlan q = plan(Expr::Xnor(
        Expr::Xor(Expr::leaf(0), Expr::Not(Expr::leaf(1))),
        Expr::leaf(2)));
    ASSERT_EQ(q.kind, MwsPlan::Kind::Xor);
    EXPECT_EQ(q.xorMembers.size(), 3u);
    EXPECT_FALSE(q.xorInvert); // XNOR + one negation cancel

    // A non-literal XOR member falls back.
    MwsPlan r = plan(Expr::Xor(
        Expr::And({Expr::leaf(0), Expr::leaf(1)}), Expr::leaf(2)));
    EXPECT_EQ(r.kind, MwsPlan::Kind::Fallback);
}

TEST_F(PlannerTest, KcsFusionAndGroupPlusOrLeafInOneCommand)
{
    // AND of co-located adjacency vectors OR'd with a clique vector in
    // another block: a single two-string command (Section 7, KCS).
    for (VectorId v = 0; v < 8; ++v)
        storage.place(v, 5, false);
    storage.place(8, 6, false); // clique vector, different block
    std::vector<Expr> adj;
    for (VectorId v = 0; v < 8; ++v)
        adj.push_back(Expr::leaf(v));
    MwsPlan p = plan(Expr::Or({Expr::And(adj), Expr::leaf(8)}));
    ASSERT_EQ(p.kind, MwsPlan::Kind::Mws);
    ASSERT_EQ(p.commands.size(), 1u);
    EXPECT_EQ(p.commands[0].strings.size(), 2u);
}

TEST_F(PlannerTest, DeepAndChainFollowedByOrMerge)
{
    // (AND of 96 across two strings) OR clique: AND-chain first, then
    // an OR-merge command (cannot fold into the multi-command chain).
    for (VectorId v = 0; v < 96; ++v)
        storage.place(v, v / 48, false);
    storage.place(96, 9, false);
    std::vector<Expr> adj;
    for (VectorId v = 0; v < 96; ++v)
        adj.push_back(Expr::leaf(v));
    MwsPlan p = plan(Expr::Or({Expr::And(adj), Expr::leaf(96)}));
    ASSERT_EQ(p.kind, MwsPlan::Kind::Mws);
    ASSERT_EQ(p.commands.size(), 3u);
    EXPECT_EQ(p.commands[0].merge, MergeMode::Copy);
    EXPECT_EQ(p.commands[1].merge, MergeMode::And);
    EXPECT_EQ(p.commands[2].merge, MergeMode::Or);
}

TEST_F(PlannerTest, TwoDeepChildrenFallBack)
{
    // Two multi-command subexpressions cannot share the one latch
    // accumulator.
    for (VectorId v = 0; v < 96; ++v)
        storage.place(v, v / 48, false);
    for (VectorId v = 96; v < 192; ++v)
        storage.place(v, 10 + (v - 96) / 48, false);
    std::vector<Expr> a, b;
    for (VectorId v = 0; v < 96; ++v)
        a.push_back(Expr::leaf(v));
    for (VectorId v = 96; v < 192; ++v)
        b.push_back(Expr::leaf(v));
    MwsPlan p = plan(Expr::Or({Expr::And(a), Expr::And(b)}));
    EXPECT_EQ(p.kind, MwsPlan::Kind::Fallback);
    EXPECT_FALSE(p.fallbackReason.empty());
}

TEST_F(PlannerTest, MixedPolarityAndUsesInversePool)
{
    // AND(a, NOT b) with both plain-stored: NOT b realizes in the
    // inverse pool; a stays a normal intra-block string.
    storage.place(0, 0, false);
    storage.place(1, 1, false);
    MwsPlan p =
        plan(Expr::And({Expr::leaf(0), Expr::Not(Expr::leaf(1))}));
    ASSERT_EQ(p.kind, MwsPlan::Kind::Mws);
    ASSERT_EQ(p.commands.size(), 2u);
}

TEST_F(PlannerTest, SenseCountMatchesCommands)
{
    for (VectorId v = 0; v < 4; ++v)
        storage.place(v, 0, false);
    std::vector<Expr> leaves;
    for (VectorId v = 0; v < 4; ++v)
        leaves.push_back(Expr::leaf(v));
    MwsPlan p = plan(Expr::And(leaves));
    EXPECT_EQ(p.senseCount(), 1u);
}


// ---------------------------------------------------------------------
// Plan corpus: random expressions over random layouts, pinned verbatim.
// ---------------------------------------------------------------------

/** Uniform index below @p n (plain modulo, so the corpus does not
 *  depend on the standard library's distributions). */
std::size_t
pick(Rng &rng, std::size_t n)
{
    return static_cast<std::size_t>(rng.nextU64() % n);
}

/**
 * Random expression over vectors [0, @p vectors) with exactly
 * @p leaves leaves and at most @p depth operator levels. Needs
 * depth >= 1 when leaves > 1.
 */
Expr
randomExpr(Rng &rng, std::size_t leaves, int depth, std::size_t vectors)
{
    if (leaves == 1) {
        Expr leaf = Expr::leaf(static_cast<VectorId>(pick(rng, vectors)));
        if (depth > 0 && pick(rng, 4) == 0)
            return Expr::Not(std::move(leaf));
        return leaf;
    }
    static constexpr BitOp kOps[] = {BitOp::And, BitOp::Or,  BitOp::Nand,
                                     BitOp::Nor, BitOp::Not, BitOp::Xor,
                                     BitOp::Xnor};
    BitOp op = kOps[pick(rng, std::size(kOps))];
    if (op == BitOp::Not) {
        if (depth >= 2)
            return Expr::Not(randomExpr(rng, leaves, depth - 1, vectors));
        op = BitOp::And;
    }
    // Two-child XOR needs a second level unless both halves are leaves.
    if ((op == BitOp::Xor || op == BitOp::Xnor) && depth < 2 && leaves > 2)
        op = BitOp::Or;
    std::size_t arity = 2;
    if (op != BitOp::Xor && op != BitOp::Xnor)
        arity = depth == 1 ? leaves : 2 + pick(rng, leaves - 1);
    // Every child gets one leaf; the rest land on random children.
    std::vector<std::size_t> share(arity, 1);
    for (std::size_t i = arity; i < leaves; ++i)
        ++share[pick(rng, arity)];
    std::vector<Expr> children;
    for (std::size_t n : share)
        children.push_back(randomExpr(rng, n, depth - 1, vectors));
    return Expr::apply(op, std::move(children));
}

TEST(PlanCorpusTest, RandomExpressionsPlanAsPinned)
{
    // Each layout scripts 12 vectors onto 1-4 string keys, all plain,
    // all inverse-stored or of random polarity; its header line lists
    // them ("v3=k1~": v3 on string key 1, stored inverted). Each
    // expression has 1-12 leaves and at most 4 operator levels; its
    // line holds the expression, "=>" and the plan on one line.
    constexpr int kLayouts = 60;
    constexpr int kExprsPerLayout = 8;
    constexpr std::size_t kVectors = 12;
    Rng rng = Rng::seeded(2024);
    std::string out;
    for (int l = 0; l < kLayouts; ++l) {
        test::ScriptedStorage storage;
        const std::size_t keys = 1 + pick(rng, 4);
        const std::size_t polarity = pick(rng, 3);
        out += "# layout " + std::to_string(l) + ":";
        for (std::size_t v = 0; v < kVectors; ++v) {
            const std::uint64_t key = pick(rng, keys);
            const bool inverted =
                polarity == 2 ? pick(rng, 2) == 1 : polarity == 1;
            storage.place(static_cast<VectorId>(v), key, inverted);
            out += " v" + std::to_string(v) + "=k" + std::to_string(key) +
                   (inverted ? "~" : "");
        }
        out += "\n";
        Planner planner(storage);
        for (int e = 0; e < kExprsPerLayout; ++e) {
            const std::size_t leaves = 1 + pick(rng, 12);
            const int depth = static_cast<int>(
                leaves == 1 ? pick(rng, 5) : 1 + pick(rng, 4));
            const Expr expr = randomExpr(rng, leaves, depth, kVectors);
            std::string plan = planner.plan(expr).toString();
            for (std::size_t at = plan.find("\n  ");
                 at != std::string::npos; at = plan.find("\n  "))
                plan.replace(at, 3, " | ");
            out += expr.toString() + " => " + plan + "\n";
        }
    }
    EXPECT_TRUE(test::MatchesGolden(out, "golden/plan_corpus.txt"));
}

} // namespace
} // namespace fcos::core
