#include <gtest/gtest.h>

#include "solver/constraint_set.hpp"

namespace sde::solver {
namespace {

class ConstraintSetTest : public ::testing::Test {
 protected:
  expr::Context ctx;
  expr::Ref x = ctx.variable("x", 8);
  expr::Ref y = ctx.variable("y", 8);
};

TEST_F(ConstraintSetTest, AddTracksOutcome) {
  ConstraintSet cs;
  EXPECT_EQ(cs.add(ctx.ult(x, ctx.constant(5, 8))),
            ConstraintSet::AddResult::kAdded);
  EXPECT_EQ(cs.add(ctx.ult(x, ctx.constant(5, 8))),
            ConstraintSet::AddResult::kRedundant);
  EXPECT_EQ(cs.add(ctx.trueExpr()), ConstraintSet::AddResult::kRedundant);
  EXPECT_EQ(cs.add(ctx.falseExpr()),
            ConstraintSet::AddResult::kTriviallyFalse);
  EXPECT_EQ(cs.size(), 1u);
}

TEST_F(ConstraintSetTest, SetHashIsOrderIndependent) {
  expr::Ref c1 = ctx.ult(x, ctx.constant(5, 8));
  expr::Ref c2 = ctx.eq(y, ctx.constant(1, 8));
  ConstraintSet a;
  ConstraintSet b;
  a.add(c1);
  a.add(c2);
  b.add(c2);
  b.add(c1);
  EXPECT_EQ(a.setHash(), b.setHash());
}

TEST_F(ConstraintSetTest, SetHashDistinguishesSets) {
  ConstraintSet a;
  ConstraintSet b;
  a.add(ctx.ult(x, ctx.constant(5, 8)));
  b.add(ctx.ult(x, ctx.constant(6, 8)));
  EXPECT_NE(a.setHash(), b.setHash());
  EXPECT_NE(a.setHash(), ConstraintSet{}.setHash());
}

TEST_F(ConstraintSetTest, CopyIsIndependent) {
  ConstraintSet a;
  a.add(ctx.ult(x, ctx.constant(5, 8)));
  ConstraintSet b = a;  // forked state copies its path constraints
  b.add(ctx.eq(y, ctx.constant(1, 8)));
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_NE(a.setHash(), b.setHash());
}

TEST_F(ConstraintSetTest, VariablesSortedAndDeduplicated) {
  ConstraintSet cs;
  cs.add(ctx.ult(y, ctx.constant(5, 8)));
  cs.add(ctx.eq(ctx.add(x, y), ctx.constant(3, 8)));
  const auto vars = cs.variables(ctx);
  ASSERT_EQ(vars.size(), 2u);
  EXPECT_EQ(vars[0], x);
  EXPECT_EQ(vars[1], y);
}

TEST_F(ConstraintSetTest, BooleanWidthEnforced) {
  ConstraintSet cs;
  EXPECT_DEATH(cs.add(x), "boolean");
}

TEST_F(ConstraintSetTest, VariablesAreDeterministicAcrossInsertionOrders) {
  // variables() must be a pure function of the *set*: any insertion
  // order over the same constraints yields the same id-sorted list.
  const expr::Ref c1 = ctx.ult(x, ctx.constant(5, 8));
  const expr::Ref c2 = ctx.eq(ctx.add(x, y), ctx.constant(3, 8));
  const expr::Ref c3 = ctx.ult(y, ctx.constant(9, 8));
  ConstraintSet forward;
  forward.add(c1);
  forward.add(c2);
  forward.add(c3);
  ConstraintSet backward;
  backward.add(c3);
  backward.add(c2);
  backward.add(c1);
  ConstraintSet shuffled;
  shuffled.add(c2);
  shuffled.add(c1);
  shuffled.add(c3);

  const auto want = forward.variables(ctx);
  ASSERT_EQ(want.size(), 2u);
  EXPECT_EQ(want[0], x);
  EXPECT_EQ(want[1], y);
  EXPECT_EQ(backward.variables(ctx), want);
  EXPECT_EQ(shuffled.variables(ctx), want);
  // Repeated calls agree (no internal caching drift).
  EXPECT_EQ(forward.variables(ctx), want);
}

TEST_F(ConstraintSetTest, DuplicateAddAfterForkDivergenceIsRedundant) {
  // Fork a set, let both sides diverge, then re-add a constraint that
  // lives in the shared (chunk-resident) prefix: the dedup scan must see
  // through the structural sharing on both sides.
  const expr::Ref shared = ctx.ult(x, ctx.constant(5, 8));
  ConstraintSet parent;
  parent.add(shared);
  for (std::uint64_t i = 0; i < 64; ++i)  // spill into sealed chunks
    parent.add(ctx.ult(x, ctx.constant(6 + i, 8)));

  ConstraintSet child = parent;
  child.add(ctx.eq(y, ctx.constant(1, 8)));
  parent.add(ctx.eq(y, ctx.constant(2, 8)));

  EXPECT_EQ(child.add(shared), ConstraintSet::AddResult::kRedundant);
  EXPECT_EQ(parent.add(shared), ConstraintSet::AddResult::kRedundant);
  // The divergent suffixes are not deduplicated against each other.
  EXPECT_EQ(child.add(ctx.eq(y, ctx.constant(2, 8))),
            ConstraintSet::AddResult::kAdded);
  EXPECT_EQ(parent.size(), 66u);
  EXPECT_EQ(child.size(), 67u);
}

TEST_F(ConstraintSetTest, TriviallyFalseOnASharedTailLeavesBothSidesIntact) {
  ConstraintSet parent;
  for (std::uint64_t i = 0; i < 40; ++i)
    parent.add(ctx.ult(x, ctx.constant(i + 1, 8)));
  ConstraintSet child = parent;
  const std::uint64_t parentHash = parent.setHash();

  EXPECT_EQ(child.add(ctx.falseExpr()),
            ConstraintSet::AddResult::kTriviallyFalse);
  EXPECT_EQ(child.size(), 40u);  // rejected adds record nothing
  EXPECT_EQ(child.setHash(), parentHash);
  EXPECT_EQ(parent.size(), 40u);
  EXPECT_EQ(parent.setHash(), parentHash);
}

TEST_F(ConstraintSetTest, CopySharesChunksAndCostsOnlyTheTail) {
  ConstraintSet cs;
  const std::size_t chunk = ConstraintSet::Items::chunkCapacity();
  for (std::uint64_t i = 0; i < 3 * chunk + 2; ++i)
    cs.add(ctx.ult(x, ctx.constant(i + 1, 8)));
  ASSERT_EQ(cs.size(), 3 * chunk + 2);
  EXPECT_EQ(cs.copyCostElements(), 2u);
  EXPECT_EQ(cs.sharedChunksOnCopy(), 3u);

  support::SeenSet seen;
  const std::uint64_t solo = cs.accountBytes(seen);
  const ConstraintSet copy = cs;
  const std::uint64_t extra = copy.accountBytes(seen);
  EXPECT_LT(extra, solo);  // the chunks were already charged to `cs`
}

}  // namespace
}  // namespace sde::solver
