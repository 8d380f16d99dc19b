// Unit tests for the hash-consed term DAG and its simplifications.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "smt/term.hpp"

namespace mcsym::smt {
namespace {

class TermTest : public ::testing::Test {
 protected:
  TermTable tt;
};

TEST_F(TermTest, ConstantsAreFixedPoints) {
  EXPECT_EQ(tt.true_(), tt.bool_const(true));
  EXPECT_EQ(tt.false_(), tt.bool_const(false));
  EXPECT_NE(tt.true_(), tt.false_());
}

TEST_F(TermTest, HashConsingVariables) {
  EXPECT_EQ(tt.int_var("x"), tt.int_var("x"));
  EXPECT_NE(tt.int_var("x"), tt.int_var("y"));
  EXPECT_EQ(tt.bool_var("p"), tt.bool_var("p"));
  EXPECT_EQ(tt.int_const(5), tt.int_const(5));
  EXPECT_NE(tt.int_const(5), tt.int_const(6));
}

TEST_F(TermTest, VarNamesRoundTrip) {
  const TermId x = tt.int_var("clk_t0_1");
  EXPECT_EQ(tt.var_name(x), "clk_t0_1");
}

TEST_F(TermTest, AddConstFolds) {
  const TermId x = tt.int_var("x");
  EXPECT_EQ(tt.add_const(x, 0), x);
  EXPECT_EQ(tt.add_const(tt.add_const(x, 2), 3), tt.add_const(x, 5));
  EXPECT_EQ(tt.add_const(tt.int_const(4), 3), tt.int_const(7));
  EXPECT_EQ(tt.add_const(tt.add_const(x, 2), -2), x);
}

TEST_F(TermTest, NotSimplifies) {
  const TermId p = tt.bool_var("p");
  EXPECT_EQ(tt.not_(tt.true_()), tt.false_());
  EXPECT_EQ(tt.not_(tt.false_()), tt.true_());
  EXPECT_EQ(tt.not_(tt.not_(p)), p);
}

TEST_F(TermTest, AndSimplifications) {
  const TermId p = tt.bool_var("p");
  const TermId q = tt.bool_var("q");
  EXPECT_EQ(tt.and_({}), tt.true_());
  EXPECT_EQ(tt.and_({p}), p);
  EXPECT_EQ(tt.and_({p, tt.true_()}), p);
  EXPECT_EQ(tt.and_({p, tt.false_()}), tt.false_());
  EXPECT_EQ(tt.and_({p, p}), p);
  EXPECT_EQ(tt.and_({p, tt.not_(p)}), tt.false_());
  EXPECT_EQ(tt.and2(p, q), tt.and2(q, p));  // sorted children
}

TEST_F(TermTest, OrSimplifications) {
  const TermId p = tt.bool_var("p");
  const TermId q = tt.bool_var("q");
  EXPECT_EQ(tt.or_({}), tt.false_());
  EXPECT_EQ(tt.or_({p}), p);
  EXPECT_EQ(tt.or_({p, tt.false_()}), p);
  EXPECT_EQ(tt.or_({p, tt.true_()}), tt.true_());
  EXPECT_EQ(tt.or_({p, tt.not_(p)}), tt.true_());
  EXPECT_EQ(tt.or2(p, q), tt.or2(q, p));
}

TEST_F(TermTest, NestedConjunctionsFlatten) {
  const TermId p = tt.bool_var("p");
  const TermId q = tt.bool_var("q");
  const TermId r = tt.bool_var("r");
  EXPECT_EQ(tt.and2(p, tt.and2(q, r)), tt.and_({p, q, r}));
  EXPECT_EQ(tt.or2(p, tt.or2(q, r)), tt.or_({p, q, r}));
}

TEST_F(TermTest, ImpliesAndIff) {
  const TermId p = tt.bool_var("p");
  EXPECT_EQ(tt.implies(tt.false_(), p), tt.true_());
  EXPECT_EQ(tt.implies(tt.true_(), p), p);
  EXPECT_EQ(tt.iff(p, p), tt.true_());
}

TEST_F(TermTest, IteFoldsOnConstantCondition) {
  const TermId p = tt.bool_var("p");
  const TermId q = tt.bool_var("q");
  EXPECT_EQ(tt.ite(tt.true_(), p, q), p);
  EXPECT_EQ(tt.ite(tt.false_(), p, q), q);
}

TEST_F(TermTest, ComparisonNormalization) {
  const TermId x = tt.int_var("x");
  const TermId y = tt.int_var("y");
  // x <= y and the same atom built from offset forms must coincide.
  EXPECT_EQ(tt.le(x, y), tt.le(tt.add_const(x, 2), tt.add_const(y, 2)));
  // x < y == x+1 <= y
  EXPECT_EQ(tt.lt(x, y), tt.le(tt.add_const(x, 1), y));
  // ge/gt mirror le/lt.
  EXPECT_EQ(tt.ge(x, y), tt.le(y, x));
  EXPECT_EQ(tt.gt(x, y), tt.lt(y, x));
}

TEST_F(TermTest, ComparisonOfConstantsFolds) {
  EXPECT_EQ(tt.le(tt.int_const(1), tt.int_const(2)), tt.true_());
  EXPECT_EQ(tt.le(tt.int_const(3), tt.int_const(2)), tt.false_());
  EXPECT_EQ(tt.lt(tt.int_const(2), tt.int_const(2)), tt.false_());
  EXPECT_EQ(tt.eq(tt.int_const(2), tt.int_const(2)), tt.true_());
  EXPECT_EQ(tt.ne(tt.int_const(2), tt.int_const(2)), tt.false_());
  EXPECT_EQ(tt.eq(tt.int_const(1), tt.int_const(2)), tt.false_());
}

TEST_F(TermTest, SameVarComparisonsFold) {
  const TermId x = tt.int_var("x");
  EXPECT_EQ(tt.le(x, x), tt.true_());
  EXPECT_EQ(tt.lt(x, x), tt.false_());
  EXPECT_EQ(tt.eq(x, x), tt.true_());
  EXPECT_EQ(tt.ne(x, x), tt.false_());
  EXPECT_EQ(tt.le(x, tt.add_const(x, 1)), tt.true_());
  EXPECT_EQ(tt.le(tt.add_const(x, 1), x), tt.false_());
}

TEST_F(TermTest, EqExpandsToTwoInequalities) {
  const TermId x = tt.int_var("x");
  const TermId y = tt.int_var("y");
  const TermId e = tt.eq(x, y);
  const TermNode& n = tt.node(e);
  EXPECT_EQ(n.op, Op::kAnd);
  EXPECT_EQ(tt.children(e).size(), 2u);
}

TEST_F(TermTest, LeAtomAgainstConstantUsesEmptySlot) {
  const TermId x = tt.int_var("x");
  const TermId a = tt.le(x, tt.int_const(5));  // x - 0 <= 5
  const TermNode& n = tt.node(a);
  ASSERT_EQ(n.op, Op::kLeAtom);
  EXPECT_EQ(n.child0, x);
  EXPECT_EQ(n.child1, kNoTerm);
  EXPECT_EQ(n.value, 5);
}

TEST_F(TermTest, DecomposeInt) {
  const TermId x = tt.int_var("x");
  EXPECT_EQ(tt.decompose_int(tt.int_const(7)).var, kNoTerm);
  EXPECT_EQ(tt.decompose_int(tt.int_const(7)).offset, 7);
  EXPECT_EQ(tt.decompose_int(x).var, x);
  EXPECT_EQ(tt.decompose_int(x).offset, 0);
  EXPECT_EQ(tt.decompose_int(tt.add_const(x, -3)).var, x);
  EXPECT_EQ(tt.decompose_int(tt.add_const(x, -3)).offset, -3);
}

TEST_F(TermTest, ToStringReadable) {
  const TermId x = tt.int_var("x");
  const TermId y = tt.int_var("y");
  const std::string s = tt.to_string(tt.le(x, y));
  EXPECT_NE(s.find("<="), std::string::npos);
  EXPECT_NE(s.find('x'), std::string::npos);
  EXPECT_NE(s.find('y'), std::string::npos);
}

TEST_F(TermTest, StructuralSharingKeepsTableSmall) {
  const std::size_t before = tt.size();
  const TermId x = tt.int_var("x");
  const TermId y = tt.int_var("y");
  for (int i = 0; i < 100; ++i) {
    (void)tt.and2(tt.le(x, y), tt.le(y, x));
  }
  // Only a handful of distinct nodes should have been created.
  EXPECT_LT(tt.size() - before, 10u);
}

// Hash-consing must hold across many growths of the slot table: every node
// built before a growth is found again after it, and finding adds nothing.
TEST_F(TermTest, HashConsingSurvivesTableGrowth) {
  constexpr int kVars = 25000;
  std::vector<TermId> built;
  const auto build_all = [&](std::vector<TermId>& out) {
    for (int i = 0; i < kVars; ++i) {
      const TermId v = tt.int_var("v" + std::to_string(i));
      const TermId w = tt.int_var("v" + std::to_string((i + 1) % kVars));
      const TermId c = tt.int_const(i);
      const TermId atom = tt.le(tt.add_const(v, i % 7), w);
      out.insert(out.end(), {v, c, atom, tt.or2(atom, tt.bool_var("p" + std::to_string(i)))});
    }
  };
  build_all(built);
  const std::size_t size = tt.size();
  // int_var, int_const, add_const (except offset 0), le atom, bool_var, or.
  ASSERT_GE(size, 100000u);
  std::vector<TermId> again;
  build_all(again);
  EXPECT_EQ(again, built);
  EXPECT_EQ(tt.size(), size);
}

TEST_F(TermTest, ComplementsFoldInEitherOrder) {
  const TermId a = tt.bool_var("a");
  const TermId b = tt.bool_var("b");
  const TermId na = tt.not_(a);
  EXPECT_EQ(tt.and_({a, na}), tt.false_());
  EXPECT_EQ(tt.and_({na, a}), tt.false_());
  EXPECT_EQ(tt.or_({na, a}), tt.true_());
  EXPECT_EQ(tt.or_({a, na}), tt.true_());
  // The pair is found among other children and through flattening.
  EXPECT_EQ(tt.and_({b, na, tt.and2(b, a)}), tt.false_());
  EXPECT_EQ(tt.or_({tt.or2(b, na), a}), tt.true_());
  // A negated compound against the compound itself.
  const TermId x = tt.int_var("x");
  const TermId atom = tt.le(x, tt.int_const(3));
  EXPECT_EQ(tt.and_({tt.not_(atom), atom}), tt.false_());
}

TEST_F(TermTest, JunctionOfFreshLeavesAddsOneNode) {
  const TermId a = tt.bool_var("a");
  const TermId b = tt.bool_var("b");
  const std::size_t before = tt.size();
  const TermId conj = tt.and_({a, b});
  EXPECT_EQ(tt.size(), before + 1);
  EXPECT_EQ(tt.node(conj).op, Op::kAnd);
  (void)tt.or_({a, b});
  EXPECT_EQ(tt.size(), before + 2);
  for (TermId t = 0; t < tt.size(); ++t) {
    EXPECT_NE(tt.node(t).op, Op::kNot) << "stray negation " << tt.to_string(t);
  }
}

}  // namespace
}  // namespace mcsym::smt
