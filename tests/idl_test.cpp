// Tests for the integer-difference-logic theory through the solver facade,
// including a randomized cross-check against a Bellman-Ford ground truth.
#include <gtest/gtest.h>

#include <vector>

#include "smt/solver.hpp"
#include "support/rng.hpp"

namespace mcsym::smt {
namespace {

TEST(IdlTest, SimpleChainSat) {
  Solver s;
  auto& tt = s.terms();
  const TermId a = tt.int_var("a");
  const TermId b = tt.int_var("b");
  const TermId c = tt.int_var("c");
  s.assert_term(tt.lt(a, b));
  s.assert_term(tt.lt(b, c));
  ASSERT_EQ(s.check(), SolveResult::kSat);
  EXPECT_LT(s.model_int(a), s.model_int(b));
  EXPECT_LT(s.model_int(b), s.model_int(c));
}

TEST(IdlTest, CycleUnsat) {
  Solver s;
  auto& tt = s.terms();
  const TermId a = tt.int_var("a");
  const TermId b = tt.int_var("b");
  const TermId c = tt.int_var("c");
  s.assert_term(tt.lt(a, b));
  s.assert_term(tt.lt(b, c));
  s.assert_term(tt.lt(c, a));
  EXPECT_EQ(s.check(), SolveResult::kUnsat);
}

TEST(IdlTest, NonStrictCycleSat) {
  Solver s;
  auto& tt = s.terms();
  const TermId a = tt.int_var("a");
  const TermId b = tt.int_var("b");
  s.assert_term(tt.le(a, b));
  s.assert_term(tt.le(b, a));
  ASSERT_EQ(s.check(), SolveResult::kSat);
  EXPECT_EQ(s.model_int(a), s.model_int(b));
}

TEST(IdlTest, EqualityPropagatesValues) {
  Solver s;
  auto& tt = s.terms();
  const TermId x = tt.int_var("x");
  const TermId y = tt.int_var("y");
  s.assert_term(tt.eq(x, tt.int_const(41)));
  s.assert_term(tt.eq(y, tt.add_const(x, 1)));
  ASSERT_EQ(s.check(), SolveResult::kSat);
  EXPECT_EQ(s.model_int(x), 41);
  EXPECT_EQ(s.model_int(y), 42);
}

TEST(IdlTest, DisequalitySplits) {
  Solver s;
  auto& tt = s.terms();
  const TermId x = tt.int_var("x");
  s.assert_term(tt.ge(x, tt.int_const(0)));
  s.assert_term(tt.le(x, tt.int_const(1)));
  s.assert_term(tt.ne(x, tt.int_const(0)));
  ASSERT_EQ(s.check(), SolveResult::kSat);
  EXPECT_EQ(s.model_int(x), 1);
}

TEST(IdlTest, WindowTooTightUnsat) {
  Solver s;
  auto& tt = s.terms();
  const TermId x = tt.int_var("x");
  s.assert_term(tt.ge(x, tt.int_const(0)));
  s.assert_term(tt.le(x, tt.int_const(1)));
  s.assert_term(tt.ne(x, tt.int_const(0)));
  s.assert_term(tt.ne(x, tt.int_const(1)));
  EXPECT_EQ(s.check(), SolveResult::kUnsat);
}

TEST(IdlTest, BooleanStructureOverAtoms) {
  Solver s;
  auto& tt = s.terms();
  const TermId x = tt.int_var("x");
  const TermId y = tt.int_var("y");
  // (x < y or y < x) and x = 3 and y = 3 is unsat; relaxing y works.
  s.assert_term(tt.or2(tt.lt(x, y), tt.lt(y, x)));
  s.assert_term(tt.eq(x, tt.int_const(3)));
  s.assert_term(tt.or2(tt.eq(y, tt.int_const(3)), tt.eq(y, tt.int_const(4))));
  ASSERT_EQ(s.check(), SolveResult::kSat);
  EXPECT_EQ(s.model_int(x), 3);
  EXPECT_EQ(s.model_int(y), 4);
}

TEST(IdlTest, NegatedAtomSemantics) {
  Solver s;
  auto& tt = s.terms();
  const TermId x = tt.int_var("x");
  const TermId y = tt.int_var("y");
  // not(x - y <= 2)  ==  x - y >= 3
  s.assert_term(tt.not_(tt.le(x, tt.add_const(y, 2))));
  ASSERT_EQ(s.check(), SolveResult::kSat);
  EXPECT_GE(s.model_int(x) - s.model_int(y), 3);
}

TEST(IdlTest, ManyVariableOrderingChain) {
  Solver s;
  auto& tt = s.terms();
  std::vector<TermId> v;
  for (int i = 0; i < 200; ++i) v.push_back(tt.int_var(std::string("v").append(std::to_string(i))));
  for (int i = 0; i + 1 < 200; ++i) {
    s.assert_term(tt.lt(v[static_cast<std::size_t>(i)], v[static_cast<std::size_t>(i + 1)]));
  }
  ASSERT_EQ(s.check(), SolveResult::kSat);
  EXPECT_LE(s.model_int(v[0]) + 199, s.model_int(v[199]));
  // Close the loop: now a negative cycle exists.
  s.assert_term(tt.lt(v[199], v[0]));
  EXPECT_EQ(s.check(), SolveResult::kUnsat);
}

TEST(IdlTest, ModelValueOfPinnedVariable) {
  Solver s;
  auto& tt = s.terms();
  const TermId x = tt.int_var("x");
  s.assert_term(tt.eq(x, tt.int_const(9)));
  ASSERT_EQ(s.check(), SolveResult::kSat);
  EXPECT_EQ(s.model_int(x), 9);
  EXPECT_EQ(s.model_int(tt.add_const(x, 3)), 12);
}

TEST(IdlTest, TheoryStatsCount) {
  Solver s;
  auto& tt = s.terms();
  const TermId a = tt.int_var("a");
  const TermId b = tt.int_var("b");
  s.assert_term(tt.lt(a, b));
  s.assert_term(tt.lt(b, a));
  EXPECT_EQ(s.check(), SolveResult::kUnsat);
  EXPECT_GE(s.idl_stats().conflicts, 1u);
}

// --- Randomized conjunctions vs Bellman-Ford ----------------------------

struct DiffConstraint {
  unsigned x, y;
  std::int64_t k;  // x - y <= k
};

/// Bellman-Ford negative-cycle detection on the constraint graph
/// (edge y -> x with weight k per constraint).
bool feasible_ground_truth(unsigned n, const std::vector<DiffConstraint>& cs) {
  std::vector<std::int64_t> dist(n, 0);  // virtual source to all: 0
  for (unsigned pass = 0; pass + 1 < n + 1; ++pass) {
    bool changed = false;
    for (const auto& c : cs) {
      if (dist[c.y] + c.k < dist[c.x]) {
        dist[c.x] = dist[c.y] + c.k;
        changed = true;
      }
    }
    if (!changed) return true;
  }
  for (const auto& c : cs) {
    if (dist[c.y] + c.k < dist[c.x]) return false;
  }
  return true;
}

class RandomIdlTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomIdlTest, ConjunctionAgreesWithBellmanFord) {
  support::Rng rng(GetParam());
  const unsigned n = 4 + static_cast<unsigned>(rng.below(5));
  const unsigned m = n * 2 + static_cast<unsigned>(rng.below(n * 2));
  std::vector<DiffConstraint> cs;
  for (unsigned i = 0; i < m; ++i) {
    DiffConstraint c;
    c.x = static_cast<unsigned>(rng.below(n));
    do {
      c.y = static_cast<unsigned>(rng.below(n));
    } while (c.y == c.x);
    c.k = rng.range(-4, 6);
    cs.push_back(c);
  }

  Solver s;
  auto& tt = s.terms();
  std::vector<TermId> vars;
  for (unsigned v = 0; v < n; ++v) vars.push_back(tt.int_var(std::string("r").append(std::to_string(v))));
  for (const auto& c : cs) {
    s.assert_term(tt.le(vars[c.x], tt.add_const(vars[c.y], c.k)));
  }
  const bool expected = feasible_ground_truth(n, cs);
  const SolveResult got = s.check();
  EXPECT_EQ(got == SolveResult::kSat, expected) << "seed=" << GetParam();
  if (got == SolveResult::kSat) {
    // The arithmetic model must satisfy every constraint literally.
    for (const auto& c : cs) {
      EXPECT_LE(s.model_int(vars[c.x]) - s.model_int(vars[c.y]), c.k);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomIdlTest,
                         ::testing::Range<std::uint64_t>(0, 50));

}  // namespace
}  // namespace mcsym::smt
