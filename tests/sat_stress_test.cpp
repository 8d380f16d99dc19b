// Stress tests driving the SAT core through its housekeeping machinery
// (clause-database reduction, arena garbage collection, restarts) and the
// IDL theory through large repair cascades — paths light unit tests miss.
#include <gtest/gtest.h>

#include <vector>

#include "smt/sat_solver.hpp"
#include "smt/solver.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"

namespace mcsym::smt {
namespace {

Lit pos(Var v) { return Lit::make(v, false); }
Lit neg(Var v) { return Lit::make(v, true); }

// Random 3-SAT near the phase transition, a batch of instances: together
// they force enough conflicts that restarts, clause-database reduction and
// the arena GC all trigger, and every SAT model must check out. The batch
// size scales with MCSYM_TEST_ITERS (10 in CI; crank it up for nightly
// soaks); any failure names the instance's RNG seed.
TEST(SatStressTest, PhaseTransitionInstancesExerciseReduction) {
  std::uint64_t total_conflicts = 0;
  std::uint64_t total_restarts = 0;
  const std::uint64_t iters = support::env_u64("MCSYM_TEST_ITERS", 10);
  for (std::uint64_t seed = 90; seed < 90 + iters; ++seed) {
    support::Rng rng(seed);
    SatSolver s;
    const unsigned n = 140;
    std::vector<Var> vars;
    for (unsigned i = 0; i < n; ++i) vars.push_back(s.new_var());
    const unsigned m = static_cast<unsigned>(n * 4.3);
    std::vector<std::vector<Lit>> clauses;
    for (unsigned c = 0; c < m; ++c) {
      std::vector<Lit> clause;
      for (int k = 0; k < 3; ++k) {
        const Var v = vars[rng.below(n)];
        clause.push_back(rng.chance(1, 2) ? pos(v) : neg(v));
      }
      clauses.push_back(clause);
      s.add_clause(clause);
    }
    const SolveResult r = s.solve();
    ASSERT_NE(r, SolveResult::kUnknown) << "seed=" << seed;
    if (r == SolveResult::kSat) {
      for (const auto& clause : clauses) {
        bool sat = false;
        for (const Lit l : clause) {
          if (s.model_is_true(l)) {
            sat = true;
            break;
          }
        }
        EXPECT_TRUE(sat) << "model violates a clause, seed=" << seed;
      }
    }
    total_conflicts += s.stats().conflicts;
    total_restarts += s.stats().restarts;
  }
  EXPECT_GT(total_conflicts, 200u);
  EXPECT_GT(total_restarts, 0u);
}

TEST(SatStressTest, LargePigeonholeStaysCorrectUnderGc) {
  // PHP(6): needs thousands of conflicts — enough to reduce the learnt DB
  // repeatedly — and must still conclude UNSAT.
  SatSolver s;
  const unsigned holes = 6;
  const unsigned pigeons = holes + 1;
  std::vector<std::vector<Var>> p(pigeons, std::vector<Var>(holes));
  for (auto& row : p) {
    for (auto& v : row) v = s.new_var();
  }
  for (unsigned i = 0; i < pigeons; ++i) {
    std::vector<Lit> clause;
    for (unsigned j = 0; j < holes; ++j) clause.push_back(pos(p[i][j]));
    s.add_clause(clause);
  }
  for (unsigned j = 0; j < holes; ++j) {
    for (unsigned i = 0; i < pigeons; ++i) {
      for (unsigned k = i + 1; k < pigeons; ++k) {
        s.add_clause({neg(p[i][j]), neg(p[k][j])});
      }
    }
  }
  EXPECT_EQ(s.solve(), SolveResult::kUnsat);
}

TEST(SatStressTest, ManySolveCallsStayConsistent) {
  // Incremental usage: alternate adding blocking-style clauses and solving;
  // results must be monotone (SAT can flip to UNSAT, never back).
  support::Rng rng(5);
  SatSolver s;
  std::vector<Var> vars;
  for (int i = 0; i < 10; ++i) vars.push_back(s.new_var());
  bool was_unsat = false;
  for (int round = 0; round < 60; ++round) {
    std::vector<Lit> clause;
    for (int k = 0; k < 2; ++k) {
      const Var v = vars[rng.below(vars.size())];
      clause.push_back(rng.chance(1, 2) ? pos(v) : neg(v));
    }
    s.add_clause(clause);
    const SolveResult r = s.solve();
    if (was_unsat) {
      EXPECT_EQ(r, SolveResult::kUnsat) << "UNSAT must be absorbing";
    }
    if (r == SolveResult::kUnsat) was_unsat = true;
  }
}

TEST(SatStressTest, WideClausesAndUnits) {
  // One very wide clause plus units killing all but the last literal.
  SatSolver s;
  std::vector<Var> vars;
  std::vector<Lit> wide;
  for (int i = 0; i < 500; ++i) {
    vars.push_back(s.new_var());
    wide.push_back(pos(vars.back()));
  }
  s.add_clause(wide);
  for (int i = 0; i < 499; ++i) s.add_clause({neg(vars[static_cast<std::size_t>(i)])});
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_EQ(s.model_value(vars[499]), LBool::kTrue);
}

TEST(IdlStressTest, LongChainWithRandomResolvableTangles) {
  // A long strict chain plus random forward constraints (always satisfiable)
  // and one final contradiction — exercises repeated potential repairs.
  Solver s;
  auto& tt = s.terms();
  const int n = 300;
  std::vector<TermId> v;
  for (int i = 0; i < n; ++i) v.push_back(tt.int_var(std::string("s").append(std::to_string(i))));
  for (int i = 0; i + 1 < n; ++i) {
    s.assert_term(tt.lt(v[static_cast<std::size_t>(i)], v[static_cast<std::size_t>(i + 1)]));
  }
  support::Rng rng(31);
  for (int k = 0; k < 200; ++k) {
    const auto i = static_cast<std::size_t>(rng.below(n - 1));
    const auto j = static_cast<std::size_t>(i + 1 + rng.below(static_cast<std::uint64_t>(n) - i - 1));
    // v[i] <= v[j] + slack: consistent with the chain.
    s.assert_term(tt.le(v[i], tt.add_const(v[j], rng.range(0, 5))));
  }
  ASSERT_EQ(s.check(), SolveResult::kSat);
  for (int i = 0; i + 1 < n; ++i) {
    EXPECT_LT(s.model_int(v[static_cast<std::size_t>(i)]),
              s.model_int(v[static_cast<std::size_t>(i + 1)]));
  }
  s.assert_term(tt.lt(v[n - 1], v[0]));
  EXPECT_EQ(s.check(), SolveResult::kUnsat);
  EXPECT_GT(s.idl_stats().repairs, 0u);
}

TEST(IdlStressTest, AlternatingPolarityAtoms) {
  // The same atom asserted positively on some branches and negatively on
  // others across a boolean case split; model must respect the chosen side.
  Solver s;
  auto& tt = s.terms();
  const TermId x = tt.int_var("ax");
  const TermId y = tt.int_var("ay");
  const TermId atom = tt.le(x, y);  // x <= y
  const TermId sel = tt.bool_var("sel");
  s.assert_term(tt.or2(tt.and2(sel, atom), tt.and2(tt.not_(sel), tt.not_(atom))));
  s.assert_term(tt.eq(x, tt.int_const(5)));
  s.assert_term(tt.eq(y, tt.int_const(3)));  // forces x > y, so sel = false
  ASSERT_EQ(s.check(), SolveResult::kSat);
  EXPECT_FALSE(s.model_bool(sel));
  EXPECT_FALSE(s.model_bool(atom));
}

}  // namespace
}  // namespace mcsym::smt
