// Tests for the SMT solver facade: all-SAT enumeration, model evaluation,
// SMT-LIB export, and (when built) agreement with Z3 on random formulas.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "smt/smtlib.hpp"
#include "smt/solver.hpp"
#include "smt/z3_backend.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"

namespace mcsym::smt {
namespace {

TEST(SolverTest, ModelBoolEvaluatesStructure) {
  Solver s;
  auto& tt = s.terms();
  const TermId x = tt.int_var("x");
  const TermId p = tt.le(x, tt.int_const(5));
  s.assert_term(p);
  s.assert_term(tt.ge(x, tt.int_const(5)));
  ASSERT_EQ(s.check(), SolveResult::kSat);
  EXPECT_EQ(s.model_int(x), 5);
  EXPECT_TRUE(s.model_bool(p));
  EXPECT_FALSE(s.model_bool(tt.not_(p)));
  EXPECT_TRUE(s.model_bool(tt.and2(p, tt.true_())));
  EXPECT_TRUE(s.model_bool(tt.or2(tt.false_(), p)));
}

TEST(SolverTest, UnconstrainedIntDefaultsToZero) {
  Solver s;
  auto& tt = s.terms();
  const TermId x = tt.int_var("never_used");
  s.assert_term(tt.true_());
  ASSERT_EQ(s.check(), SolveResult::kSat);
  EXPECT_EQ(s.model_int(x), 0);
  EXPECT_EQ(s.model_int(tt.add_const(x, 3)), 3);
  EXPECT_EQ(s.model_int(tt.int_const(-2)), -2);
}

TEST(SolverTest, AllSatEnumerationCountsDomain) {
  // x in [0, 4] has exactly 5 models when projected on x.
  Solver s;
  auto& tt = s.terms();
  const TermId x = tt.int_var("x");
  s.assert_term(tt.ge(x, tt.int_const(0)));
  s.assert_term(tt.le(x, tt.int_const(4)));
  const std::vector<TermId> proj{x};
  std::set<std::int64_t> seen;
  while (s.check() == SolveResult::kSat) {
    seen.insert(s.model_int(x));
    s.block_current_ints(proj);
    ASSERT_LE(seen.size(), 5u);
  }
  EXPECT_EQ(seen, (std::set<std::int64_t>{0, 1, 2, 3, 4}));
}

TEST(SolverTest, AllSatOverPairs) {
  // (x,y) each in {0,1}, x != y: exactly two projected models.
  Solver s;
  auto& tt = s.terms();
  const TermId x = tt.int_var("x");
  const TermId y = tt.int_var("y");
  for (const TermId v : {x, y}) {
    s.assert_term(tt.ge(v, tt.int_const(0)));
    s.assert_term(tt.le(v, tt.int_const(1)));
  }
  s.assert_term(tt.ne(x, y));
  const std::vector<TermId> proj{x, y};
  std::set<std::pair<std::int64_t, std::int64_t>> seen;
  while (s.check() == SolveResult::kSat) {
    seen.emplace(s.model_int(x), s.model_int(y));
    s.block_current_ints(proj);
    ASSERT_LE(seen.size(), 2u);
  }
  EXPECT_EQ(seen.size(), 2u);
}

TEST(SolverTest, AssertionsAccumulate) {
  Solver s;
  auto& tt = s.terms();
  const TermId x = tt.int_var("x");
  s.assert_term(tt.ge(x, tt.int_const(10)));
  EXPECT_EQ(s.assertions().size(), 1u);
  ASSERT_EQ(s.check(), SolveResult::kSat);
  s.assert_term(tt.le(x, tt.int_const(5)));
  EXPECT_EQ(s.check(), SolveResult::kUnsat);
}

TEST(SolverTest, ConflictBudgetUnknown) {
  Solver s;
  auto& tt = s.terms();
  // A moderately hard scheduling core: 8 values forced pairwise distinct in
  // a window of 7 — UNSAT, needs search.
  std::vector<TermId> vars;
  for (int i = 0; i < 8; ++i) vars.push_back(tt.int_var(std::string("q").append(std::to_string(i))));
  for (const TermId v : vars) {
    s.assert_term(tt.ge(v, tt.int_const(0)));
    s.assert_term(tt.le(v, tt.int_const(6)));
  }
  for (std::size_t i = 0; i < vars.size(); ++i) {
    for (std::size_t j = i + 1; j < vars.size(); ++j) {
      s.assert_term(tt.ne(vars[i], vars[j]));
    }
  }
  s.set_conflict_budget(1);
  EXPECT_EQ(s.check(), SolveResult::kUnknown);
  s.set_conflict_budget(0);
  EXPECT_EQ(s.check(), SolveResult::kUnsat);
}

TEST(SmtLibTest, ExportContainsDeclarationsAndAsserts) {
  Solver s;
  auto& tt = s.terms();
  const TermId x = tt.int_var("xx");
  const TermId p = tt.bool_var("pp");
  s.assert_term(tt.or2(p, tt.le(x, tt.int_const(3))));
  const std::string text = to_smtlib(s.terms(), s.assertions());
  EXPECT_NE(text.find("(set-logic QF_IDL)"), std::string::npos);
  EXPECT_NE(text.find("(declare-fun xx () Int)"), std::string::npos);
  EXPECT_NE(text.find("(declare-fun pp () Bool)"), std::string::npos);
  EXPECT_NE(text.find("(assert "), std::string::npos);
  EXPECT_NE(text.find("(check-sat)"), std::string::npos);
}

TEST(SmtLibTest, ExportDeduplicatesVariables) {
  Solver s;
  auto& tt = s.terms();
  const TermId x = tt.int_var("only_once");
  s.assert_term(tt.le(x, tt.int_const(1)));
  s.assert_term(tt.ge(x, tt.int_const(0)));
  const std::string text = to_smtlib(s.terms(), s.assertions());
  const auto first = text.find("only_once");
  const auto second = text.find("only_once", first + 1);
  const auto third = text.find("only_once", second + 1);
  EXPECT_NE(second, std::string::npos);  // declaration + at least one use
  EXPECT_EQ(text.find("declare-fun only_once", first - 13),
            text.rfind("declare-fun only_once"));
  (void)third;
}

// --- Z3 agreement property tests (skipped when Z3 is absent) ------------

struct RandomFormula {
  // Builds a random boolean combination of difference atoms over few vars.
  static TermId build(TermTable& tt, support::Rng& rng, int depth,
                      const std::vector<TermId>& vars) {
    if (depth == 0 || rng.chance(1, 3)) {
      const TermId a = vars[rng.below(vars.size())];
      const TermId b = vars[rng.below(vars.size())];
      const std::int64_t k = rng.range(-3, 3);
      switch (rng.below(4)) {
        case 0: return tt.le(a, tt.add_const(b, k));
        case 1: return tt.lt(a, tt.add_const(b, k));
        case 2: return tt.eq(a, tt.add_const(b, k));
        default: return tt.ne(a, tt.add_const(b, k));
      }
    }
    const TermId lhs = build(tt, rng, depth - 1, vars);
    const TermId rhs = build(tt, rng, depth - 1, vars);
    switch (rng.below(3)) {
      case 0: return tt.and2(lhs, rhs);
      case 1: return tt.or2(lhs, rhs);
      default: return tt.not_(lhs);
    }
  }
};

// --- Phase hints -------------------------------------------------------------

// The random batteries of the SAT, IDL and Z3-agreement suites, rebuilt at
// the solver layer. The same seed rebuilds the same terms, so one instance
// can be fed to several solvers with differently hinted phases.
enum class Family : std::uint8_t { kCnf, kIdl, kFormula };

struct Instance {
  std::vector<TermId> bools;
  std::vector<TermId> ints;
};

Instance build_instance(Solver& s, Family family, std::uint64_t seed) {
  support::Rng rng(seed);
  auto& tt = s.terms();
  Instance in;
  switch (family) {
    case Family::kCnf: {
      // Random 3-SAT at the phase transition: about half the draws are SAT.
      for (int v = 0; v < 40; ++v) {
        in.bools.push_back(tt.bool_var(std::string("b").append(std::to_string(v))));
      }
      for (int c = 0; c < 170; ++c) {
        std::vector<TermId> lits;
        for (int k = 0; k < 3; ++k) {
          const TermId b = in.bools[rng.below(in.bools.size())];
          lits.push_back(rng.chance(1, 2) ? b : tt.not_(b));
        }
        s.assert_term(tt.or_(lits));
      }
      break;
    }
    case Family::kIdl: {
      // Conjunctions of difference constraints, as in RandomIdlTest.
      const unsigned n = 4 + static_cast<unsigned>(rng.below(5));
      const unsigned m = n * 2 + static_cast<unsigned>(rng.below(n * 2));
      for (unsigned v = 0; v < n; ++v) {
        in.ints.push_back(tt.int_var(std::string("r").append(std::to_string(v))));
      }
      for (unsigned i = 0; i < m; ++i) {
        const unsigned x = static_cast<unsigned>(rng.below(n));
        const unsigned y = (x + 1 + static_cast<unsigned>(rng.below(n - 1))) % n;
        s.assert_term(tt.le(in.ints[x], tt.add_const(in.ints[y], rng.range(-4, 6))));
      }
      break;
    }
    case Family::kFormula: {
      for (int v = 0; v < 4; ++v) {
        in.ints.push_back(tt.int_var(std::string("z").append(std::to_string(v))));
      }
      for (int a = 0; a < 3; ++a) {
        s.assert_term(RandomFormula::build(tt, rng, 3, in.ints));
      }
      break;
    }
  }
  return in;
}

class PhaseHintTest : public ::testing::TestWithParam<std::uint64_t> {};

// Hints only change phases, so no hint may change a verdict: random hints
// and deliberately wrong ones (the negation of a model, or anything at all
// on an UNSAT instance) leave SAT / UNSAT as the unhinted solver found it,
// and every hinted model still satisfies the assertions. A hint that IS a
// model is found without a single conflict.
TEST_P(PhaseHintTest, HintsNeverChangeTheVerdict) {
  const std::uint64_t seed = GetParam();
  for (const Family family : {Family::kCnf, Family::kIdl, Family::kFormula}) {
    Solver base;
    const Instance in = build_instance(base, family, seed);
    const SolveResult expected = base.check();
    ASSERT_NE(expected, SolveResult::kUnknown);

    support::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    std::vector<VarValue> random;
    std::vector<VarValue> wrong;
    std::vector<VarValue> model;
    const bool sat = expected == SolveResult::kSat;
    for (const TermId b : in.bools) {
      random.push_back({b, rng.chance(1, 2) ? 1 : 0});
      wrong.push_back({b, sat && base.model_bool(b) ? 0 : 1});
      if (sat) model.push_back({b, base.model_bool(b) ? 1 : 0});
    }
    for (const TermId x : in.ints) {
      random.push_back({x, rng.range(-8, 8)});
      // Negating every value reverses every difference the model chose.
      wrong.push_back({x, sat ? -base.model_int(x) : 0});
      if (sat) model.push_back({x, base.model_int(x)});
    }

    for (const auto* hints : {&random, &wrong, &model}) {
      if (hints == &model && !sat) continue;
      Solver hinted;
      build_instance(hinted, family, seed);
      hinted.hint_phases(*hints);
      const std::string where = "seed=" + std::to_string(seed) +
                                " family=" + std::to_string(static_cast<int>(family));
      ASSERT_EQ(hinted.check(), expected) << where;
      if (!sat) continue;
      for (const TermId a : hinted.assertions()) {
        EXPECT_TRUE(hinted.model_bool(a)) << where;
      }
      if (hints == &model) {
        EXPECT_EQ(hinted.sat_stats().conflicts, 0u) << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PhaseHintTest,
    ::testing::Range<std::uint64_t>(0, 4 * support::env_u64("MCSYM_TEST_ITERS", 25)));

// --- Assumptions and unsat cores --------------------------------------------

TEST(CheckAssumingTest, SatUnderConsistentAssumptions) {
  Solver s;
  auto& tt = s.terms();
  const TermId x = tt.int_var("x");
  const TermId y = tt.int_var("y");
  s.assert_term(tt.lt(x, y));
  const auto r = s.check_assuming({{tt.le(y, tt.int_const(5))}});
  EXPECT_EQ(r.result, SolveResult::kSat);
  EXPECT_TRUE(r.core.empty());
  EXPECT_LT(s.model_int(x), s.model_int(y));
  EXPECT_LE(s.model_int(y), 5);
}

TEST(CheckAssumingTest, CoreNamesOnlyTheConflictingAssumptions) {
  Solver s;
  auto& tt = s.terms();
  const TermId x = tt.int_var("x");
  const TermId y = tt.int_var("y");
  const TermId z = tt.int_var("z");
  s.assert_term(tt.lt(x, y));  // background: x < y

  const TermId clash = tt.lt(y, x);              // conflicts with background
  const TermId harmless = tt.le(z, tt.int_const(3));  // independent
  const auto r = s.check_assuming({{harmless, clash}});
  ASSERT_EQ(r.result, SolveResult::kUnsat);
  ASSERT_EQ(r.core.size(), 1u) << "the harmless assumption must not be blamed";
  EXPECT_EQ(r.core[0], clash);
}

TEST(CheckAssumingTest, CoreWithTwoMutuallyExclusiveAssumptions) {
  Solver s;
  auto& tt = s.terms();
  const TermId a = tt.bool_var("a");
  const TermId nb = tt.not_(a);
  const auto r = s.check_assuming({{a, nb}});
  ASSERT_EQ(r.result, SolveResult::kUnsat);
  EXPECT_EQ(r.core.size(), 2u) << "a and not-a refute each other";
}

TEST(CheckAssumingTest, EmptyCoreWhenFormulaItselfUnsat) {
  Solver s;
  auto& tt = s.terms();
  const TermId x = tt.int_var("x");
  s.assert_term(tt.lt(x, tt.int_const(0)));
  s.assert_term(tt.gt(x, tt.int_const(0)));
  const TermId innocent = tt.bool_var("p");
  const auto r = s.check_assuming({{innocent}});
  ASSERT_EQ(r.result, SolveResult::kUnsat);
  EXPECT_TRUE(r.core.empty());
}

TEST(CheckAssumingTest, AssumptionsDoNotPersist) {
  Solver s;
  auto& tt = s.terms();
  const TermId x = tt.int_var("x");
  s.assert_term(tt.ge(x, tt.int_const(0)));

  const auto under = s.check_assuming({{tt.lt(x, tt.int_const(0))}});
  EXPECT_EQ(under.result, SolveResult::kUnsat);
  EXPECT_EQ(s.check(), SolveResult::kSat)
      << "a failed assumption must not poison later checks";
}

TEST(CheckAssumingTest, ChainedImplicationCore) {
  // a => b => c, assume a and not-c: the core must contain both.
  Solver s;
  auto& tt = s.terms();
  const TermId a = tt.bool_var("a");
  const TermId b = tt.bool_var("b");
  const TermId c = tt.bool_var("c");
  s.assert_term(tt.implies(a, b));
  s.assert_term(tt.implies(b, c));
  const TermId not_c = tt.not_(c);
  const auto r = s.check_assuming({{a, not_c}});
  ASSERT_EQ(r.result, SolveResult::kUnsat);
  EXPECT_EQ(r.core.size(), 2u) << "both endpoints of the implication chain";
}

TEST(CheckAssumingTest, RepeatedCallsGiveConsistentCores) {
  Solver s;
  auto& tt = s.terms();
  const TermId x = tt.int_var("x");
  const TermId y = tt.int_var("y");
  s.assert_term(tt.eq(x, tt.int_const(1)));
  const TermId bad = tt.eq(x, tt.add_const(y, 1));
  const TermId worse = tt.ne(y, tt.int_const(0));
  for (int round = 0; round < 3; ++round) {
    const auto r = s.check_assuming({{bad, worse}});
    ASSERT_EQ(r.result, SolveResult::kUnsat) << round;
    EXPECT_FALSE(r.core.empty()) << round;
  }
  EXPECT_EQ(s.check(), SolveResult::kSat);
}

// The default build carries the stub backend (the z3_backend CMake option
// is off): it must report itself unavailable cleanly so every cross-check
// self-skips instead of crashing. When the real backend is linked in,
// availability and the MCSYM_HAVE_Z3 define must agree.
TEST(Z3BackendSmokeTest, AvailabilityMatchesBuildConfiguration) {
#ifdef MCSYM_HAVE_Z3
  EXPECT_TRUE(Z3Backend::available());
#else
  EXPECT_FALSE(Z3Backend::available());
#endif
}

class Z3AgreementTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Z3AgreementTest, RandomFormulaSameVerdict) {
  if (!Z3Backend::available()) GTEST_SKIP() << "built without Z3";
  support::Rng rng(GetParam());
  Solver s;
  auto& tt = s.terms();
  std::vector<TermId> vars;
  for (int v = 0; v < 4; ++v) vars.push_back(tt.int_var(std::string("z").append(std::to_string(v))));
  for (int a = 0; a < 3; ++a) {
    s.assert_term(RandomFormula::build(tt, rng, 3, vars));
  }
  const SolveResult ours = s.check();
  const SolveResult z3 = Z3Backend::check(s.terms(), s.assertions());
  EXPECT_EQ(ours, z3) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, Z3AgreementTest,
                         ::testing::Range<std::uint64_t>(0, 60));

}  // namespace
}  // namespace mcsym::smt
