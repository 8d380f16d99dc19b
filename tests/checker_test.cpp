// Tests for the end-to-end checkers: symbolic, explicit-state, and the two
// baselines as engine settings (MCC: the explicit engine under global-FIFO
// delivery; Elwakil–Yang: the symbolic engine with the delay-ignorant
// encoding), plus the Figure-4 behavior counts through Verifier::enumerate.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "check/explicit_checker.hpp"
#include "check/symbolic_checker.hpp"
#include "check/verifier.hpp"
#include "check/workloads.hpp"
#include "mcapi/executor.hpp"
#include "trace/trace.hpp"

namespace mcsym::check {
namespace {

namespace wl = workloads;

trace::Trace record(const mcapi::Program& p, std::uint64_t seed = 1,
                    bool require_complete = true) {
  mcapi::System sys(p);
  trace::Trace tr(p);
  trace::Recorder rec(tr);
  mcapi::RandomScheduler sched(seed);
  const auto r = mcapi::run(sys, sched, &rec);
  if (require_complete) {
    EXPECT_TRUE(r.completed());
  }
  return tr;
}

// --- SymbolicChecker ------------------------------------------------------

TEST(SymbolicCheckerTest, Figure1PropertyViolable) {
  const auto [program, properties] = wl::figure1_with_property();
  const trace::Trace tr = record(program, 42, false);
  SymbolicChecker checker(tr);
  const SymbolicVerdict v = checker.check(properties);
  EXPECT_TRUE(v.violation_possible());
  ASSERT_TRUE(v.witness.has_value());
  EXPECT_FALSE(v.witness->violated.empty());
  EXPECT_GT(v.sat_vars, 0u);
}

TEST(SymbolicCheckerTest, PipelineVerified) {
  const mcapi::Program p = wl::pipeline(4, 2);
  const trace::Trace tr = record(p);
  SymbolicChecker checker(tr);
  const SymbolicVerdict v = checker.check();
  EXPECT_EQ(v.result, smt::SolveResult::kUnsat);
  EXPECT_FALSE(v.witness.has_value());
}

TEST(SymbolicCheckerTest, PreciseMatchGenGivesSameVerdict) {
  const auto [program, properties] = wl::figure1_with_property();
  const trace::Trace tr = record(program, 42, false);
  SymbolicOptions opts;
  opts.match_gen = MatchGen::kPrecise;
  SymbolicChecker checker(tr, opts);
  EXPECT_TRUE(checker.check(properties).violation_possible());
  // The precise candidate sets must be covered by the over-approximation.
  SymbolicChecker over(tr);
  EXPECT_TRUE(over.match_set().covers(checker.match_set()));
}

TEST(SymbolicCheckerTest, EnumerationMatchesGroundTruth) {
  const mcapi::Program p = wl::figure1();
  const trace::Trace tr = record(p);
  SymbolicChecker checker(tr);
  const SymbolicEnumeration e = checker.enumerate_matchings();
  EXPECT_EQ(e.matchings.size(), 2u);
  EXPECT_FALSE(e.truncated);
  EXPECT_EQ(e.solver_calls, 3u);  // 2 SAT + final UNSAT
}

TEST(SymbolicCheckerTest, EnumerationCapRespected) {
  const mcapi::Program p = wl::message_race(3, 1);
  const trace::Trace tr = record(p);
  SymbolicOptions opts;
  opts.max_matchings = 2;
  SymbolicChecker checker(tr, opts);
  const SymbolicEnumeration e = checker.enumerate_matchings();
  EXPECT_TRUE(e.truncated);
  EXPECT_EQ(e.matchings.size(), 2u);
}

// One encoding, one solver session per checker: check() and
// enumerate_matchings() on the same instance must not rebuild anything, and
// queries must not contaminate each other (enumeration blocking clauses are
// activation-guarded, properties ride as assumptions).
TEST(SymbolicCheckerTest, SessionEncodesOnceAcrossQueries) {
  const auto [program, properties] = wl::figure1_with_property();
  const trace::Trace tr = record(program, 42, false);
  SymbolicChecker checker(tr);
  EXPECT_EQ(checker.encode_count(), 0u);  // lazy: no query yet

  const SymbolicVerdict first = checker.check(properties);
  EXPECT_TRUE(first.violation_possible());
  EXPECT_EQ(checker.encode_count(), 1u);
  EXPECT_EQ(checker.solver_calls(), 1u);
  EXPECT_GT(first.encode_seconds, 0.0);

  const SymbolicEnumeration e1 = checker.enumerate_matchings();
  EXPECT_EQ(e1.matchings.size(), 2u);
  EXPECT_EQ(e1.solver_calls, 3u);  // 2 SAT + final UNSAT
  EXPECT_EQ(checker.encode_count(), 1u);  // shared session, no re-encode
  EXPECT_EQ(checker.solver_calls(), 4u);

  // A later check is not poisoned by the enumeration's blocking clauses,
  // and a repeated enumeration starts from an unblocked formula.
  const SymbolicVerdict second = checker.check(properties);
  EXPECT_EQ(second.result, first.result);
  EXPECT_EQ(second.encode_seconds, 0.0);  // encoding charged once
  const SymbolicEnumeration e2 = checker.enumerate_matchings();
  EXPECT_EQ(e2.matchings, e1.matchings);
  EXPECT_EQ(e2.solver_calls, e1.solver_calls);
  EXPECT_EQ(checker.encode_count(), 1u);
  EXPECT_EQ(checker.solver_calls(), 8u);
}

// Order independence: enumerating before the first check() must leave the
// property query intact (the session adds property terms on demand).
TEST(SymbolicCheckerTest, SessionEnumerateThenCheck) {
  const auto [program, properties] = wl::figure1_with_property();
  const trace::Trace tr = record(program, 42, false);
  SymbolicChecker checker(tr);
  const SymbolicEnumeration e = checker.enumerate_matchings();
  EXPECT_EQ(e.matchings.size(), 2u);
  const SymbolicVerdict v = checker.check(properties);
  EXPECT_TRUE(v.violation_possible());
  ASSERT_TRUE(v.witness.has_value());
  EXPECT_FALSE(v.witness->violated.empty());
  EXPECT_EQ(checker.encode_count(), 1u);
}

// --- ExplicitChecker ------------------------------------------------------

TEST(ExplicitCheckerTest, FindsScatterGatherViolation) {
  const mcapi::Program p = wl::scatter_gather(2);
  ExplicitChecker checker(p);
  const ExplicitResult r = checker.run();
  EXPECT_TRUE(r.violation_found);
  ASSERT_TRUE(r.violation.has_value());
  EXPECT_FALSE(r.counterexample.empty());
  EXPECT_FALSE(r.truncated);
}

TEST(ExplicitCheckerTest, CounterexampleReplaysToViolation) {
  const mcapi::Program p = wl::scatter_gather(2);
  ExplicitChecker checker(p);
  const ExplicitResult r = checker.run();
  ASSERT_TRUE(r.violation_found);

  mcapi::System sys(p);
  EXPECT_EQ(mcapi::replay(sys, r.counterexample).outcome,
            mcapi::RunResult::Outcome::kViolation);
}

TEST(ExplicitCheckerTest, PipelineCleanNoViolation) {
  const mcapi::Program p = wl::pipeline(3, 2);
  ExplicitChecker checker(p);
  const ExplicitResult r = checker.run();
  EXPECT_FALSE(r.violation_found);
  EXPECT_FALSE(r.deadlock_found);
  EXPECT_GT(r.states_expanded, 0u);
  EXPECT_GT(r.terminal_states, 0u);
}

TEST(ExplicitCheckerTest, DetectsDeadlock) {
  mcapi::Program p;
  auto a = p.add_thread("a");
  auto b = p.add_thread("b");
  const auto ea = p.add_endpoint("ea", a.ref());
  const auto eb = p.add_endpoint("eb", b.ref());
  // Classic cyclic wait: both receive before sending.
  a.recv(ea, "x").send(ea, eb, 1);
  b.recv(eb, "y").send(eb, ea, 2);
  p.finalize();
  ExplicitChecker checker(p);
  const ExplicitResult r = checker.run();
  EXPECT_TRUE(r.deadlock_found);
  EXPECT_FALSE(r.violation_found);
}

TEST(ExplicitCheckerTest, StateBudgetTruncates) {
  const mcapi::Program p = wl::message_race(3, 2);
  ExplicitOptions opts;
  opts.max_states = 10;
  ExplicitChecker checker(p, opts);
  const ExplicitResult r = checker.run();
  EXPECT_TRUE(r.truncated);
}

TEST(ExplicitCheckerTest, MccModeExploresFewerBehaviors) {
  const mcapi::Program p = wl::figure1();
  const trace::Trace tr = record(p);

  ExplicitChecker full(p);
  const auto full_matchings = full.enumerate_against(tr).matchings;
  ExplicitOptions mcc_opts;
  mcc_opts.mode = mcapi::DeliveryMode::kGlobalFifo;
  ExplicitChecker mcc(p, mcc_opts);
  const auto mcc_matchings = mcc.enumerate_against(tr).matchings;

  EXPECT_EQ(full_matchings.size(), 2u);
  EXPECT_EQ(mcc_matchings.size(), 1u);
  for (const auto& m : mcc_matchings) {
    EXPECT_TRUE(full_matchings.contains(m));
  }
}

// --- Baselines -------------------------------------------------------------

TEST(BaselineTest, DelayIgnorantMissesFigure1Bug) {
  const auto [program, properties] = wl::figure1_with_property();
  const trace::Trace tr = record(program, 42, false);

  SymbolicChecker paper(tr);
  EXPECT_TRUE(paper.check(properties).violation_possible());

  SymbolicOptions delay_opts;
  delay_opts.encode.delay_ignorant = true;
  SymbolicChecker baseline(tr, delay_opts);
  EXPECT_FALSE(baseline.check(properties).violation_possible())
      << "the baseline should miss the delay-dependent bug";
}

TEST(BaselineTest, MccMissesFigure1BugExplicitly) {
  const auto [program, properties] = wl::figure1_with_property();
  (void)properties;  // the in-program assert carries the property
  ExplicitOptions mcc_opts;
  mcc_opts.mode = mcapi::DeliveryMode::kGlobalFifo;
  ExplicitChecker mcc(program, mcc_opts);
  const ExplicitResult r = mcc.run();
  EXPECT_FALSE(r.violation_found)
      << "MCC's delay-free world cannot reach the 4b pairing";

  ExplicitChecker full(program);
  EXPECT_TRUE(full.run().violation_found)
      << "with delay nondeterminism the bug is reachable";
}

// --- Figure 4 through Verifier::enumerate ----------------------------------

// Behavior counts of one recorded trace per engine: the precise abstract
// execution (ground truth), the MCC global-FIFO baseline and the
// delay-ignorant encoding. The symbolic engine must equal the ground truth;
// each baseline sees a subset of it.
struct Figure4Case {
  const char* name;
  mcapi::Program (*make)();
  std::uint64_t seed;
  std::size_t precise;
  std::size_t mcc;
  std::size_t delay_ignorant;
};

void PrintTo(const Figure4Case& c, std::ostream* os) { *os << c.name; }

class Figure4Test : public ::testing::TestWithParam<Figure4Case> {};

TEST_P(Figure4Test, ClosedFormsThroughEnumerate) {
  const Figure4Case& c = GetParam();
  const mcapi::Program p = c.make();
  const trace::Trace tr = record(p, c.seed);
  Verifier verifier;

  EnumerateRequest request;
  request.with_mcc = true;
  request.with_precise = true;
  const EnumerateReport paper = verifier.enumerate(p, tr, request);
  ASSERT_FALSE(paper.truncated_any());
  EXPECT_TRUE(paper.disagreements.empty());
  EXPECT_EQ(paper.precise.size(), c.precise);
  EXPECT_EQ(paper.symbolic.matchings, paper.precise);
  ASSERT_TRUE(paper.mcc.has_value());
  EXPECT_EQ(paper.mcc->matchings.size(), c.mcc);
  for (const auto& m : paper.mcc->matchings) {
    EXPECT_TRUE(paper.precise.contains(m));
  }

  EnumerateRequest ignorant;
  ignorant.symbolic.encode.delay_ignorant = true;
  const EnumerateReport baseline = verifier.enumerate(p, tr, ignorant);
  ASSERT_FALSE(baseline.truncated_any());
  EXPECT_EQ(baseline.symbolic.matchings.size(), c.delay_ignorant);
  for (const auto& m : baseline.symbolic.matchings) {
    EXPECT_TRUE(paper.precise.contains(m));
  }
}

// relay_race(K): (2K)! pairings, (2K)!/2^K without delays. message_race:
// independent senders, so every arrival order is an issue order and the
// baselines lose nothing (they are wrong only under causality).
INSTANTIATE_TEST_SUITE_P(
    ClosedForms, Figure4Test,
    ::testing::Values(
        Figure4Case{"figure1", [] { return wl::figure1(); }, 1, 2, 1, 1},
        Figure4Case{"relay_race_2", [] { return wl::relay_race(2); }, 5, 24,
                    6, 6},
        Figure4Case{"message_race_2_1", [] { return wl::message_race(2, 1); },
                    1, 2, 2, 2}),
    [](const ::testing::TestParamInfo<Figure4Case>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace mcsym::check
