// End-to-end integration: record -> serialize -> reload -> analyze, plus
// the full workflow on each shipped workload.
#include <gtest/gtest.h>

#include "check/symbolic_checker.hpp"
#include "check/verifier.hpp"
#include "check/workloads.hpp"
#include "mcapi/executor.hpp"
#include "smt/smtlib.hpp"
#include "smt/solver.hpp"
#include "trace/trace.hpp"

namespace mcsym {
namespace {

namespace wl = check::workloads;

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

TEST(IntegrationTest, EveryWorkloadRunsAndEncodes) {
  struct Case {
    const char* name;
    mcapi::Program program;
    smt::SolveResult expected;  // verdict of check() with in-program asserts
  };
  std::vector<Case> cases;
  // figure1 and message_race state no properties: with nothing to negate the
  // problem is just "a consistent execution exists", which is SAT.
  cases.push_back({"figure1", wl::figure1(), smt::SolveResult::kSat});
  cases.push_back({"message_race", wl::message_race(2, 2), smt::SolveResult::kSat});
  // pipeline/ring assert deterministic facts: negation UNSAT (verified).
  cases.push_back({"pipeline", wl::pipeline(3, 2), smt::SolveResult::kUnsat});
  cases.push_back({"ring", wl::ring(3), smt::SolveResult::kUnsat});
  // racy assertions: violation reachable, SAT.
  cases.push_back({"scatter_gather", wl::scatter_gather(2), smt::SolveResult::kSat});
  cases.push_back(
      {"nonblocking_gather", wl::nonblocking_gather(2), smt::SolveResult::kSat});

  for (auto& c : cases) {
    // Find a completing seed (racy asserts can fire at runtime).
    bool done = false;
    for (std::uint64_t seed = 0; seed < 64 && !done; ++seed) {
      mcapi::System sys(c.program);
      trace::Trace tr(c.program);
      trace::Recorder rec(tr);
      mcapi::RandomScheduler sched(seed);
      if (!mcapi::run(sys, sched, &rec).completed()) continue;
      ASSERT_FALSE(tr.validate().has_value()) << c.name;
      check::SymbolicChecker checker(tr);
      EXPECT_EQ(checker.check().result, c.expected) << c.name;
      done = true;
    }
    EXPECT_TRUE(done) << "no completing run found for " << c.name;
  }
}

TEST(IntegrationTest, VerifierPortfolioAgreesOnEveryWorkload) {
  // The facade's end-to-end story on the shipped workloads: all four
  // engines behind one call, verdicts normalized, cross-checks silent.
  struct Case {
    const char* name;
    mcapi::Program program;
    check::Verdict expected;
  };
  std::vector<Case> cases;
  cases.push_back({"figure1", wl::figure1(), check::Verdict::kSafe});
  cases.push_back(
      {"message_race", wl::message_race(2, 2), check::Verdict::kSafe});
  cases.push_back({"pipeline", wl::pipeline(3, 2), check::Verdict::kSafe});
  cases.push_back(
      {"scatter_gather", wl::scatter_gather(2), check::Verdict::kViolation});
  cases.push_back({"nonblocking_gather", wl::nonblocking_gather(2),
                   check::Verdict::kViolation});

  check::Verifier verifier;
  for (auto& c : cases) {
    check::VerifyRequest req;
    req.engine = check::Engine::kPortfolio;
    req.traces = 3;
    const check::VerifyReport report = verifier.verify(c.program, req);
    EXPECT_EQ(report.verdict, c.expected) << c.name;
    EXPECT_TRUE(report.agreed())
        << c.name << ": " << report.disagreements.front();
    if (c.expected == check::Verdict::kViolation) {
      EXPECT_FALSE(report.witness_schedule.empty()) << c.name;
    }
  }
}

TEST(IntegrationTest, StatefulPortfolioClassifiesTheLoopingWorkloads) {
  // The looping workloads through the same portfolio path: the finite loops
  // get a definitive safe verdict (stateful matching is what lets the
  // explicit/DPOR engines terminate on them with a classification), and the
  // livelock gets the non-termination verdict with a lasso witness.
  struct Case {
    const char* name;
    mcapi::Program program;
    check::Verdict expected;
  };
  std::vector<Case> cases;
  cases.push_back({"select_server_loop", wl::select_server_loop(2),
                   check::Verdict::kSafe});
  cases.push_back(
      {"request_stream", wl::request_stream(3), check::Verdict::kSafe});
  cases.push_back(
      {"livelock_pair", wl::livelock_pair(), check::Verdict::kNonTermination});

  check::Verifier verifier;
  for (auto& c : cases) {
    check::VerifyRequest req;
    req.engine = check::Engine::kPortfolio;
    req.stateful = true;
    req.traces = 3;
    const check::VerifyReport report = verifier.verify(c.program, req);
    EXPECT_EQ(report.verdict, c.expected) << c.name;
    EXPECT_TRUE(report.agreed())
        << c.name << ": " << report.disagreements.front();
    if (c.expected == check::Verdict::kNonTermination) {
      EXPECT_FALSE(report.lasso_cycle.empty()) << c.name;
    }
  }
}

TEST(IntegrationTest, SmtLibExportParsesStructurally) {
  const mcapi::Program p = wl::figure1();
  const trace::Trace tr = record(p);
  check::SymbolicChecker checker(tr);
  smt::Solver solver;
  encode::Encoder encoder(solver, tr, checker.match_set());
  (void)encoder.encode();
  const std::string text = smt::to_smtlib(solver.terms(), solver.assertions());
  // Balanced parentheses and one check-sat.
  int depth = 0;
  for (const char ch : text) {
    if (ch == '(') ++depth;
    if (ch == ')') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(IntegrationTest, WitnessScheduleRespectsProgramOrder) {
  const auto [program, properties] = wl::figure1_with_property();
  const trace::Trace tr = record(program, 42, false);
  check::SymbolicChecker checker(tr);
  const auto verdict = checker.check(properties);
  ASSERT_TRUE(verdict.witness.has_value());
  // Within each thread, the witness linearization must preserve op order.
  std::vector<std::int64_t> last_op(tr.num_threads(), -1);
  for (const trace::EventIndex idx : verdict.witness->linearization) {
    const auto& ev = tr.event(idx).ev;
    EXPECT_GT(static_cast<std::int64_t>(ev.op_index), last_op[ev.thread]);
    last_op[ev.thread] = ev.op_index;
  }
  // And every matched send must appear before its receive's completion.
  for (const auto& [recv, send] : verdict.witness->matching) {
    const trace::EventIndex completion = tr.completion_of(recv);
    std::size_t send_pos = 0;
    std::size_t completion_pos = 0;
    for (std::size_t i = 0; i < verdict.witness->linearization.size(); ++i) {
      if (verdict.witness->linearization[i] == send) send_pos = i;
      if (verdict.witness->linearization[i] == completion) completion_pos = i;
    }
    EXPECT_LT(send_pos, completion_pos);
  }
}

TEST(IntegrationTest, DelayBiasedTracesStillAnalyzeCorrectly) {
  // Very laggy network during recording: in-transit pile-ups. The analysis
  // result must be independent of which concrete trace we happened to see.
  const mcapi::Program p = wl::figure1();
  std::set<std::size_t> counts;
  for (const double bias : {0.05, 1.0, 20.0}) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      mcapi::System sys(p);
      trace::Trace tr(p);
      trace::Recorder rec(tr);
      mcapi::RandomScheduler sched(seed, bias);
      ASSERT_TRUE(mcapi::run(sys, sched, &rec).completed());
      check::SymbolicChecker checker(tr);
      counts.insert(checker.enumerate_matchings().matchings.size());
    }
  }
  EXPECT_EQ(counts, (std::set<std::size_t>{2}));
}

TEST(IntegrationTest, BaselineAgreesWhereDelaysDontMatter) {
  // Single-sender FIFO workload: baselines and the paper's engine coincide.
  const mcapi::Program p = wl::pipeline(3, 3);
  const trace::Trace tr = record(p);
  check::SymbolicChecker paper(tr);
  check::SymbolicOptions delay_opts;
  delay_opts.encode.delay_ignorant = true;
  check::SymbolicChecker baseline(tr, delay_opts);
  EXPECT_EQ(paper.check().result, smt::SolveResult::kUnsat);
  EXPECT_EQ(baseline.check().result, smt::SolveResult::kUnsat);
  EXPECT_EQ(paper.enumerate_matchings().matchings,
            baseline.enumerate_matchings().matchings);
}

}  // namespace
}  // namespace mcsym
