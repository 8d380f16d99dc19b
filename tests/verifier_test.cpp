// The Verifier facade: every engine reachable through one entry point, one
// verdict vocabulary, shared budgets, cancellation, and — the point of the
// redesign — a frozen JSON report schema, pinned by golden-file tests for
// each verdict class. If an intentional schema change breaks a golden,
// bump "mcsym.verify/1" and update the goldens in the same commit.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "check/verifier.hpp"
#include "check/workloads.hpp"
#include "mcapi/program.hpp"
#include "text/program_text.hpp"

namespace mcsym::check {
namespace {

using mcapi::Cond;
using mcapi::Program;
using mcapi::Rel;
using mcapi::ThreadBuilder;

/// Two senders race payloads 1 and 2 into t0; the assert pins payload 1,
/// so the schedule where t2's message wins violates it.
Program race_with_assert() {
  Program p;
  auto t0 = p.add_thread("t0");
  auto t1 = p.add_thread("t1");
  auto t2 = p.add_thread("t2");
  const auto e0 = p.add_endpoint("e0", t0.ref());
  const auto e1 = p.add_endpoint("e1", t1.ref());
  const auto e2 = p.add_endpoint("e2", t2.ref());
  t1.send(e1, e0, 1);
  t2.send(e2, e0, 2);
  t0.recv(e0, "A").assert_that(Cond{t0.v("A"), Rel::kEq, ThreadBuilder::c(1)});
  p.finalize();
  return p;
}

/// Same race, but the losing payload violates *two* asserts along the same
/// execution (A == 1 and A != 2): continue-past-violation replay must
/// report both.
Program race_with_two_asserts() {
  Program p;
  auto t0 = p.add_thread("t0");
  auto t1 = p.add_thread("t1");
  auto t2 = p.add_thread("t2");
  const auto e0 = p.add_endpoint("e0", t0.ref());
  const auto e1 = p.add_endpoint("e1", t1.ref());
  const auto e2 = p.add_endpoint("e2", t2.ref());
  t1.send(e1, e0, 1);
  t2.send(e2, e0, 2);
  t0.recv(e0, "A")
      .assert_that(Cond{t0.v("A"), Rel::kEq, ThreadBuilder::c(1)})
      .assert_that(Cond{t0.v("A"), Rel::kNe, ThreadBuilder::c(2)});
  p.finalize();
  return p;
}

/// One receive that no send ever feeds: deadlocks in every schedule.
Program starved_receiver() {
  Program p;
  auto t0 = p.add_thread("t0");
  const auto e0 = p.add_endpoint("e0", t0.ref());
  t0.recv(e0, "A");
  p.finalize();
  return p;
}

/// Handshake whose assert holds in every execution.
Program safe_handshake() {
  Program p;
  auto t0 = p.add_thread("t0");
  auto t1 = p.add_thread("t1");
  const auto e0 = p.add_endpoint("e0", t0.ref());
  const auto e1 = p.add_endpoint("e1", t1.ref());
  t1.send(e1, e0, 5);
  t0.recv(e0, "A").assert_that(Cond{t0.v("A"), Rel::kEq, ThreadBuilder::c(5)});
  p.finalize();
  return p;
}

// --- Unified verdicts across engines --------------------------------------------

TEST(VerifierTest, AllEnginesReachTheViolationVerdict) {
  const Program p = race_with_assert();
  for (const Engine engine :
       {Engine::kSymbolic, Engine::kExplicit, Engine::kDporOptimal,
        Engine::kDporSleepSet, Engine::kPortfolio}) {
    VerifyRequest req;
    req.engine = engine;
    // The symbolic engine's verdict is per-trace: sample a few schedules so
    // some recorded trace admits the violating reordering.
    req.traces = 4;
    Verifier verifier;
    const VerifyReport report = verifier.verify(p, req);
    EXPECT_EQ(report.verdict, Verdict::kViolation) << engine_name(engine);
    EXPECT_FALSE(report.witness_schedule.empty()) << engine_name(engine);
    ASSERT_TRUE(report.violation.has_value()) << engine_name(engine);
    EXPECT_EQ(report.violation->thread, 0u);
    EXPECT_TRUE(report.agreed()) << engine_name(engine);
    ASSERT_EQ(report.engines.size(),
              engine == Engine::kPortfolio ? 4u : 1u);
  }
}

TEST(VerifierTest, AllEnginesReachTheDeadlockVerdict) {
  const Program p = starved_receiver();
  for (const Engine engine :
       {Engine::kSymbolic, Engine::kExplicit, Engine::kDporOptimal,
        Engine::kDporSleepSet, Engine::kPortfolio}) {
    VerifyRequest req;
    req.engine = engine;
    Verifier verifier;
    const VerifyReport report = verifier.verify(p, req);
    EXPECT_EQ(report.verdict, Verdict::kDeadlock) << engine_name(engine);
    EXPECT_TRUE(report.agreed()) << engine_name(engine);
  }
}

TEST(VerifierTest, AllEnginesReachTheSafeVerdict) {
  const Program p = safe_handshake();
  for (const Engine engine :
       {Engine::kSymbolic, Engine::kExplicit, Engine::kDporOptimal,
        Engine::kDporSleepSet, Engine::kPortfolio}) {
    VerifyRequest req;
    req.engine = engine;
    req.traces = 3;
    Verifier verifier;
    const VerifyReport report = verifier.verify(p, req);
    EXPECT_EQ(report.verdict, Verdict::kSafe) << engine_name(engine);
    EXPECT_TRUE(report.agreed()) << engine_name(engine);
    EXPECT_TRUE(report.witness_schedule.empty()) << engine_name(engine);
  }
}

TEST(VerifierTest, BudgetTruncationIsABudgetExhaustedVerdict) {
  const Program p = workloads::message_race(3, 2);
  {
    VerifyRequest req;
    req.engine = Engine::kExplicit;
    req.budget.max_states = 5;
    Verifier verifier;
    const VerifyReport report = verifier.verify(p, req);
    EXPECT_EQ(report.verdict, Verdict::kBudgetExhausted);
    EXPECT_TRUE(report.engines.front().truncated);
  }
  {
    VerifyRequest req;
    req.engine = Engine::kDporOptimal;
    req.budget.max_transitions = 3;
    Verifier verifier;
    const VerifyReport report = verifier.verify(p, req);
    EXPECT_EQ(report.verdict, Verdict::kBudgetExhausted);
    EXPECT_TRUE(report.engines.front().truncated);
  }
}

TEST(VerifierTest, StatelessDporOnALivelockEndsAtItsTransitionBudget) {
  // livelock.mcp spins forever on mcapi_test, so stateless DPOR walks one
  // never-ending path and only the transition budget stops it. The race
  // scan of each appended event must stay cheap as that path grows: 4000
  // transitions take milliseconds.
  std::ifstream in(std::string(MCSYM_EXAMPLES_DIR) + "/livelock.mcp",
                   std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::string source{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
  const text::ParseOutcome parsed = text::parse_program(source);
  ASSERT_TRUE(parsed.ok()) << parsed.error_text();
  for (const std::uint32_t workers : {1u, 2u}) {
    VerifyRequest req;
    req.engine = Engine::kDporOptimal;
    req.workers = workers;
    req.budget.max_transitions = 4000;
    Verifier verifier;
    const VerifyReport report = verifier.verify(parsed.parsed->program, req);
    EXPECT_EQ(report.verdict, Verdict::kBudgetExhausted) << workers;
    ASSERT_EQ(report.engines.size(), 1u);
    EXPECT_TRUE(report.engines.front().truncated) << workers;
  }
}

TEST(VerifierTest, EngineNamesRoundTrip) {
  for (const Engine engine :
       {Engine::kSymbolic, Engine::kExplicit, Engine::kDporOptimal,
        Engine::kDporSleepSet, Engine::kPortfolio}) {
    const auto back = engine_from_name(engine_name(engine));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, engine);
  }
  EXPECT_EQ(engine_from_name("dpor-optimal"), Engine::kDporOptimal);
  EXPECT_FALSE(engine_from_name("frobnicate").has_value());
}

TEST(VerifierTest, ProgressCallbackObservesStagesAndCancels) {
  const Program p = workloads::message_race(3, 2);
  // First: the callback sees stages and elapsed time.
  {
    VerifyRequest req;
    req.engine = Engine::kPortfolio;
    int fired = 0;
    req.progress = [&fired](const Progress& progress) {
      EXPECT_NE(progress.stage, nullptr);
      EXPECT_GE(progress.seconds, 0.0);
      ++fired;
      return true;
    };
    Verifier verifier;
    const VerifyReport report = verifier.verify(p, req);
    EXPECT_FALSE(report.cancelled);
    EXPECT_GT(fired, 0);
  }
  // Second: returning false cancels — the verdict degrades to
  // budget-exhausted instead of lying about completeness.
  {
    VerifyRequest req;
    req.engine = Engine::kExplicit;
    req.progress = [](const Progress&) { return false; };
    Verifier verifier;
    const VerifyReport report = verifier.verify(p, req);
    EXPECT_TRUE(report.cancelled);
    EXPECT_EQ(report.verdict, Verdict::kBudgetExhausted);
  }
}

TEST(VerifierTest, PortfolioReproducesTheDifferentialAgreementChecks) {
  // A portfolio run on each verdict class: engines agree, the differential
  // counters show real cross-checking happened.
  Verifier verifier;
  {
    VerifyRequest req;
    req.engine = Engine::kPortfolio;
    req.traces = 4;
    const VerifyReport report = verifier.verify(race_with_assert(), req);
    EXPECT_TRUE(report.agreed()) << report.disagreements.front();
    ASSERT_TRUE(report.portfolio.has_value());
    EXPECT_GT(report.portfolio->traces_checked, 0u);
    EXPECT_GT(report.portfolio->sat_verdicts, 0u);
    EXPECT_GT(report.portfolio->witnesses_replayed, 0u);
  }
  {
    VerifyRequest req;
    req.engine = Engine::kPortfolio;
    const VerifyReport report = verifier.verify(starved_receiver(), req);
    EXPECT_TRUE(report.agreed());
    ASSERT_TRUE(report.portfolio.has_value());
    EXPECT_TRUE(report.portfolio->deadlock_reachable);
    // Explicit + both DPOR modes each replayed their deadlock schedule.
    EXPECT_EQ(report.portfolio->deadlock_schedules_replayed, 3u);
  }
}

// --- Concurrent portfolio and sharded DPOR (workers > 1) -------------------------

TEST(VerifierTest, ConcurrentPortfolioMatchesSerialVerdicts) {
  // workers > 1 moves explicit + both DPOR engines onto their own threads
  // under the shared budget. Verdicts, agreement, and the fixed engine-row
  // order (explicit, DPOR optimal, DPOR sleep-set, symbolic) must all match
  // the serial portfolio.
  struct Case {
    const char* name;
    Program program;
    Verdict verdict;
  };
  std::vector<Case> cases;
  cases.push_back({"safe", safe_handshake(), Verdict::kSafe});
  cases.push_back({"violation", race_with_assert(), Verdict::kViolation});
  cases.push_back({"deadlock", starved_receiver(), Verdict::kDeadlock});
  for (Case& c : cases) {
    VerifyRequest req;
    req.engine = Engine::kPortfolio;
    req.workers = 4;
    req.traces = 4;
    Verifier verifier;
    const VerifyReport report = verifier.verify(c.program, req);
    SCOPED_TRACE(c.name);
    EXPECT_EQ(report.verdict, c.verdict);
    EXPECT_TRUE(report.agreed())
        << (report.disagreements.empty() ? "" : report.disagreements.front());
    ASSERT_EQ(report.engines.size(), 4u);
    EXPECT_EQ(report.engines[0].engine, Engine::kExplicit);
    EXPECT_EQ(report.engines[1].engine, Engine::kDporOptimal);
    EXPECT_EQ(report.engines[2].engine, Engine::kDporSleepSet);
    EXPECT_EQ(report.engines[3].engine, Engine::kSymbolic);
  }
}

TEST(VerifierTest, ConcurrentPortfolioCancelsPromptly) {
  // The progress callback is fired from several engine threads at once; a
  // false return must latch cancellation for the whole fleet and degrade
  // the verdict to budget-exhausted, never hang or crash.
  const Program p = workloads::message_race(4, 2);
  VerifyRequest req;
  req.engine = Engine::kPortfolio;
  req.workers = 4;
  std::atomic<int> fired{0};
  req.progress = [&fired](const Progress& progress) {
    EXPECT_NE(progress.stage, nullptr);
    fired.fetch_add(1, std::memory_order_relaxed);
    return false;
  };
  Verifier verifier;
  const VerifyReport report = verifier.verify(p, req);
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.verdict, Verdict::kBudgetExhausted);
  EXPECT_GT(fired.load(), 0);
}

TEST(VerifierTest, ConcurrentPortfolioSharesTheWallClock) {
  // One joint wall clock: an exhausted budget truncates every concurrent
  // engine, and the report still carries one row per engine with its
  // merged partial counters.
  const Program p = workloads::message_race(4, 2);
  VerifyRequest req;
  req.engine = Engine::kPortfolio;
  req.workers = 4;
  req.budget.max_seconds = 1e-9;
  Verifier verifier;
  const VerifyReport report = verifier.verify(p, req);
  EXPECT_EQ(report.verdict, Verdict::kBudgetExhausted);
  ASSERT_EQ(report.engines.size(), 3u);  // symbolic never starts
  EXPECT_EQ(report.engines[0].engine, Engine::kExplicit);
  EXPECT_EQ(report.engines[1].engine, Engine::kDporOptimal);
  EXPECT_EQ(report.engines[2].engine, Engine::kDporSleepSet);
  for (const EngineRun& run : report.engines) {
    EXPECT_TRUE(run.truncated) << engine_name(run.engine);
    EXPECT_FALSE(run.counters.empty()) << engine_name(run.engine);
  }
}

TEST(VerifierTest, ShardedDporEngineReportsThroughTheFacade) {
  // --workers on the single DPOR engine: the work-stealing run keeps the
  // serial trace counters (90 traces for message_race(3,2)) and the report
  // grows the counters that only exist when workers > 1: the raced
  // duplicates, the resolved worker count, and the scheduler telemetry
  // (steals / steal_failures / claim_conflicts / max_replay_depth). The
  // telemetry VALUES are timing-dependent, so only presence and the echoed
  // worker count are pinned here; the value invariants live in
  // parallel_dpor_test.
  const Program p = workloads::message_race(3, 2);
  VerifyRequest req;
  req.engine = Engine::kDporOptimal;
  req.workers = 4;
  Verifier verifier;
  const VerifyReport report = verifier.verify(p, req);
  EXPECT_EQ(report.verdict, Verdict::kSafe);
  ASSERT_EQ(report.engines.size(), 1u);
  std::uint64_t executions = 0;
  std::uint64_t workers_echo = 0;
  std::vector<std::string> seen;
  for (const auto& [name, value] : report.engines.front().counters) {
    if (name == "executions") executions = value;
    if (name == "workers") workers_echo = value;
    seen.push_back(name);
  }
  EXPECT_EQ(executions, 90u);
  EXPECT_EQ(workers_echo, 4u);
  for (const char* key : {"parallel_duplicates", "steals", "steal_failures",
                          "claim_conflicts", "max_replay_depth"}) {
    EXPECT_NE(std::find(seen.begin(), seen.end(), key), seen.end()) << key;
  }
}

/// The DPOR engines' worker-only counters (duplicates, echoed worker count,
/// scheduler telemetry) exist solely when workers > 1: the one legitimate
/// worker-count difference between two reports, stripped before comparing.
std::string strip_parallel_duplicates(std::string json) {
  for (const char* name :
       {"parallel_duplicates", "workers", "steals", "steal_failures",
        "claim_conflicts", "max_replay_depth"}) {
    const std::string key = std::string(", \"") + name + "\": ";
    for (std::size_t at = json.find(key); at != std::string::npos;
         at = json.find(key, at)) {
      std::size_t end = at + key.size();
      while (end < json.size() && std::isdigit(json[end]) != 0) ++end;
      json.erase(at, end - at);
    }
  }
  return json;
}

TEST(VerifierTest, ShardedSymbolicStageIsByteIdenticalToSerial) {
  // The symbolic stage shards per-trace production across workers but is
  // judged serially in trace-index order, so the whole JSON report —
  // verdicts, witnesses, counters, portfolio stats — must be byte-identical
  // to the serial run at every worker count (timing fields zeroed, the one
  // nondeterministic ingredient; worker-only DPOR counters stripped).
  struct Case {
    const char* name;
    Program program;
  };
  std::vector<Case> cases;
  cases.push_back({"safe", safe_handshake()});
  cases.push_back({"violation", race_with_assert()});
  cases.push_back({"two-asserts", race_with_two_asserts()});
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    for (const Engine engine : {Engine::kSymbolic, Engine::kPortfolio}) {
      std::string serial;
      for (const std::uint32_t workers : {1u, 2u, 4u, 8u}) {
        VerifyRequest req;
        req.engine = engine;
        req.traces = 4;
        req.workers = workers;
        Verifier verifier;
        VerifyReport report = verifier.verify(c.program, req);
        zero_report_seconds(report);
        const std::string json = strip_parallel_duplicates(report_to_json(report));
        if (workers == 1) {
          serial = json;
        } else {
          EXPECT_EQ(json, serial) << engine_name(engine) << " workers="
                                  << workers;
        }
      }
    }
  }
}

TEST(VerifierTest, PropertyOnAnUninternedLocalLeavesTheProgramUntouched) {
  // A property built through the API may name a local the program never
  // interned. Symbolic workers encode concurrently against the one shared
  // Program, so the encoder only looks the name up, never interns it: an
  // absent name is a local nothing wrote, whose final value is its initial
  // 0. Reports agree at every worker count (the TSan leg runs this too).
  const Program p = race_with_assert();
  const std::size_t names = p.interner().size();
  std::string serial;
  for (const std::uint32_t workers : {1u, 4u}) {
    VerifyRequest req;
    req.engine = Engine::kSymbolic;
    req.traces = 8;
    req.workers = workers;
    for (mcapi::ThreadRef t = 0; t < 3; ++t) {
      req.properties.push_back(encode::make_property(
          std::string("ghost").append(std::to_string(t)),
          encode::Operand::final_var(t, "ghost"),
          Rel::kEq, encode::Operand::constant(0)));
    }
    Verifier verifier;
    VerifyReport report = verifier.verify(p, req);
    EXPECT_EQ(report.verdict, Verdict::kViolation) << workers;
    EXPECT_EQ(p.interner().size(), names) << workers;
    zero_report_seconds(report);
    const std::string json = strip_parallel_duplicates(report_to_json(report));
    if (workers == 1) {
      serial = json;
    } else {
      EXPECT_EQ(json, serial) << "workers=" << workers;
    }
  }
}

TEST(VerifierTest, ContinuePastViolationReportsEveryViolation) {
  // The model values the whole execution; with continue-past-violation
  // replay the facade reports both failing asserts of the same execution
  // instead of stopping at the first.
  const Program p = race_with_two_asserts();
  VerifyRequest req;
  req.engine = Engine::kSymbolic;
  req.traces = 4;
  Verifier verifier;
  const VerifyReport report = verifier.verify(p, req);
  ASSERT_EQ(report.verdict, Verdict::kViolation);
  EXPECT_TRUE(report.agreed());
  ASSERT_EQ(report.violations.size(), 2u);
  EXPECT_EQ(report.violations[0].op_index + 1, report.violations[1].op_index);
  ASSERT_TRUE(report.violation.has_value());
  EXPECT_EQ(report.violation->op_index, report.violations[0].op_index);
}

// --- The JSON report contract ----------------------------------------------------
//
// These goldens ARE the schema: field order, key spelling, and value shapes
// are all load-bearing. Timing fields are zeroed (the one nondeterministic
// ingredient); everything else is exploration counters and schedules that
// are deterministic for a fixed program + request.

std::string golden_json(const Program& program, VerifyRequest request) {
  Verifier verifier;
  VerifyReport report = verifier.verify(program, std::move(request));
  zero_report_seconds(report);
  return report_to_json(report);
}

TEST(VerifierJsonTest, GoldenViolationReport) {
  VerifyRequest req;
  req.engine = Engine::kDporOptimal;
  const std::string expected = R"json({
  "schema": "mcsym.verify/1",
  "engine": "dpor",
  "verdict": "violation",
  "cancelled": false,
  "agreed": true,
  "seconds": 0.000000,
  "violation": {"thread": "t0", "op_index": 1, "cond": "A == 1"},
  "violations": [{"thread": "t0", "op_index": 1, "cond": "A == 1"}],
  "witness_schedule": ["step(t1)", "step(t2)", "deliver(e2->e0)", "step(t0)", "step(t0)"],
  "deadlock_schedule": [],
  "lasso_stem": [],
  "lasso_cycle": [],
  "engines": [
    {"engine": "dpor", "verdict": "violation", "truncated": false, "seconds": 0.000000, "counters": {"transitions": 11, "executions": 2, "terminal_states": 1, "races_detected": 1, "wakeup_nodes": 1, "sleep_prunes": 0, "redundant_explorations": 0}}
  ],
  "disagreements": [],
  "portfolio": null
}
)json";
  EXPECT_EQ(golden_json(race_with_assert(), req), expected);
}

TEST(VerifierJsonTest, GoldenDeadlockReport) {
  VerifyRequest req;
  req.engine = Engine::kExplicit;
  const std::string expected = R"json({
  "schema": "mcsym.verify/1",
  "engine": "explicit",
  "verdict": "deadlock",
  "cancelled": false,
  "agreed": true,
  "seconds": 0.000000,
  "violation": null,
  "violations": [],
  "witness_schedule": [],
  "deadlock_schedule": [],
  "lasso_stem": [],
  "lasso_cycle": [],
  "engines": [
    {"engine": "explicit", "verdict": "deadlock", "truncated": false, "seconds": 0.000000, "counters": {"states_expanded": 1, "transitions": 0, "terminal_states": 0}}
  ],
  "disagreements": [],
  "portfolio": null
}
)json";
  EXPECT_EQ(golden_json(starved_receiver(), req), expected);
}

TEST(VerifierJsonTest, GoldenSafeReport) {
  VerifyRequest req;
  req.engine = Engine::kPortfolio;
  const std::string expected = R"json({
  "schema": "mcsym.verify/1",
  "engine": "portfolio",
  "verdict": "safe",
  "cancelled": false,
  "agreed": true,
  "seconds": 0.000000,
  "violation": null,
  "violations": [],
  "witness_schedule": [],
  "deadlock_schedule": [],
  "lasso_stem": [],
  "lasso_cycle": [],
  "engines": [
    {"engine": "explicit", "verdict": "safe", "truncated": false, "seconds": 0.000000, "counters": {"states_expanded": 5, "transitions": 4, "terminal_states": 1}},
    {"engine": "dpor", "verdict": "safe", "truncated": false, "seconds": 0.000000, "counters": {"transitions": 4, "executions": 1, "terminal_states": 1, "races_detected": 0, "wakeup_nodes": 0, "sleep_prunes": 0, "redundant_explorations": 0}},
    {"engine": "dpor-sleepset", "verdict": "safe", "truncated": false, "seconds": 0.000000, "counters": {"transitions": 4, "executions": 1, "terminal_states": 1, "races_detected": 0, "wakeup_nodes": 0, "sleep_prunes": 0, "redundant_explorations": 0}},
    {"engine": "symbolic", "verdict": "safe", "truncated": false, "seconds": 0.000000, "counters": {"traces_recorded": 1, "traces_checked": 1, "traces_skipped": 0, "sat": 0, "unsat": 1, "unknown": 0, "conflicts": 0, "decisions": 0, "witnesses_replayed": 0, "solver_calls": 1, "match_disjuncts": 1, "unique_constraints": 0, "fifo_constraints": 0, "encode_micros": 0, "solve_micros": 0}}
  ],
  "disagreements": [],
  "portfolio": {"traces_checked": 1, "sat_verdicts": 0, "unsat_verdicts": 1, "witnesses_replayed": 0, "traces_skipped": 0, "dpor_skipped": 0, "deadlock_reachable": false, "deadlock_schedules_replayed": 0, "deadlocked_runs": 0, "optimal_redundant_paths": 0}
}
)json";
  EXPECT_EQ(golden_json(safe_handshake(), req), expected);
}

TEST(VerifierJsonTest, GoldenBudgetExhaustedReport) {
  VerifyRequest req;
  req.engine = Engine::kExplicit;
  req.budget.max_states = 5;
  const std::string expected = R"json({
  "schema": "mcsym.verify/1",
  "engine": "explicit",
  "verdict": "budget-exhausted",
  "cancelled": false,
  "agreed": true,
  "seconds": 0.000000,
  "violation": null,
  "violations": [],
  "witness_schedule": [],
  "deadlock_schedule": [],
  "lasso_stem": [],
  "lasso_cycle": [],
  "engines": [
    {"engine": "explicit", "verdict": "budget-exhausted", "truncated": true, "seconds": 0.000000, "counters": {"states_expanded": 5, "transitions": 5, "terminal_states": 0}}
  ],
  "disagreements": [],
  "portfolio": null
}
)json";
  EXPECT_EQ(golden_json(workloads::message_race(3, 2), req), expected);
}

}  // namespace
}  // namespace mcsym::check
