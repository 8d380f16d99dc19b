// mcapi_test (completion poll) semantics, end to end: runtime behavior,
// trace capture/serialization, symbolic encoding of pinned poll outcomes,
// cross-validation against the reference enumerations, witness replay, and
// the C API facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "check/explicit_checker.hpp"
#include "check/random_program.hpp"
#include "check/symbolic_checker.hpp"
#include "check/witness_replay.hpp"
#include "check/workloads.hpp"
#include "encode/encoder.hpp"
#include "match/generators.hpp"
#include "mcapi/capi.hpp"
#include "mcapi/executor.hpp"
#include "smt/solver.hpp"
#include "text/program_text.hpp"
#include "trace/trace.hpp"

namespace mcsym::check {
namespace {

namespace wl = workloads;
using mcapi::Action;
using mcapi::ExecEvent;
using mcapi::System;

trace::Trace record(const mcapi::Program& p, std::uint64_t seed) {
  System sys(p);
  trace::Trace tr(p);
  trace::Recorder rec(tr);
  mcapi::RandomScheduler sched(seed);
  const auto r = mcapi::run(sys, sched, &rec);
  EXPECT_NE(r.outcome, mcapi::RunResult::Outcome::kDeadlock);
  return tr;
}

/// The single kTest event's outcome in a trace; -1 if absent.
int poll_outcome(const trace::Trace& tr) {
  for (std::size_t i = 0; i < tr.size(); ++i) {
    const auto& e = tr.event(static_cast<trace::EventIndex>(i)).ev;
    if (e.kind == ExecEvent::Kind::kTest) return e.outcome ? 1 : 0;
  }
  return -1;
}

// --- Runtime semantics -----------------------------------------------------------

TEST(PollRuntimeTest, OutcomeTracksDeliveryExactly) {
  // rx: recv_i; test -> flag; wait.  tx: send.
  mcapi::Program p;
  auto rx = p.add_thread("rx");
  auto tx = p.add_thread("tx");
  const auto er = p.add_endpoint("er", rx.ref());
  const auto et = p.add_endpoint("et", tx.ref());
  rx.recv_nb(er, "x", 0).test_poll(0, "flag").wait(0);
  tx.send(et, er, 7);
  p.finalize();

  const Action step_rx{Action::Kind::kThreadStep, 0, {}};
  const Action step_tx{Action::Kind::kThreadStep, 1, {}};
  const Action deliver{Action::Kind::kDeliver, 0, {et, er}};

  {
    // Poll before the message even exists: 0.
    System sys(p);
    sys.apply(step_rx);  // recv_i
    sys.apply(step_rx);  // test
    EXPECT_EQ(sys.local(0, 1), 0) << "flag is slot 1 (x is slot 0)";
  }
  {
    // Poll after send but before delivery: still 0.
    System sys(p);
    sys.apply(step_rx);
    sys.apply(step_tx);
    sys.apply(step_rx);
    EXPECT_EQ(sys.local(0, 1), 0);
  }
  {
    // Poll after delivery: 1, and the wait is immediately enabled.
    System sys(p);
    sys.apply(step_rx);
    sys.apply(step_tx);
    sys.apply(deliver);
    sys.apply(step_rx);
    EXPECT_EQ(sys.local(0, 1), 1);
    std::vector<Action> enabled;
    sys.enabled(enabled);
    EXPECT_TRUE(std::find(enabled.begin(), enabled.end(), step_rx) != enabled.end());
    sys.apply(step_rx);  // wait
    EXPECT_EQ(sys.local(0, 0), 7);
  }
}

TEST(PollRuntimeTest, PollNeverBlocks) {
  const mcapi::Program p = wl::polling_race(2);
  System sys(p);
  // rx can run recv_i and the poll immediately, before any sender moves.
  const Action step_rx{Action::Kind::kThreadStep, 0, {}};
  std::vector<Action> enabled;
  sys.apply(step_rx);  // recv_i
  sys.enabled(enabled);
  EXPECT_TRUE(std::find(enabled.begin(), enabled.end(), step_rx) != enabled.end())
      << "test must be enabled while the request is pending";
}

TEST(PollRuntimeTest, RequestMisuseBlocksInsteadOfAborting) {
  // A request used out of order blocks its thread, as a wait on a request
  // never issued always has, so the run ends in a deadlock rather than a
  // runtime assertion. The sender halts; only the misusing thread is stuck.
  const std::string sender = "thread s\n  endpoint es\n  send es -> e : 1\n"
                             "  send es -> e : 2\n";
  const char* misuses[] = {
      // test before the request is issued
      "thread t\n  endpoint e\n  test 0 -> f\n  recv_i e -> x req 0\n"
      "  wait 0\n",
      // re-issue while the request is still in flight
      "thread t\n  endpoint e\n  recv_i e -> x req 0\n"
      "  recv_i e -> y req 0\n  wait 0\n",
      // wait_any meets a consumed request before the completed one
      "thread t\n  endpoint e\n  recv_i e -> x req 0\n  wait 0\n"
      "  recv_i e -> y req 1\n  nop\n  nop\n  wait_any 0,1 -> w\n",
  };
  for (const char* misuse : misuses) {
    SCOPED_TRACE(misuse);
    auto parsed = text::parse_program(misuse + sender);
    ASSERT_TRUE(parsed.ok()) << parsed.error_text();
    System sys(parsed.parsed->program);
    mcapi::RoundRobinScheduler sched;
    EXPECT_EQ(mcapi::run(sys, sched).outcome,
              mcapi::RunResult::Outcome::kDeadlock);
  }
  // A consumed request after the completed one is never reached by the
  // scan, so that wait_any still steps.
  auto ok = text::parse_program(
      "thread t\n  endpoint e\n  recv_i e -> x req 0\n  wait 0\n"
      "  recv_i e -> y req 1\n  wait 1\n  recv_i e -> z req 1\n"
      "  wait_any 1,0 -> w\n"
      "thread s\n  endpoint es\n  send es -> e : 1\n  send es -> e : 2\n"
      "  send es -> e : 3\n");
  ASSERT_TRUE(ok.ok()) << ok.error_text();
  System sys(ok.parsed->program);
  mcapi::RoundRobinScheduler sched;
  EXPECT_EQ(mcapi::run(sys, sched).outcome, mcapi::RunResult::Outcome::kHalted);
}

TEST(PollRuntimeTest, BothOutcomesReachable) {
  const mcapi::Program p = wl::polling_race(2);
  bool saw[2] = {false, false};
  for (std::uint64_t seed = 0; seed < 64 && (!saw[0] || !saw[1]); ++seed) {
    const trace::Trace tr = record(p, seed);
    const int out = poll_outcome(tr);
    ASSERT_NE(out, -1);
    saw[out] = true;
  }
  EXPECT_TRUE(saw[0]) << "no schedule produced a pending poll";
  EXPECT_TRUE(saw[1]) << "no schedule produced a completed poll";
}

// --- Trace capture & text roundtrip ----------------------------------------------

TEST(PollTraceTest, TestEventsLinkToTheirIssue) {
  const mcapi::Program p = wl::poll_window();
  const trace::Trace tr = record(p, 5);
  EXPECT_EQ(tr.validate(), std::nullopt);
  bool found = false;
  for (std::size_t i = 0; i < tr.size(); ++i) {
    const auto& te = tr.event(static_cast<trace::EventIndex>(i));
    if (te.ev.kind != ExecEvent::Kind::kTest) continue;
    found = true;
    ASSERT_NE(te.issue_event, trace::kNoEvent);
    EXPECT_EQ(tr.event(te.issue_event).ev.kind, ExecEvent::Kind::kRecvIssue);
    EXPECT_EQ(tr.event(te.issue_event).ev.req, te.ev.req);
  }
  EXPECT_TRUE(found);
}

TEST(PollTraceTest, TextListsThePoll) {
  const mcapi::Program p = wl::poll_window();
  const trace::Trace tr = record(p, 5);
  EXPECT_NE(tr.to_text().find("test "), std::string::npos);
}

TEST(PollTextTest, ProgramTextRoundtrips) {
  const mcapi::Program p = wl::poll_window();
  const std::string text1 = text::program_to_text(p, {}, "poll_window");
  EXPECT_NE(text1.find("test 0 -> flag"), std::string::npos);
  const auto out = text::parse_program(text1);
  ASSERT_TRUE(out.ok()) << out.error_text();
  EXPECT_EQ(text::program_to_text(out.parsed->program, {}, "poll_window"), text1);

  const trace::Trace a = record(p, 9);
  const trace::Trace b = record(out.parsed->program, 9);
  EXPECT_EQ(a.to_text(), b.to_text());
}

TEST(PollTextTest, MalformedTestInstruction) {
  EXPECT_FALSE(text::parse_program("thread t\n  test x -> y\n").ok());
  EXPECT_FALSE(text::parse_program("thread t\n  test 0 y\n").ok());
}

// --- Symbolic encoding ------------------------------------------------------------

/// Records traces until one of each poll polarity is found.
struct Polarized {
  std::optional<trace::Trace> done;     // poll saw completion
  std::optional<trace::Trace> pending;  // poll saw "still pending"
};

Polarized polarize(const mcapi::Program& p) {
  Polarized out;
  for (std::uint64_t seed = 0; seed < 128; ++seed) {
    if (out.done && out.pending) break;
    trace::Trace tr = record(p, seed);
    const int o = poll_outcome(tr);
    if (o == 1 && !out.done) out.done.emplace(std::move(tr));
    if (o == 0 && !out.pending) out.pending.emplace(std::move(tr));
  }
  return out;
}

TEST(PollEncodingTest, PollWindowMatchingCountsDependOnOutcome) {
  const mcapi::Program p = wl::poll_window();
  const Polarized traces = polarize(p);
  ASSERT_TRUE(traces.done.has_value());
  ASSERT_TRUE(traces.pending.has_value());

  // Completed poll: the late send is excluded; exactly 1 matching.
  SymbolicChecker done_checker(*traces.done);
  EXPECT_EQ(done_checker.enumerate_matchings().matchings.size(), 1u);

  // Pending poll: both sends remain possible; exactly 2 matchings.
  SymbolicChecker pending_checker(*traces.pending);
  EXPECT_EQ(pending_checker.enumerate_matchings().matchings.size(), 2u);
}

TEST(PollEncodingTest, TestConstraintsAreCounted) {
  const mcapi::Program p = wl::poll_window();
  const trace::Trace tr = record(p, 5);
  const match::MatchSet set = match::generate_overapprox(tr);
  smt::Solver solver;
  encode::EncodeOptions opts;
  opts.property_mode = encode::PropertyMode::kIgnore;
  encode::Encoder encoder(solver, tr, set, opts);
  const encode::Encoding enc = encoder.encode();
  EXPECT_EQ(enc.stats.test_constraints, 1u);
  EXPECT_EQ(solver.check(), smt::SolveResult::kSat)
      << "the recorded execution itself must satisfy the encoding";
}

TEST(PollEncodingTest, PaperLiteralAblationStaysSoundWithPolls) {
  // Even with order_endpoint_completions off (the 2-page paper's literal
  // encoding), tested anchors get a real bind variable, so poll outcomes
  // stay exact on this single-request workload.
  const mcapi::Program p = wl::poll_window();
  const Polarized traces = polarize(p);
  ASSERT_TRUE(traces.done.has_value());

  SymbolicOptions opts;
  opts.encode.order_endpoint_completions = false;
  SymbolicChecker checker(*traces.done, opts);
  EXPECT_EQ(checker.enumerate_matchings().matchings.size(), 1u);
}

// --- Cross-validation --------------------------------------------------------------

void expect_all_engines_agree(const trace::Trace& tr, std::uint64_t tag) {
  const auto truth = match::enumerate_feasible(tr);
  if (truth.truncated) GTEST_SKIP() << "reference truncated for " << tag;

  SymbolicChecker checker(tr);
  const auto sym = checker.enumerate_matchings();
  EXPECT_EQ(sym.matchings, truth.matchings) << "tag=" << tag;

  ExplicitChecker explicit_checker(tr.program());
  const auto exp = explicit_checker.enumerate_against(tr);
  if (exp.truncated) GTEST_SKIP() << "explicit reference truncated for " << tag;
  EXPECT_EQ(sym.matchings, exp.matchings) << "tag=" << tag;
}

TEST(PollCrossValidationTest, PollWindowAgreesAcrossEngines) {
  const mcapi::Program p = wl::poll_window();
  const Polarized traces = polarize(p);
  ASSERT_TRUE(traces.done.has_value());
  ASSERT_TRUE(traces.pending.has_value());
  expect_all_engines_agree(*traces.done, 1);
  expect_all_engines_agree(*traces.pending, 0);
}

TEST(PollCrossValidationTest, PollingRaceAgreesAcrossEngines) {
  for (const std::uint32_t senders : {2u, 3u}) {
    const mcapi::Program p = wl::polling_race(senders);
    for (const std::uint64_t seed : {1ull, 7ull, 23ull}) {
      expect_all_engines_agree(record(p, seed), senders * 1000 + seed);
    }
  }
}

class PollRandomCrossValidationTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PollRandomCrossValidationTest, SymbolicEqualsReferences) {
  const std::uint64_t seed = GetParam();
  RandomProgramOptions opts;
  opts.allow_nonblocking = true;
  opts.allow_test_poll = true;
  opts.max_sends_per_thread = 2;
  const mcapi::Program p = random_program(seed, opts);
  expect_all_engines_agree(record(p, seed ^ 0xbeef), seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PollRandomCrossValidationTest,
                         ::testing::Range<std::uint64_t>(400, 420));

// --- Witness replay -----------------------------------------------------------------

TEST(PollReplayTest, EveryEnumeratedModelReplays) {
  const mcapi::Program p = wl::poll_window();
  const Polarized traces = polarize(p);
  ASSERT_TRUE(traces.done.has_value());
  ASSERT_TRUE(traces.pending.has_value());

  for (const trace::Trace* tr : {&*traces.done, &*traces.pending}) {
    const match::MatchSet set = match::generate_overapprox(*tr);
    smt::Solver solver;
    encode::EncodeOptions opts;
    opts.property_mode = encode::PropertyMode::kIgnore;
    encode::Encoder encoder(solver, *tr, set, opts);
    const encode::Encoding enc = encoder.encode();
    const auto projection = enc.id_projection();

    std::size_t models = 0;
    while (solver.check() == smt::SolveResult::kSat) {
      const encode::Witness w = encode::decode_witness(solver, enc, *tr);
      const auto replayed = schedule_from_witness(p, *tr, w);
      ASSERT_TRUE(replayed.has_value())
          << "unsound model (poll outcome " << poll_outcome(*tr) << "):\n"
          << w.to_string(*tr);
      ++models;
      solver.block_current_ints(projection);
      ASSERT_LT(models, 50u);
    }
    EXPECT_GT(models, 0u);
  }
}

// --- C API facade -------------------------------------------------------------------

TEST(PollCapiTest, TestCallRecordsAndRuns) {
  using namespace mcapi::capi;
  VirtualTarget target;
  mcapi_status_t status;

  NodeSession* rx = target.initialize(0, 0, &status);
  ASSERT_EQ(status, mcapi_status_t::MCAPI_SUCCESS);
  NodeSession* tx = target.initialize(0, 1, &status);
  ASSERT_EQ(status, mcapi_status_t::MCAPI_SUCCESS);

  const mcapi_endpoint_t in = rx->endpoint_create(0, &status);
  ASSERT_EQ(status, mcapi_status_t::MCAPI_SUCCESS);
  const mcapi_endpoint_t out = tx->endpoint_create(0, &status);
  ASSERT_EQ(status, mcapi_status_t::MCAPI_SUCCESS);
  const mcapi_endpoint_t to = tx->endpoint_get(0, 0, 0, &status);
  ASSERT_EQ(status, mcapi_status_t::MCAPI_SUCCESS);

  mcapi_request_t req;
  rx->msg_recv_i(in, "buf", &req, &status);
  ASSERT_EQ(status, mcapi_status_t::MCAPI_SUCCESS);
  rx->test(&req, "done", &status);
  EXPECT_EQ(status, mcapi_status_t::MCAPI_SUCCESS);
  rx->wait(&req, &status);
  EXPECT_EQ(status, mcapi_status_t::MCAPI_SUCCESS);
  tx->msg_send(out, to, 42, 0, &status);
  EXPECT_EQ(status, mcapi_status_t::MCAPI_SUCCESS);

  // The consumed request is rejected by a late poll.
  rx->test(&req, "late", &status);
  EXPECT_EQ(status, mcapi_status_t::MCAPI_ERR_REQUEST_INVALID);

  const mcapi::Program p = target.finalize();
  mcapi::System sys(p);
  mcapi::RoundRobinScheduler sched;
  EXPECT_TRUE(mcapi::run(sys, sched, nullptr).completed());
}

TEST(PollCapiTest, TestOnUnissuedRequestIsRejected) {
  using namespace mcapi::capi;
  VirtualTarget target;
  mcapi_status_t status;
  NodeSession* rx = target.initialize(0, 0, &status);
  mcapi_request_t bogus;
  rx->test(&bogus, "flag", &status);
  EXPECT_EQ(status, mcapi_status_t::MCAPI_ERR_REQUEST_INVALID);
  rx->test(nullptr, "flag", &status);
  EXPECT_EQ(status, mcapi_status_t::MCAPI_ERR_REQUEST_INVALID);
}

}  // namespace
}  // namespace mcsym::check
