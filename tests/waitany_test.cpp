// mcapi_wait_any semantics, end to end: runtime tie-breaking and request
// consumption, trace capture/serialization, the encoder's winner pinning,
// cross-validation against the reference enumerations, witness replay, text
// roundtrip, and the C API facade.
#include <gtest/gtest.h>

#include <algorithm>

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
  EXPECT_NE(r.outcome, mcapi::RunResult::Outcome::kStepLimit);
  return tr;
}

/// Winner index of the first kWaitAny event; -1 if absent.
int winner_of(const trace::Trace& tr) {
  for (std::size_t i = 0; i < tr.size(); ++i) {
    const auto& e = tr.event(static_cast<trace::EventIndex>(i)).ev;
    if (e.kind == ExecEvent::Kind::kWaitAny) {
      return static_cast<int>(e.winner_index);
    }
  }
  return -1;
}

// --- Runtime ------------------------------------------------------------------

TEST(WaitAnyRuntimeTest, BlocksUntilSomeRequestBinds) {
  const mcapi::Program p = wl::select_server(1);
  System sys(p);
  const Action step_rx{Action::Kind::kThreadStep, 0, {}};
  sys.apply(step_rx);  // recv_i A
  sys.apply(step_rx);  // recv_i B
  std::vector<Action> enabled;
  sys.enabled(enabled);
  EXPECT_TRUE(std::find(enabled.begin(), enabled.end(), step_rx) == enabled.end())
      << "wait_any must block while both requests are pending";
}

TEST(WaitAnyRuntimeTest, EarliestListedBoundRequestWins) {
  // Deliver to endpoint B first: the winner must be request 1 (index 1).
  const mcapi::Program p = wl::select_server(1);
  System sys(p);
  const Action step_rx{Action::Kind::kThreadStep, 0, {}};
  const Action step_sa{Action::Kind::kThreadStep, 1, {}};
  const Action step_sb{Action::Kind::kThreadStep, 2, {}};
  sys.apply(step_rx);  // recv_i A (req 0)
  sys.apply(step_rx);  // recv_i B (req 1)
  sys.apply(step_sa);  // send -> A in transit
  sys.apply(step_sb);  // send -> B in transit

  std::vector<Action> enabled;
  sys.enabled(enabled);
  // Find the delivery into sel_b (endpoint 1).
  bool delivered = false;
  for (const Action& a : enabled) {
    if (a.kind == Action::Kind::kDeliver && a.channel.dst == 1) {
      sys.apply(a);
      delivered = true;
      break;
    }
  }
  ASSERT_TRUE(delivered);
  sys.apply(step_rx);  // wait_any -> picks request 1
  EXPECT_EQ(sys.local(0, 2), 1) << "idx local (slot 2) must hold winner index 1";

  // With both bound, the tie breaks toward the earliest listed request.
  System sys2(p);
  sys2.apply(step_rx);
  sys2.apply(step_rx);
  sys2.apply(step_sa);
  sys2.apply(step_sb);
  while (true) {
    sys2.enabled(enabled);
    const auto it = std::find_if(enabled.begin(), enabled.end(), [](const Action& a) {
      return a.kind == Action::Kind::kDeliver;
    });
    if (it == enabled.end()) break;
    sys2.apply(*it);
  }
  sys2.apply(step_rx);
  EXPECT_EQ(sys2.local(0, 2), 0) << "tie goes to request 0";
}

TEST(WaitAnyRuntimeTest, BothWinnersReachable) {
  const mcapi::Program p = wl::select_server(1);
  bool saw[2] = {false, false};
  for (std::uint64_t seed = 0; seed < 64 && (!saw[0] || !saw[1]); ++seed) {
    const int w = winner_of(record(p, seed));
    ASSERT_GE(w, 0);
    ASSERT_LE(w, 1);
    saw[w] = true;
  }
  EXPECT_TRUE(saw[0]);
  EXPECT_TRUE(saw[1]);
}

// --- Trace & text -----------------------------------------------------------------

TEST(WaitAnyTraceTest, TextListsTheWaitAny) {
  const mcapi::Program p = wl::select_server(2);
  for (const std::uint64_t seed : {1ull, 3ull, 9ull, 27ull}) {
    const trace::Trace tr = record(p, seed);
    EXPECT_EQ(tr.validate(), std::nullopt);
    EXPECT_NE(tr.to_text().find("wait_any "), std::string::npos) << "seed " << seed;
  }
}

TEST(WaitAnyTraceTest, WinnerAnchorsAtTheWaitAny) {
  const mcapi::Program p = wl::select_server(1);
  const trace::Trace tr = record(p, 3);
  for (std::size_t i = 0; i < tr.size(); ++i) {
    const auto& te = tr.event(static_cast<trace::EventIndex>(i));
    if (te.ev.kind != ExecEvent::Kind::kWaitAny) continue;
    ASSERT_NE(te.issue_event, trace::kNoEvent);
    EXPECT_EQ(tr.completion_of(te.issue_event), te.index)
        << "the winner's completion anchor must be the wait_any";
  }
}

TEST(WaitAnyTextTest, ProgramTextRoundtrips) {
  const mcapi::Program p = wl::select_server(2);
  const std::string text1 = text::program_to_text(p, {}, "select_server");
  EXPECT_NE(text1.find("wait_any 0,1 -> idx"), std::string::npos);
  const auto out = text::parse_program(text1);
  ASSERT_TRUE(out.ok()) << out.error_text();
  EXPECT_EQ(text::program_to_text(out.parsed->program, {}, "select_server"), text1);

  const trace::Trace a = record(p, 7);
  const trace::Trace b = record(out.parsed->program, 7);
  EXPECT_EQ(a.to_text(), b.to_text());
}

TEST(WaitAnyTextTest, MalformedForms) {
  EXPECT_FALSE(text::parse_program("thread t\n  wait_any -> x\n").ok());
  EXPECT_FALSE(text::parse_program("thread t\n  wait_any 0,1 x\n").ok());
  EXPECT_FALSE(text::parse_program("thread t\n  wait_any 0, -> x\n").ok());
}

// --- Encoding & cross-validation ---------------------------------------------------

void expect_all_engines_agree(const trace::Trace& tr, std::uint64_t tag) {
  const auto truth = match::enumerate_feasible(tr);
  ASSERT_FALSE(truth.truncated);

  SymbolicChecker checker(tr);
  const auto sym = checker.enumerate_matchings();
  EXPECT_EQ(sym.matchings, truth.matchings) << "tag=" << tag;

  ExplicitChecker explicit_checker(tr.program());
  const auto exp = explicit_checker.enumerate_against(tr);
  ASSERT_FALSE(exp.truncated);
  EXPECT_EQ(sym.matchings, exp.matchings) << "tag=" << tag;
}

TEST(WaitAnyEncodingTest, BothPolaritiesAgreeAcrossEngines) {
  const mcapi::Program p = wl::select_server(1);
  bool seen[2] = {false, false};
  for (std::uint64_t seed = 0; seed < 64 && (!seen[0] || !seen[1]); ++seed) {
    const trace::Trace tr = record(p, seed);
    const int w = winner_of(tr);
    if (seen[w]) continue;
    seen[w] = true;
    expect_all_engines_agree(tr, static_cast<std::uint64_t>(w));

    // One recv_i per endpoint with a single sender each: exactly one
    // matching per polarity (the winner pinning is pure control).
    SymbolicChecker checker(tr);
    EXPECT_EQ(checker.enumerate_matchings().matchings.size(), 1u);
  }
  EXPECT_TRUE(seen[0] && seen[1]);
}

TEST(WaitAnyEncodingTest, RacingSendersAgreeAcrossEngines) {
  const mcapi::Program p = wl::select_server(2);
  for (const std::uint64_t seed : {1ull, 5ull, 13ull, 40ull}) {
    expect_all_engines_agree(record(p, seed), seed);
  }
}

TEST(WaitAnyEncodingTest, PinningConstraintsCounted) {
  const mcapi::Program p = wl::select_server(1);
  // Find a trace where request 1 wins: request 0 was scanned and pending.
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const trace::Trace tr = record(p, seed);
    if (winner_of(tr) != 1) continue;
    const match::MatchSet set = match::generate_overapprox(tr);
    smt::Solver solver;
    encode::EncodeOptions opts;
    opts.property_mode = encode::PropertyMode::kIgnore;
    encode::Encoder encoder(solver, tr, set, opts);
    const encode::Encoding enc = encoder.encode();
    EXPECT_EQ(enc.stats.test_constraints, 1u)
        << "one loser => one pinning constraint";
    EXPECT_EQ(solver.check(), smt::SolveResult::kSat);
    return;
  }
  FAIL() << "no trace with winner 1 found";
}

class WaitAnyRandomCrossValidationTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WaitAnyRandomCrossValidationTest, SymbolicEqualsReferences) {
  const std::uint64_t seed = GetParam();
  RandomProgramOptions opts;
  opts.allow_nonblocking = true;
  opts.allow_wait_any = true;
  opts.allow_test_poll = (seed % 2) == 0;
  opts.max_sends_per_thread = 2;
  const mcapi::Program p = random_program(seed, opts);
  expect_all_engines_agree(record(p, seed ^ 0xaaaa), seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaitAnyRandomCrossValidationTest,
                         ::testing::Range<std::uint64_t>(500, 515));

// --- Replay --------------------------------------------------------------------------

TEST(WaitAnyReplayTest, EveryEnumeratedModelReplays) {
  const mcapi::Program p = wl::select_server(2);
  for (const std::uint64_t seed : {2ull, 11ull, 29ull}) {
    const trace::Trace tr = record(p, seed);
    const match::MatchSet set = match::generate_overapprox(tr);
    smt::Solver solver;
    encode::EncodeOptions opts;
    opts.property_mode = encode::PropertyMode::kIgnore;
    encode::Encoder encoder(solver, tr, set, opts);
    const encode::Encoding enc = encoder.encode();
    const auto projection = enc.id_projection();

    std::size_t models = 0;
    while (solver.check() == smt::SolveResult::kSat) {
      const encode::Witness w = encode::decode_witness(solver, enc, tr);
      const auto replayed = schedule_from_witness(p, tr, w);
      ASSERT_TRUE(replayed.has_value())
          << "unsound model for seed " << seed << ":\n"
          << w.to_string(tr);
      ++models;
      solver.block_current_ints(projection);
      ASSERT_LT(models, 100u);
    }
    EXPECT_GT(models, 0u) << "seed " << seed;
  }
}

// --- C API facade ----------------------------------------------------------------------

TEST(WaitAnyCapiTest, RecordsAndRuns) {
  using namespace mcapi::capi;
  VirtualTarget target;
  mcapi_status_t status;
  NodeSession* rx = target.initialize(0, 0, &status);
  NodeSession* tx = target.initialize(0, 1, &status);

  const mcapi_endpoint_t a = rx->endpoint_create(0, &status);
  const mcapi_endpoint_t b = rx->endpoint_create(1, &status);
  const mcapi_endpoint_t out = tx->endpoint_create(0, &status);
  const mcapi_endpoint_t to_a = tx->endpoint_get(0, 0, 0, &status);
  const mcapi_endpoint_t to_b = tx->endpoint_get(0, 0, 1, &status);

  mcapi_request_t ra;
  mcapi_request_t rb;
  rx->msg_recv_i(a, "bufa", &ra, &status);
  rx->msg_recv_i(b, "bufb", &rb, &status);
  rx->wait_any({&ra, &rb}, "which", &status);
  EXPECT_EQ(status, mcapi_status_t::MCAPI_SUCCESS);
  tx->msg_send(out, to_a, 1, 0, &status);
  tx->msg_send(out, to_b, 2, 0, &status);

  // Empty list and invalid handles are rejected.
  rx->wait_any({}, "which", &status);
  EXPECT_EQ(status, mcapi_status_t::MCAPI_ERR_PARAMETER);
  mcapi_request_t bogus;
  rx->wait_any({&bogus}, "which", &status);
  EXPECT_EQ(status, mcapi_status_t::MCAPI_ERR_REQUEST_INVALID);

  // The recorded program runs; one of the requests is consumed by the
  // wait_any and the other stays bound at halt, which is legal.
  const mcapi::Program p = target.finalize();
  mcapi::System sys(p);
  mcapi::RoundRobinScheduler sched;
  EXPECT_TRUE(mcapi::run(sys, sched, nullptr).completed());
}

}  // namespace
}  // namespace mcsym::check
