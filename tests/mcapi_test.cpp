// Tests for the MCAPI runtime substrate: program building, the transition
// system's semantics (per-channel FIFO, cross-channel reordering, blocking
// and non-blocking receives), schedulers, and the executor.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "check/workloads.hpp"
#include "mcapi/executor.hpp"
#include "mcapi/program.hpp"
#include "mcapi/scheduler.hpp"
#include "mcapi/system.hpp"

namespace mcsym::mcapi {
namespace {

using check::workloads::figure1;

// --- Program building -------------------------------------------------------

TEST(ProgramTest, BuildsFigure1Shape) {
  const Program p = figure1();
  EXPECT_EQ(p.num_threads(), 3u);
  EXPECT_EQ(p.num_endpoints(), 3u);
  EXPECT_EQ(p.thread(0).code.size(), 2u);
  EXPECT_EQ(p.thread(1).code.size(), 2u);
  EXPECT_EQ(p.thread(2).code.size(), 2u);
  EXPECT_TRUE(p.finalized());
  EXPECT_EQ(p.total_instructions(), 6u);
}

TEST(ProgramTest, SlotsResolvedPerThread) {
  const Program p = figure1();
  EXPECT_EQ(p.thread(0).num_slots, 2u);  // A, B
  EXPECT_EQ(p.thread(1).num_slots, 1u);  // C
  EXPECT_EQ(p.thread(0).slot_names[0], "A");
  EXPECT_EQ(p.thread(0).slot_names[1], "B");
}

TEST(ProgramTest, LabelsPatchJumpTargets) {
  Program p;
  auto t = p.add_thread("t");
  const EndpointRef e = p.add_endpoint("e", t.ref());
  (void)e;
  t.assign("x", ThreadBuilder::c(0))
      .label("top")
      .assign("x", t.v("x", 1))
      .jump_if(Cond{t.v("x"), Rel::kLt, ThreadBuilder::c(3)}, "top");
  p.finalize();
  const Instr& jmp = p.thread(0).code[2];
  EXPECT_EQ(jmp.kind, OpKind::kJmpIf);
  EXPECT_EQ(jmp.target, 1u);  // points at the instruction after label "top"
}

TEST(ProgramTest, EndpointPortsCountPerNode) {
  Program p;
  auto a = p.add_thread("a");
  auto b = p.add_thread("b");
  const EndpointRef e0 = p.add_endpoint("x", a.ref());
  const EndpointRef e1 = p.add_endpoint("y", a.ref());
  const EndpointRef e2 = p.add_endpoint("z", b.ref());
  EXPECT_EQ(p.endpoint(e0).port, 0u);
  EXPECT_EQ(p.endpoint(e1).port, 1u);
  EXPECT_EQ(p.endpoint(e2).port, 0u);
}

TEST(ProgramDeathTest, SendFromForeignEndpointRejected) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Program p;
  auto a = p.add_thread("a");
  auto b = p.add_thread("b");
  const EndpointRef ea = p.add_endpoint("ea", a.ref());
  const EndpointRef eb = p.add_endpoint("eb", b.ref());
  b.send(ea, eb, 1);  // b does not own ea
  EXPECT_DEATH(p.finalize(), "not owned");
}

TEST(ProgramDeathTest, JumpToUnknownLabelRejected) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Program p;
  auto a = p.add_thread("a");
  a.jump("nowhere");
  EXPECT_DEATH(p.finalize(), "unknown label");
}

// --- System semantics -------------------------------------------------------

TEST(SystemTest, RunsFigure1ToCompletion) {
  const Program p = figure1();
  System sys(p);
  RoundRobinScheduler sched;
  const RunResult r = run(sys, sched);
  EXPECT_EQ(r.outcome, RunResult::Outcome::kHalted);
  EXPECT_TRUE(sys.all_halted());
  EXPECT_EQ(sys.matches().size(), 3u);
}

TEST(SystemTest, PerChannelFifoNeverReorders) {
  // One sender, one receiver, three messages on a single channel: every
  // schedule must deliver 1,2,3 in order.
  Program p;
  auto tx = p.add_thread("tx");
  auto rx = p.add_thread("rx");
  const EndpointRef out = p.add_endpoint("out", tx.ref());
  const EndpointRef in = p.add_endpoint("in", rx.ref());
  tx.send(out, in, 1).send(out, in, 2).send(out, in, 3);
  rx.recv(in, "a").recv(in, "b").recv(in, "c");
  p.finalize();

  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    System sys(p);
    RandomScheduler sched(seed);
    const RunResult r = run(sys, sched);
    ASSERT_EQ(r.outcome, RunResult::Outcome::kHalted);
    EXPECT_EQ(sys.local(1, 0), 1);
    EXPECT_EQ(sys.local(1, 1), 2);
    EXPECT_EQ(sys.local(1, 2), 3);
  }
}

TEST(SystemTest, CrossChannelReorderingIsPossible) {
  // Two senders to one endpoint: across many seeds both arrival orders must
  // show up (this is the delay nondeterminism MCC misses).
  Program p;
  auto t1 = p.add_thread("t1");
  auto t2 = p.add_thread("t2");
  auto rx = p.add_thread("rx");
  const EndpointRef o1 = p.add_endpoint("o1", t1.ref());
  const EndpointRef o2 = p.add_endpoint("o2", t2.ref());
  const EndpointRef in = p.add_endpoint("in", rx.ref());
  t1.send(o1, in, 100);
  t2.send(o2, in, 200);
  rx.recv(in, "first").recv(in, "second");
  p.finalize();

  std::set<std::int64_t> first_values;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    System sys(p);
    RandomScheduler sched(seed);
    ASSERT_EQ(run(sys, sched).outcome, RunResult::Outcome::kHalted);
    first_values.insert(sys.local(2, 0));
  }
  EXPECT_EQ(first_values, (std::set<std::int64_t>{100, 200}));
}

TEST(SystemTest, GlobalFifoModePinsArrivalToIssueOrder) {
  // Same race, but under the MCC-style network: whoever SENDS first is
  // received first, so received order always equals issue order.
  Program p;
  auto t1 = p.add_thread("t1");
  auto rx = p.add_thread("rx");
  const EndpointRef o1 = p.add_endpoint("o1", t1.ref());
  const EndpointRef in = p.add_endpoint("in", rx.ref());
  t1.send(o1, in, 100).send(o1, in, 200);
  rx.recv(in, "first").recv(in, "second");
  p.finalize();

  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    System sys(p, DeliveryMode::kGlobalFifo);
    RandomScheduler sched(seed);
    ASSERT_EQ(run(sys, sched).outcome, RunResult::Outcome::kHalted);
    EXPECT_EQ(sys.local(1, 0), 100);
    EXPECT_EQ(sys.local(1, 1), 200);
  }
}

TEST(SystemTest, DeadlockDetected) {
  Program p;
  auto t = p.add_thread("t");
  const EndpointRef e = p.add_endpoint("e", t.ref());
  t.recv(e, "x");  // nobody ever sends
  p.finalize();
  System sys(p);
  RoundRobinScheduler sched;
  const RunResult r = run(sys, sched);
  EXPECT_EQ(r.outcome, RunResult::Outcome::kDeadlock);
  EXPECT_TRUE(sys.deadlocked());
}

TEST(SystemTest, AssertViolationStopsRun) {
  Program p;
  auto t = p.add_thread("t");
  t.assign("x", ThreadBuilder::c(1))
      .assert_that(Cond{t.v("x"), Rel::kEq, ThreadBuilder::c(2)});
  p.finalize();
  System sys(p);
  RoundRobinScheduler sched;
  const RunResult r = run(sys, sched);
  EXPECT_EQ(r.outcome, RunResult::Outcome::kViolation);
  ASSERT_TRUE(sys.has_violation());
  EXPECT_EQ(sys.violation()->thread, 0u);
}

TEST(SystemTest, NonBlockingBindsInIssueOrder) {
  Program p;
  auto tx = p.add_thread("tx");
  auto rx = p.add_thread("rx");
  const EndpointRef out = p.add_endpoint("out", tx.ref());
  const EndpointRef in = p.add_endpoint("in", rx.ref());
  tx.send(out, in, 1).send(out, in, 2);
  rx.recv_nb(in, "a", 0).recv_nb(in, "b", 1).wait(1).wait(0);
  p.finalize();
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    System sys(p);
    RandomScheduler sched(seed);
    ASSERT_EQ(run(sys, sched).outcome, RunResult::Outcome::kHalted);
    // Requests bind in issue order; FIFO channel: a=1, b=2 regardless of
    // the wait order.
    EXPECT_EQ(sys.local(1, 0), 1);
    EXPECT_EQ(sys.local(1, 1), 2);
  }
}

TEST(SystemTest, LoopsExecute) {
  Program p;
  auto t = p.add_thread("t");
  t.assign("i", ThreadBuilder::c(0))
      .label("top")
      .assign("i", t.v("i", 1))
      .jump_if(Cond{t.v("i"), Rel::kLt, ThreadBuilder::c(5)}, "top");
  p.finalize();
  System sys(p);
  RoundRobinScheduler sched;
  ASSERT_EQ(run(sys, sched).outcome, RunResult::Outcome::kHalted);
  EXPECT_EQ(sys.local(0, 0), 5);
  EXPECT_EQ(sys.branches().size(), 5u);
}

TEST(SystemTest, FingerprintDistinguishesProgress) {
  const Program p = figure1();
  System a(p);
  System b(p);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  std::vector<Action> acts;
  a.enabled(acts);
  ASSERT_FALSE(acts.empty());
  a.apply(acts[0]);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(SystemTest, EnabledNeverContainsBlockedRecv) {
  const Program p = figure1();
  System sys(p);
  std::vector<Action> acts;
  sys.enabled(acts);
  // Initially t0 and t1 sit on receives with empty queues; only t2 can step.
  for (const Action& a : acts) {
    ASSERT_EQ(a.kind, Action::Kind::kThreadStep);
    EXPECT_EQ(a.thread, 2u);
  }
}

// --- Schedulers / executor ---------------------------------------------------

TEST(SchedulerTest, RandomIsDeterministicPerSeed) {
  const Program p = figure1();
  auto run_trace = [&p](std::uint64_t seed) {
    System sys(p);
    RandomScheduler sched(seed);
    std::vector<Action> script;
    const RunResult r = run(sys, sched, nullptr, 1u << 20, &script);
    EXPECT_EQ(r.outcome, RunResult::Outcome::kHalted);
    return script;
  };
  EXPECT_EQ(run_trace(5), run_trace(5));
}

TEST(SchedulerTest, ReplayReproducesRun) {
  const Program p = figure1();
  System sys(p);
  RandomScheduler sched(17);
  std::vector<Action> script;
  ASSERT_EQ(run(sys, sched, nullptr, 1u << 20, &script).outcome,
            RunResult::Outcome::kHalted);
  const auto matches = sys.matches();

  System replayed(p);
  ASSERT_EQ(replay(replayed, script).outcome, RunResult::Outcome::kHalted);
  EXPECT_EQ(replayed.matches(), matches);
  EXPECT_EQ(replayed.fingerprint(), sys.fingerprint());
}

TEST(SchedulerTest, DeliveryBiasStillCompletes) {
  const Program p = check::workloads::message_race(3, 2);
  for (const double bias : {0.1, 1.0, 10.0}) {
    System sys(p);
    RandomScheduler sched(3, bias);
    EXPECT_EQ(run(sys, sched).outcome, RunResult::Outcome::kHalted);
  }
}

TEST(ExecutorTest, StepLimitTrips) {
  Program p;
  auto t = p.add_thread("t");
  t.label("spin").jump("spin");
  p.finalize();
  System sys(p);
  RoundRobinScheduler sched;
  const RunResult r = run(sys, sched, nullptr, /*max_steps=*/100);
  EXPECT_EQ(r.outcome, RunResult::Outcome::kStepLimit);
  EXPECT_EQ(r.steps, 100u);
}

// A checked replay never aborts: a schedule taking an action the runtime
// does not enable, and one that stops while the run could go on, both come
// back as kDiverged; the whole schedule reaches the deadlock.
TEST(ExecutorTest, ReplayReportsDivergence) {
  Program p;
  auto a = p.add_thread("a");
  auto b = p.add_thread("b");
  const auto ea = p.add_endpoint("ea", a.ref());
  const auto eb = p.add_endpoint("eb", b.ref());
  a.send(ea, eb, 1).recv(ea, "x");
  b.recv(eb, "y").recv(eb, "z");
  p.finalize();
  const Action step_a{Action::Kind::kThreadStep, a.ref(), {}};
  const Action step_b{Action::Kind::kThreadStep, b.ref(), {}};
  const Action deliver{Action::Kind::kDeliver, 0, ChannelId{ea, eb}};
  const std::vector<Action> schedule = {step_a, deliver, step_b};

  System sys(p);
  const RunResult whole = replay(sys, schedule);
  EXPECT_EQ(whole.outcome, RunResult::Outcome::kDeadlock);
  EXPECT_EQ(whole.steps, 3u);

  System disabled(p);
  const RunResult early = replay(disabled, std::vector<Action>{step_b});
  EXPECT_EQ(early.outcome, RunResult::Outcome::kDiverged);
  EXPECT_EQ(early.steps, 0u);

  System short_run(p);
  const RunResult cut =
      replay(short_run, std::span(schedule).first(2));
  EXPECT_EQ(cut.outcome, RunResult::Outcome::kDiverged);
  EXPECT_EQ(cut.steps, 2u);
}

TEST(ActionTest, StringRendering) {
  const Program p = figure1();
  Action step{Action::Kind::kThreadStep, 1, {}};
  EXPECT_EQ(step.str(p), "step(t1)");
  Action del;
  del.kind = Action::Kind::kDeliver;
  del.channel = ChannelId{2, 0};
  EXPECT_EQ(del.str(p), "deliver(e2->e0)");
}

}  // namespace

// --- History fingerprints -----------------------------------------------

TEST(HistoryFingerprintTest, EqualStatesEqualHistoriesAgree) {
  const mcapi::Program p = [] {
    mcapi::Program prog;
    auto rx = prog.add_thread("rx");
    auto tx = prog.add_thread("tx");
    const auto er = prog.add_endpoint("hr", rx.ref());
    const auto et = prog.add_endpoint("ht", tx.ref());
    rx.recv(er, "a").recv(er, "b");
    tx.send(et, er, 1).send(et, er, 2);
    prog.finalize();
    return prog;
  }();

  System a(p);
  System b(p);
  EXPECT_EQ(a.history_fingerprint(), b.history_fingerprint());

  const Action step_tx{Action::Kind::kThreadStep, 1, {}};
  a.apply(step_tx);
  EXPECT_FALSE(a.history_fingerprint() == b.history_fingerprint());
  b.apply(step_tx);
  EXPECT_EQ(a.history_fingerprint(), b.history_fingerprint());
}

TEST(HistoryFingerprintTest, DistinguishesMatchHistoryWhereSemanticHashDoesNot) {
  // Two senders race one message each (same payload!) to one receiver: after
  // both messages are consumed, the semantic state is identical regardless
  // of which send matched first, but the match histories differ.
  mcapi::Program p;
  auto rx = p.add_thread("rx");
  auto t1 = p.add_thread("t1");
  auto t2 = p.add_thread("t2");
  const auto er = p.add_endpoint("fr", rx.ref());
  const auto e1 = p.add_endpoint("f1", t1.ref());
  const auto e2 = p.add_endpoint("f2", t2.ref());
  rx.recv(er, "x").recv(er, "y");
  t1.send(e1, er, 7);
  t2.send(e2, er, 7);  // identical payload: semantic states converge
  p.finalize();

  auto run_order = [&](bool t1_first) {
    System sys(p);
    const Action s1{Action::Kind::kThreadStep, 1, {}};
    const Action s2{Action::Kind::kThreadStep, 2, {}};
    const Action srx{Action::Kind::kThreadStep, 0, {}};
    const Action d1{Action::Kind::kDeliver, 0, {e1, er}};
    const Action d2{Action::Kind::kDeliver, 0, {e2, er}};
    sys.apply(s1);
    sys.apply(s2);
    sys.apply(t1_first ? d1 : d2);
    sys.apply(srx);
    sys.apply(t1_first ? d2 : d1);
    sys.apply(srx);
    return sys;
  };

  const System first = run_order(true);
  const System second = run_order(false);
  // The 64-bit semantic fingerprint cannot tell them apart (that is its
  // contract), the history fingerprint must.
  EXPECT_EQ(first.fingerprint(), second.fingerprint());
  EXPECT_FALSE(first.history_fingerprint() == second.history_fingerprint());
  EXPECT_NE(first.matches()[0].send_thread, second.matches()[0].send_thread);
}

}  // namespace mcsym::mcapi
