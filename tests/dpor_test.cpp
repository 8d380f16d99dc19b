// Tests for the partial-order-reduced stateless checkers: the optimal
// source-set/wakeup-tree mode must explore exactly one execution per
// Mazurkiewicz trace (redundant_explorations == 0, closed-form execution
// counts on the workloads), the sleep-set baseline must stay sound, and
// both must agree with the unreduced explicit checker on every verdict.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "check/dpor.hpp"
#include "check/dpor_internal.hpp"
#include "check/explicit_checker.hpp"
#include "check/random_program.hpp"
#include "check/workloads.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "mcapi/executor.hpp"

// Every global operator new in this binary is counted while
// g_count_allocs is set (ExplorationAllocatesPerDepthNotPerExecution).
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// Out of line, like the deletes below, so the compiler does not pair an
// inlined malloc() or free() with a new or delete expression.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mcsym::check {
namespace {

namespace wl = workloads;

DporResult run_dpor(const mcapi::Program& p, DporMode mode,
                    mcapi::DeliveryMode delivery = mcapi::DeliveryMode::kArbitraryDelay) {
  DporOptions opts;
  opts.algorithm = mode;
  opts.mode = delivery;
  DporChecker checker(p, opts);
  return checker.run();
}

TEST(DporTest, FindsScatterGatherViolation) {
  const mcapi::Program p = wl::scatter_gather(2);
  for (const auto mode : {DporMode::kOptimal, DporMode::kSleepSet}) {
    const DporResult r = run_dpor(p, mode);
    EXPECT_TRUE(r.violation_found);
    ASSERT_TRUE(r.violation.has_value());
    EXPECT_FALSE(r.counterexample.empty());
  }
}

TEST(DporTest, CounterexampleReplays) {
  const mcapi::Program p = wl::scatter_gather(2);
  for (const auto mode : {DporMode::kOptimal, DporMode::kSleepSet}) {
    const DporResult r = run_dpor(p, mode);
    ASSERT_TRUE(r.violation_found);
    mcapi::System sys(p);
    EXPECT_EQ(mcapi::replay(sys, r.counterexample).outcome,
              mcapi::RunResult::Outcome::kViolation);
  }
}

TEST(DporTest, CleanProgramNoViolation) {
  const mcapi::Program p = wl::pipeline(3, 2);
  for (const auto mode : {DporMode::kOptimal, DporMode::kSleepSet}) {
    const DporResult r = run_dpor(p, mode);
    EXPECT_FALSE(r.violation_found);
    EXPECT_FALSE(r.deadlock_found);
    EXPECT_GT(r.stats.terminal_states, 0u);
  }
}

TEST(DporTest, DetectsDeadlockAndSchedulesReplay) {
  mcapi::Program p;
  auto a = p.add_thread("a");
  auto b = p.add_thread("b");
  const auto ea = p.add_endpoint("ea", a.ref());
  const auto eb = p.add_endpoint("eb", b.ref());
  a.recv(ea, "x").send(ea, eb, 1);
  b.recv(eb, "y").send(eb, ea, 2);
  p.finalize();
  for (const auto mode : {DporMode::kOptimal, DporMode::kSleepSet}) {
    const DporResult r = run_dpor(p, mode);
    EXPECT_TRUE(r.deadlock_found);
    // Both threads block on their very first instruction: the initial
    // state itself is the deadlock, so the schedule is empty — and an
    // empty schedule must still replay straight into the deadlock.
    mcapi::System sys(p);
    EXPECT_EQ(mcapi::replay(sys, r.deadlock_schedule).outcome,
              mcapi::RunResult::Outcome::kDeadlock);
  }
}

TEST(DporTest, SleepSetsActuallyPrune) {
  const mcapi::Program p = wl::message_race(3, 1);
  const DporResult r = run_dpor(p, DporMode::kSleepSet);
  EXPECT_GT(r.stats.sleep_prunes, 0u);

  // The unreduced stateless tree: ExplicitChecker's matching enumeration
  // with history memoization off explores the raw interleaving tree.
  // DPOR must take strictly fewer transitions than that.
  mcapi::System sys(p);
  trace::Trace tr(p);
  trace::Recorder rec(tr);
  mcapi::RoundRobinScheduler sched;
  ASSERT_TRUE(mcapi::run(sys, sched, &rec).completed());
  ExplicitOptions opts;
  opts.dedup_histories = false;
  ExplicitChecker full(p, opts);
  const ExplicitResult fr = full.enumerate_against(tr);
  EXPECT_LT(r.stats.transitions, fr.transitions);
}

// The optimality theorem, pinned as closed forms: optimal mode explores
// exactly one maximal execution per Mazurkiewicz trace. On the racing-
// senders family the trace count equals the matching count,
// (senders*msgs)! / (msgs!)^senders; on figure1 it is the paper's two
// pairings (Figures 4a and 4b); fully deterministic workloads have one.
TEST(DporTest, OptimalExploresOneExecutionPerTrace) {
  struct Case {
    mcapi::Program program;
    std::uint64_t traces;
    const char* name;
  };
  std::vector<Case> cases;
  cases.push_back({wl::figure1(), 2, "figure1"});
  cases.push_back({wl::message_race(2, 1), 2, "message_race(2,1)"});
  cases.push_back({wl::message_race(3, 1), 6, "message_race(3,1)"});
  cases.push_back({wl::message_race(2, 2), 6, "message_race(2,2)"});
  cases.push_back({wl::message_race(3, 2), 90, "message_race(3,2)"});
  cases.push_back({wl::pipeline(3, 2), 1, "pipeline(3,2)"});
  cases.push_back({wl::ring(3), 1, "ring(3)"});
  for (auto& c : cases) {
    const DporResult opt = run_dpor(c.program, DporMode::kOptimal);
    EXPECT_EQ(opt.stats.executions, c.traces) << c.name;
    EXPECT_EQ(opt.stats.terminal_states, c.traces) << c.name;
    EXPECT_EQ(opt.stats.redundant_explorations, 0u) << c.name;
    // Sleep sets complete exactly one execution per trace too (their
    // classic guarantee) but burn combinatorially many blocked paths on
    // the way; optimal mode never starts them.
    const DporResult sleep = run_dpor(c.program, DporMode::kSleepSet);
    EXPECT_EQ(sleep.stats.terminal_states, c.traces) << c.name;
    EXPECT_LE(opt.stats.executions, sleep.stats.executions) << c.name;
    EXPECT_LE(opt.stats.transitions, sleep.stats.transitions) << c.name;
  }
}

// n fully independent writers: the naive interleaving tree has (2n)!/2^n
// schedules (n sends and n deliveries, per-thread order fixed) and the
// sleep-set baseline still starts a blocked path for most of them, but
// there is exactly one Mazurkiewicz trace — optimal mode explores it alone.
TEST(DporTest, IndependentWritersExploreSingleTrace) {
  mcapi::Program p;
  std::vector<mcapi::ThreadBuilder> builders;
  std::vector<mcapi::EndpointRef> eps;
  for (int t = 0; t < 3; ++t) {
    builders.push_back(p.add_thread(std::string("w").append(std::to_string(t))));
    eps.push_back(p.add_endpoint("we" + std::to_string(t), builders.back().ref()));
  }
  for (int t = 0; t < 3; ++t) builders[t].send(eps[t], eps[t], t + 1);
  p.finalize();

  const DporResult opt = run_dpor(p, DporMode::kOptimal);
  EXPECT_EQ(opt.stats.executions, 1u);
  EXPECT_EQ(opt.stats.transitions, 6u);  // 3 sends + 3 deliveries, once
  EXPECT_EQ(opt.stats.races_detected, 0u);
  EXPECT_EQ(opt.stats.redundant_explorations, 0u);

  const DporResult sleep = run_dpor(p, DporMode::kSleepSet);
  EXPECT_EQ(sleep.stats.terminal_states, 1u);
  EXPECT_GT(sleep.stats.executions, 1u);  // blocked paths all the way down
}

// The programs behind BM_Dpor_MessageRace/{3,4}: message_race(3,2) and
// message_race(4,2) complete at exactly their trace counts, 6!/(2!)^3 = 90
// and 8!/(2!)^4 = 2520, with zero redundancy. Every optimal-DPOR counter
// is pinned, so a change to the race scan that drops or adds a reversal
// shows here. Optimal-only: the sleep-set run at /4 belongs in the bench
// (with its time budget), not in tier-1.
TEST(DporTest, MessageRaceCountersArePinned) {
  struct Case {
    std::uint32_t senders;
    std::uint64_t executions;
    std::uint64_t transitions;
    std::uint64_t races;
    std::uint64_t wakeup_nodes;
  };
  for (const Case c : {Case{3, 90, 1620, 105, 89},
                       Case{4, 2520, 60480, 3138, 2519}}) {
    const DporResult opt =
        run_dpor(wl::message_race(c.senders, 2), DporMode::kOptimal);
    EXPECT_EQ(opt.stats.executions, c.executions) << c.senders;
    EXPECT_EQ(opt.stats.terminal_states, c.executions) << c.senders;
    EXPECT_EQ(opt.stats.transitions, c.transitions) << c.senders;
    EXPECT_EQ(opt.stats.races_detected, c.races) << c.senders;
    EXPECT_EQ(opt.stats.wakeup_nodes, c.wakeup_nodes) << c.senders;
    EXPECT_EQ(opt.stats.redundant_explorations, 0u) << c.senders;
    EXPECT_FALSE(opt.truncated) << c.senders;
  }
}

// Every way of stopping a search — the transition budget, the wall clock
// and the cooperative `interrupted` probe the facade routes cancellation
// through — abandons it with truncated set instead of hanging or
// crashing, in both modes.
TEST(DporTest, BudgetsAndInterruptTruncate) {
  const mcapi::Program p = wl::message_race(3, 2);
  DporOptions by_transitions;
  by_transitions.max_transitions = 10;
  DporOptions by_clock;
  by_clock.max_seconds = 1e-9;
  DporOptions by_probe;
  by_probe.interrupted = [] { return true; };
  for (const auto mode : {DporMode::kOptimal, DporMode::kSleepSet}) {
    for (DporOptions opts : {by_transitions, by_clock, by_probe}) {
      opts.algorithm = mode;
      const DporResult r = DporChecker(p, opts).run();
      EXPECT_TRUE(r.truncated);
      EXPECT_LT(r.stats.terminal_states, 90u);  // stopped before completion
    }
  }
}

// The ISSUE acceptance gate: on the BM_Dpor_MessageRace/3 instance
// (message_race(3,2)) optimal mode explores at least 5x fewer executions
// than the sleep-set baseline.
TEST(DporTest, MessageRaceOptimalBeatsSleepSetsFiveFold) {
  const mcapi::Program p = wl::message_race(3, 2);
  const DporResult opt = run_dpor(p, DporMode::kOptimal);
  const DporResult sleep = run_dpor(p, DporMode::kSleepSet);
  EXPECT_EQ(opt.stats.redundant_explorations, 0u);
  EXPECT_GE(sleep.stats.executions, 5 * opt.stats.executions)
      << "optimal=" << opt.stats.executions
      << " sleepset=" << sleep.stats.executions;
}

// The optimal loop reuses its frames, wakeup-tree arenas, sleep sets and
// candidate buffer, so a run allocates per depth reached, not per
// execution: a few hundred allocations for thousands of executions.
TEST(DporTest, ExplorationAllocatesPerDepthNotPerExecution) {
  struct Case {
    std::uint32_t senders;
    std::uint32_t sends;
    std::uint64_t executions;
  };
  for (const Case c : {Case{4, 2, 2520}, Case{3, 3, 1680}}) {
    const mcapi::Program p = wl::message_race(c.senders, c.sends);
    DporChecker checker(p, DporOptions{});
    g_allocs = 0;
    g_count_allocs = true;
    const DporResult r = checker.run();
    g_count_allocs = false;
    EXPECT_EQ(r.stats.executions, c.executions) << c.senders << "," << c.sends;
    EXPECT_EQ(r.stats.redundant_explorations, 0u);
    EXPECT_LT(g_allocs.load(), 300u) << c.senders << "," << c.sends;
  }
}

// The wakeup-tree arena, driven directly. Thread steps of distinct threads
// commute under arbitrary delay; sends of distinct threads are dependent
// under global FIFO.
mcapi::ActionFootprint step_fp(std::uint32_t t,
                               mcapi::OpKind op = mcapi::OpKind::kNop) {
  mcapi::ActionFootprint f;
  f.action = mcapi::Action{mcapi::Action::Kind::kThreadStep, t, {}};
  f.op = op;
  return f;
}

std::size_t insert_steps(dpor_detail::WakeupTree& tree,
                         std::initializer_list<std::uint32_t> threads,
                         mcapi::DeliveryMode mode =
                             mcapi::DeliveryMode::kArbitraryDelay,
                         mcapi::OpKind op = mcapi::OpKind::kNop) {
  std::vector<mcapi::ActionFootprint> w;
  for (const std::uint32_t t : threads) w.push_back(step_fp(t, op));
  return tree.insert(w, mode);
}

// The tree's branches in order, each as its thread followed by its
// subtree in parentheses, e.g. "0(1(2 3) 4) 5"; popping consumes a copy.
std::string dump(dpor_detail::WakeupTree tree) {
  std::string out;
  while (!tree.empty()) {
    dpor_detail::WakeupTree sub;
    const mcapi::Action a = tree.pop_first(sub);
    if (!out.empty()) out += ' ';
    out += std::to_string(a.thread);
    if (!sub.empty()) {
      out += '(';
      out += dump(sub);
      out += ')';
    }
  }
  return out;
}

TEST(DporTest, WakeupTreeSkipsCoveredSequences) {
  dpor_detail::WakeupTree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(insert_steps(tree, {0, 1}), 2u);
  // [0, 1] is a weak prefix of [1, 0, 2]: both steps commute to the front.
  EXPECT_EQ(insert_steps(tree, {1, 0, 2}), 0u);
  // [0, 1, 2, 3] extends the leaf 1 of branch [0, 1].
  EXPECT_EQ(insert_steps(tree, {0, 1, 2, 3}), 0u);
  EXPECT_EQ(dump(tree), "0(1)");
  // Under global FIFO, send 1 does not commute with send 0, so [1, 0] is
  // no extension of [0]: it is grafted whole.
  dpor_detail::WakeupTree fifo;
  const auto send = mcapi::OpKind::kSend;
  const auto mode = mcapi::DeliveryMode::kGlobalFifo;
  EXPECT_EQ(insert_steps(fifo, {0}, mode, send), 1u);
  EXPECT_EQ(insert_steps(fifo, {1, 0}, mode, send), 2u);
  EXPECT_EQ(dump(fifo), "0 1(0)");
}

TEST(DporTest, WakeupTreeGraftsRightmostAndPopsInOrder) {
  dpor_detail::WakeupTree tree;
  EXPECT_EQ(insert_steps(tree, {0, 1, 2}), 3u);
  EXPECT_EQ(insert_steps(tree, {0, 1, 3}), 1u);  // right of 2 below 0·1
  EXPECT_EQ(insert_steps(tree, {0, 4}), 1u);     // right of 1 below 0
  EXPECT_EQ(insert_steps(tree, {5}), 1u);        // right of 0 at the root
  EXPECT_EQ(dump(tree), "0(1(2 3) 4) 5");

  dpor_detail::WakeupTree child;
  EXPECT_EQ(insert_steps(child, {9, 9}), 2u);  // overwritten by the pop
  EXPECT_EQ(tree.pop_first(child).thread, 0u);
  EXPECT_EQ(dump(child), "1(2 3) 4");
  EXPECT_EQ(dump(tree), "5");
  EXPECT_EQ(tree.pop_first(child).thread, 5u);
  EXPECT_TRUE(child.empty());
  EXPECT_TRUE(tree.empty());
}

TEST(DporTest, WakeupTreeCopiesLargeSubtreesIntact) {
  // 60 branches of depth 4 below one root event: the copy grows the
  // destination arena many times while it links the nodes it copies.
  dpor_detail::WakeupTree tree;
  dpor_detail::WakeupTree direct;
  for (std::uint32_t i = 1; i <= 60; ++i) {
    const std::size_t added = i == 1 ? 5 : 4;  // the first adds the root 0
    EXPECT_EQ(insert_steps(tree, {0, i, 100 + i, 200 + i, 300 + i}), added);
    EXPECT_EQ(insert_steps(direct, {i, 100 + i, 200 + i, 300 + i}), 4u);
  }
  EXPECT_EQ(insert_steps(tree, {7}), 1u);
  const std::string want = dump(direct);
  EXPECT_EQ(dump(tree), std::string("0(").append(want).append(") 7"));
  dpor_detail::WakeupTree fresh;
  EXPECT_EQ(tree.pop_first(fresh).thread, 0u);
  EXPECT_EQ(dump(fresh), want);
}

TEST(DporTest, WakeupTreeClearedAnswersLikeFresh) {
  const std::vector<std::vector<std::uint32_t>> script = {
      {0, 1, 2}, {1, 0, 2}, {0, 3}, {4, 0}, {0, 1, 5}, {6}};
  auto replay = [&](dpor_detail::WakeupTree& tree) {
    std::vector<std::size_t> added;
    for (const auto& threads : script) {
      std::vector<mcapi::ActionFootprint> w;
      for (const std::uint32_t t : threads) w.push_back(step_fp(t));
      added.push_back(tree.insert(w, mcapi::DeliveryMode::kArbitraryDelay));
    }
    return added;
  };
  dpor_detail::WakeupTree fresh;
  const std::vector<std::size_t> want = replay(fresh);

  dpor_detail::WakeupTree reused;
  for (std::uint32_t i = 0; i < 20; ++i) insert_steps(reused, {10 + i, i});
  dpor_detail::WakeupTree sink;
  reused.pop_first(sink);
  reused.clear();
  EXPECT_TRUE(reused.empty());
  EXPECT_EQ(replay(reused), want);
  EXPECT_EQ(dump(reused), dump(fresh));
}

TEST(DporTest, WakeupTreeStatsPopulated) {
  const DporResult r = run_dpor(wl::figure1(), DporMode::kOptimal);
  EXPECT_GT(r.stats.races_detected, 0u);
  EXPECT_GT(r.stats.wakeup_nodes, 0u);
  EXPECT_EQ(r.stats.sleep_prunes, 0u);  // sleep-set-mode-only counter
}

TEST(DporTest, VerdictAgreesWithExplicitOnWorkloads) {
  struct Case {
    mcapi::Program program;
    const char* name;
  };
  std::vector<Case> cases;
  cases.push_back({wl::figure1(), "figure1"});
  cases.push_back({wl::scatter_gather(2), "scatter_gather"});
  cases.push_back({wl::pipeline(3, 2), "pipeline"});
  cases.push_back({wl::ring(3), "ring"});
  cases.push_back({wl::nonblocking_gather(2), "nonblocking_gather"});
  cases.push_back({wl::reversed_waits(), "reversed_waits"});
  cases.push_back({wl::polling_race(2), "polling_race"});
  cases.push_back({wl::branchy_race(), "branchy_race"});
  for (auto& c : cases) {
    ExplicitChecker explicit_checker(c.program);
    const ExplicitResult er = explicit_checker.run();
    for (const auto mode : {DporMode::kOptimal, DporMode::kSleepSet}) {
      const DporResult dr = run_dpor(c.program, mode);
      EXPECT_EQ(er.violation_found, dr.violation_found) << c.name;
      EXPECT_EQ(er.deadlock_found, dr.deadlock_found) << c.name;
    }
    const DporResult opt = run_dpor(c.program, DporMode::kOptimal);
    EXPECT_EQ(opt.stats.redundant_explorations, 0u) << c.name;
  }
}

TEST(DporTest, MccModeStillSound) {
  // Conservative dependence in global-FIFO mode: verdicts must match the
  // hashed explicit checker in the same mode.
  const auto [program, properties] = wl::figure1_with_property();
  (void)properties;
  for (const auto mode : {DporMode::kOptimal, DporMode::kSleepSet}) {
    const DporResult mcc = run_dpor(program, mode, mcapi::DeliveryMode::kGlobalFifo);
    EXPECT_FALSE(mcc.violation_found);  // MCC world misses the 4b bug

    const DporResult full = run_dpor(program, mode);
    EXPECT_TRUE(full.violation_found);  // delay world finds it
  }
}

class DporRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DporRandomTest, AgreesWithExplicitChecker) {
  const mcapi::Program p = random_program(GetParam());
  ExplicitChecker explicit_checker(p);
  const ExplicitResult er = explicit_checker.run();
  for (const auto mode : {DporMode::kOptimal, DporMode::kSleepSet}) {
    const DporResult dr = run_dpor(p, mode);
    EXPECT_EQ(er.violation_found, dr.violation_found) << GetParam();
    EXPECT_EQ(er.deadlock_found, dr.deadlock_found) << GetParam();
    if (mode == DporMode::kOptimal) {
      EXPECT_EQ(dr.stats.redundant_explorations, 0u) << GetParam();
    }
  }
}

TEST_P(DporRandomTest, AgreesOnDeadlockCapablePrograms) {
  RandomProgramOptions popts;
  popts.allow_deadlocks = true;
  popts.max_sends_per_thread = 2;
  const mcapi::Program p = random_program(GetParam(), popts);
  ExplicitChecker explicit_checker(p);
  const ExplicitResult er = explicit_checker.run();
  for (const auto mode : {DporMode::kOptimal, DporMode::kSleepSet}) {
    const DporResult dr = run_dpor(p, mode);
    EXPECT_EQ(er.violation_found, dr.violation_found) << GetParam();
    EXPECT_EQ(er.deadlock_found, dr.deadlock_found) << GetParam();
    if (mode == DporMode::kOptimal) {
      EXPECT_EQ(dr.stats.redundant_explorations, 0u) << GetParam();
    }
  }
}

// Seed count scales with MCSYM_TEST_ITERS. The default is leaner than the
// historical 20 now that the nightly deep tier cranks the knob; each seed
// also runs twice (both DPOR modes).
INSTANTIATE_TEST_SUITE_P(
    Seeds, DporRandomTest,
    ::testing::Range<std::uint64_t>(
        200, 200 + support::env_u64("MCSYM_TEST_ITERS", 12)));

// A random program of every shape the race-core tests walk: arbitrary
// delay and global FIFO, blocking and non-blocking receives, test/wait_any
// observers, asserts, loops, deadlock-capable mutations.
struct ShapedProgram {
  mcapi::Program program;
  mcapi::DeliveryMode mode;
};

ShapedProgram shaped_program(std::uint64_t seed) {
  RandomProgramOptions popts;
  popts.threads = 3 + static_cast<std::uint32_t>(seed % 3);
  popts.allow_deadlocks = seed % 3 == 0;
  popts.allow_nonblocking = seed % 4 >= 2;
  popts.allow_test_poll = seed % 4 == 2;
  popts.allow_wait_any = seed % 4 == 3;
  popts.add_asserts = seed % 5 == 1;
  popts.allow_loops = seed % 5 == 3;
  return {random_program(1700 + seed, popts),
          (seed / 4) % 2 == 0 ? mcapi::DeliveryMode::kArbitraryDelay
                              : mcapi::DeliveryMode::kGlobalFifo};
}

// At least 16 programs, so every shape (and an observer) occurs.
std::uint64_t shaped_program_count() {
  return std::max<std::uint64_t>(
      16, 4 * support::env_u64("MCSYM_TEST_ITERS", 12));
}

// The causal-pair rule (dpor_detail::enables) drops a race by message
// identity before its reversal is built. Pin it against the live-System
// simulation on every program shape. Random walks; after every push, the
// race points of the new event (another process's dependent event with
// nothing happening between them) that the scan decides without
// simulating are simulated here. A pair the rule names must be
// infeasible; two deliveries racing under arbitrary delay, which the scan
// lets through unchecked, must be feasible. Seed count scales with
// MCSYM_TEST_ITERS.
TEST(DporTest, CausalRuleRejectsOnlyInfeasibleReversals) {
  using mcapi::ActionFootprint;
  using Kind = mcapi::Action::Kind;
  std::uint64_t send_deliver = 0;
  std::uint64_t deliver_recv = 0;
  std::uint64_t deliver_wait = 0;
  std::uint64_t deliver_pairs = 0;
  const std::uint64_t programs = shaped_program_count();
  for (std::uint64_t seed = 0; seed < programs; ++seed) {
    const ShapedProgram sp = shaped_program(seed);
    support::Rng rng(seed);
    for (int walk = 0; walk < 3; ++walk) {
      dpor_detail::Prefix prefix(sp.program, sp.mode);
      std::vector<mcapi::Action> enabled;
      std::vector<ActionFootprint> v;
      prefix.sys.enabled(enabled);
      for (int step = 0; step < 200 && !enabled.empty(); ++step) {
        prefix.push(prefix.sys.footprint(enabled[rng.below(enabled.size())]));
        const std::size_t n = prefix.events.size() - 1;
        const ActionFootprint& ev = prefix.events[n];
        for (std::size_t k = ev.internal ? 0 : n; k-- > 0;) {
          const ActionFootprint& ek = prefix.events[k];
          if (ek.internal || ek.action == ev.action) continue;
          if (!mcapi::dependent(ek, ev, sp.mode)) continue;
          bool adjacent = true;
          for (std::size_t m = k + 1; m < n && adjacent; ++m) {
            if (prefix.hb(k, m) && prefix.hb(m, n)) adjacent = false;
          }
          if (!adjacent) continue;
          const bool causal = dpor_detail::enables(ek, ev);
          const bool deliver_pair =
              sp.mode == mcapi::DeliveryMode::kArbitraryDelay &&
              ek.action.kind == Kind::kDeliver &&
              ev.action.kind == Kind::kDeliver;
          if (!causal && !deliver_pair) continue;
          v.clear();
          for (std::size_t j = k + 1; j < n; ++j) {
            if (!prefix.hb(k, j)) v.push_back(prefix.events[j]);
          }
          v.push_back(ev);
          const bool feasible = prefix.simulate_feasible(k, v);
          prefix.replay_from(k);
          if (deliver_pair) {
            EXPECT_TRUE(feasible) << "seed " << seed << " race point " << k;
            ++deliver_pairs;
            continue;
          }
          EXPECT_FALSE(feasible) << "seed " << seed << " depth " << n
                                 << " race point " << k;
          if (ek.action.kind == Kind::kThreadStep) {
            ++send_deliver;
          } else {
            ++(ev.op == mcapi::OpKind::kRecv ? deliver_recv : deliver_wait);
          }
        }
        prefix.sys.enabled(enabled);
      }
    }
  }
  EXPECT_GT(send_deliver, 0u);
  EXPECT_GT(deliver_recv, 0u);
  EXPECT_GT(deliver_wait, 0u);
  EXPECT_GT(deliver_pairs, 0u);
}

// The vector clocks against a naive oracle, the transitive closure of
// mcapi::dependent over the executed prefix. Random walks with random
// backtracking (pop, then a different push) over random programs of every
// shape (shaped_program). After every push: hb(k, j) agrees with the
// closure for all k < j; the race points reaching the scan's coverage
// callback are exactly the directly dependent events of another process
// with no event m such that k -> m -> ev, less the pairs on one message's
// chain (ek sends the message ev delivers, or delivers the message the
// blocking recv or wait ev takes); and each candidate is the events after
// k not causally behind it, then ev. The callback reports every race
// covered, so the scan never rewinds the live System.
TEST(DporTest, VectorClocksMatchClosure) {
  using mcapi::ActionFootprint;
  using Kind = mcapi::Action::Kind;
  std::uint64_t races = 0;
  std::uint64_t causal_pairs = 0;
  std::uint64_t fifo_races = 0;
  std::uint64_t backtracks = 0;
  std::uint64_t observers = 0;
  const std::uint64_t programs = shaped_program_count();
  for (std::uint64_t seed = 0; seed < programs; ++seed) {
    const ShapedProgram sp = shaped_program(seed);
    const mcapi::DeliveryMode mode = sp.mode;
    support::Rng rng(seed);
    dpor_detail::Prefix prefix(sp.program, mode);
    // closure[j][k]: events[k] happens before events[j].
    std::vector<std::vector<bool>> closure;
    std::vector<std::size_t> expected;
    std::vector<std::size_t> seen;
    auto record = [&](std::size_t k, const std::vector<ActionFootprint>& v) {
      seen.push_back(k);
      const std::size_t n = prefix.events.size() - 1;
      std::vector<mcapi::Action> want;
      for (std::size_t j = k + 1; j < n; ++j) {
        if (!closure[j][k]) want.push_back(prefix.events[j].action);
      }
      want.push_back(prefix.events[n].action);
      EXPECT_EQ(dpor_detail::actions_of(v), want)
          << "seed " << seed << " depth " << n << " race point " << k;
      return true;
    };
    auto schedule_none = [](std::size_t, std::vector<ActionFootprint>&) {
      return std::size_t{0};
    };
    DporStats st;
    std::vector<mcapi::Action> enabled;
    // The action the last backtrack popped; the next push takes another.
    bool backtracked = false;
    mcapi::Action undone{mcapi::Action::Kind::kThreadStep, 0, {}};
    for (int step = 0; step < 200; ++step) {
      prefix.sys.enabled(enabled);
      const bool terminal = enabled.empty();
      if (terminal || (!prefix.events.empty() && rng.below(5) == 0)) {
        if (prefix.events.empty()) break;
        const std::size_t drop =
            1 + rng.below(std::min<std::size_t>(3, prefix.events.size()));
        backtracked = true;
        for (std::size_t i = 0; i < drop; ++i) {
          undone = prefix.events.back().action;
          prefix.pop();
          closure.pop_back();
        }
        ++backtracks;
        continue;
      }
      mcapi::Action a = enabled[rng.below(enabled.size())];
      if (backtracked && a == undone) {
        for (const mcapi::Action& b : enabled) {
          if (!(b == undone)) a = b;
        }
      }
      backtracked = false;

      const ActionFootprint ev = prefix.sys.footprint(a);
      const std::size_t n = prefix.events.size();
      std::vector<bool> row(n, false);
      for (std::size_t k = 0; k < n; ++k) {
        if (!mcapi::dependent(prefix.events[k], ev, mode)) continue;
        row[k] = true;
        for (std::size_t l = 0; l < k; ++l) {
          if (closure[k][l]) row[l] = true;
        }
      }
      closure.push_back(std::move(row));
      prefix.push(ev);
      if (!ev.observed_pending.empty()) ++observers;

      for (std::size_t j = 1; j <= n; ++j) {
        for (std::size_t k = 0; k < j; ++k) {
          ASSERT_EQ(prefix.hb(k, j), static_cast<bool>(closure[j][k]))
              << "seed " << seed << " hb(" << k << ", " << j << ")";
        }
      }
      expected.clear();
      if (!ev.internal) {
        for (std::size_t k = n; k-- > 0;) {
          const ActionFootprint& ek = prefix.events[k];
          if (ek.internal || ek.action == ev.action) continue;
          if (!mcapi::dependent(ek, ev, mode)) continue;
          bool adjacent = true;
          for (std::size_t m = k + 1; m < n && adjacent; ++m) {
            if (closure[m][k] && closure[n][m]) adjacent = false;
          }
          if (!adjacent) continue;
          const bool feeds =
              ev.has_message &&
              ((ek.action.kind == Kind::kThreadStep &&
                ek.op == mcapi::OpKind::kSend &&
                ev.action.kind == Kind::kDeliver &&
                ev.message_thread == ek.action.thread &&
                ev.message_op == ek.op_index) ||
               (ek.action.kind == Kind::kDeliver && ek.has_message &&
                ev.action.kind == Kind::kThreadStep &&
                (ev.op == mcapi::OpKind::kRecv ||
                 ev.op == mcapi::OpKind::kWait) &&
                ev.message_thread == ek.message_thread &&
                ev.message_op == ek.message_op));
          if (feeds) {
            ++causal_pairs;
          } else {
            expected.push_back(k);
          }
        }
      }
      seen.clear();
      prefix.scan_races(st, record, schedule_none);
      ASSERT_EQ(seen, expected) << "seed " << seed << " depth " << n;
      races += seen.size();
      if (mode == mcapi::DeliveryMode::kGlobalFifo) fifo_races += seen.size();
    }
  }
  EXPECT_GT(races, 0u);
  EXPECT_GT(causal_pairs, 0u);
  EXPECT_GT(fifo_races, 0u);
  EXPECT_GT(backtracks, 0u);
  EXPECT_GT(observers, 0u);
}

TEST(DporTest, IndependenceRelationBasics) {
  const mcapi::Program p = wl::figure1();
  mcapi::System sys(p);
  DporChecker checker(p);
  mcapi::Action step0{mcapi::Action::Kind::kThreadStep, 0, {}};
  mcapi::Action step2{mcapi::Action::Kind::kThreadStep, 2, {}};
  EXPECT_TRUE(checker.independent(sys, step0, step2));
  EXPECT_FALSE(checker.independent(sys, step0, step0));

  mcapi::Action del_e0;
  del_e0.kind = mcapi::Action::Kind::kDeliver;
  del_e0.channel = mcapi::ChannelId{2, 0};  // e2 -> e0 (owned by t0)
  mcapi::Action del_e1;
  del_e1.kind = mcapi::Action::Kind::kDeliver;
  del_e1.channel = mcapi::ChannelId{2, 1};  // e2 -> e1 (owned by t1)
  mcapi::Action del_x;
  del_x.kind = mcapi::Action::Kind::kDeliver;
  del_x.channel = mcapi::ChannelId{1, 0};  // e1 -> e0: same destination queue
  EXPECT_TRUE(checker.independent(sys, del_e0, del_e1));   // distinct endpoints
  EXPECT_FALSE(checker.independent(sys, del_e0, del_x));   // race for e0 arrival
  EXPECT_TRUE(checker.independent(sys, del_e0, step2));    // t2 unrelated
  // Refinement over the old owner-based relation: with nothing in transit
  // and t0's receive not holding a queued message, the delivery and the
  // receive share no message identity and commute; the causal pinning of a
  // receive behind the delivery it pops is per-message (see
  // MessageChainDependence), not per-endpoint-owner.
  EXPECT_TRUE(checker.independent(sys, del_e0, step0));
}

// The dependence relation's message-chain precision: a send and the
// delivery of a *different* in-transit message on the same channel commute
// (append-back vs pop-front), while the delivery of the send's own message
// is causally pinned behind it.
TEST(DporTest, MessageChainDependence) {
  mcapi::Program p;
  auto a = p.add_thread("a");
  auto b = p.add_thread("b");
  const auto ea = p.add_endpoint("ea", a.ref());
  const auto eb = p.add_endpoint("eb", b.ref());
  a.send(ea, eb, 1).send(ea, eb, 2);
  b.recv(eb, "x").recv(eb, "y");
  p.finalize();

  mcapi::System sys(p);
  mcapi::Action step_a{mcapi::Action::Kind::kThreadStep, 0, {}};
  mcapi::Action del;
  del.kind = mcapi::Action::Kind::kDeliver;
  del.channel = mcapi::ChannelId{ea, eb};

  // Nothing in transit: the delivery footprint names no message, the
  // pending send cannot feed it (their identities differ), so they commute.
  DporChecker checker(p);
  EXPECT_TRUE(checker.independent(sys, step_a, del));

  sys.apply(step_a);  // send #0 now in transit
  // The delivery would move exactly the message the *previous* send
  // produced; the next send (op 1) still commutes with it.
  EXPECT_TRUE(checker.independent(sys, step_a, del));
  const auto fp_del = sys.footprint(del);
  ASSERT_TRUE(fp_del.has_message);
  EXPECT_EQ(fp_del.message_thread, 0u);
  EXPECT_EQ(fp_del.message_op, 0u);
  const auto fp_send = sys.footprint(step_a);
  EXPECT_EQ(fp_send.op_index, 1u);
  // Once message #0 is delivered, b's blocking recv will pop it; the
  // delivery of message #1 (a different identity) commutes with that recv.
  sys.apply(del);
  sys.apply(step_a);  // send #1 in transit
  mcapi::Action step_b{mcapi::Action::Kind::kThreadStep, 1, {}};
  const auto fp_recv = sys.footprint(step_b);
  ASSERT_TRUE(fp_recv.has_message);
  EXPECT_EQ(fp_recv.message_op, 0u);  // pops the delivered #0 ...
  EXPECT_TRUE(checker.independent(sys, step_b, del));  // ... not in-transit #1
}

}  // namespace
}  // namespace mcsym::check
