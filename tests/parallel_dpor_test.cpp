// Determinism contract of the sharded optimal-DPOR engine
// (DporOptions::workers > 1, src/check/dpor_parallel.cpp):
//
//  * trace-determined counters — executions, terminal_states, deadlock
//    verdicts — and all verdicts are identical to the serial engine for
//    every worker count (raced duplicate explorations are killed by their
//    sleep sets before completing and land in parallel_duplicates, never
//    in the trace counters);
//  * redundant_explorations is 0 by construction;
//  * transitions is charged arrival-edge-exact — each completed
//    execution's full path length at retirement. Every linearization of a
//    Mazurkiewicz trace has the same length, so the counter is EXACTLY
//    equal to serial at every worker count, even when a claim race changes
//    which linearization of a trace completes;
//  * budgets truncate and violations/deadlocks replay exactly like serial.
//
// The random battery scales with MCSYM_TEST_ITERS (default 200 seeds; CI's
// sanitizer jobs trim it, nightly cranks it). This suite is also the
// ThreadSanitizer workload for the parallel engine: every test hammers the
// shared tree from workers ∈ {2, 4, 8, 16}, and the steal-path battery
// adds narrow-root workloads where helping at all REQUIRES stealing.
#include <gtest/gtest.h>

#include <cstdint>

#include "check/dpor.hpp"
#include "check/random_program.hpp"
#include "check/workloads.hpp"
#include "mcapi/executor.hpp"
#include "support/env.hpp"

namespace mcsym::check {
namespace {

namespace wl = workloads;

constexpr std::uint32_t kWorkerCounts[] = {1, 2, 4, 8, 16};

DporResult run_optimal(const mcapi::Program& p, std::uint32_t workers) {
  DporOptions opts;
  opts.workers = workers;
  DporChecker checker(p, opts);
  return checker.run();
}

/// `pairs` disjoint sender/receiver thread pairs on disjoint endpoints:
/// the dependence graph decomposes into independent chains, so the whole
/// program has exactly ONE Mazurkiewicz trace — the degenerate case where
/// any duplicated parallel exploration shows up immediately.
mcapi::Program independent_writers(std::uint32_t pairs) {
  mcapi::Program p;
  for (std::uint32_t i = 0; i < pairs; ++i) {
    auto s = p.add_thread(std::string("s").append(std::to_string(i)));
    auto r = p.add_thread(std::string("r").append(std::to_string(i)));
    const auto es = p.add_endpoint("es" + std::to_string(i), s.ref());
    const auto er = p.add_endpoint("er" + std::to_string(i), r.ref());
    s.send(es, er, 1).send(es, er, 2);
    r.recv(er, "a").recv(er, "b");
  }
  p.finalize();
  return p;
}

struct PinnedCase {
  const char* name;
  mcapi::Program program;
  std::uint64_t traces;  // closed-form Mazurkiewicz trace count
};

std::vector<PinnedCase> pinned_cases() {
  std::vector<PinnedCase> cases;
  cases.push_back({"figure1", wl::figure1(), 2});
  cases.push_back({"message_race(2,2)", wl::message_race(2, 2), 6});
  cases.push_back({"message_race(3,2)", wl::message_race(3, 2), 90});
  cases.push_back({"message_race(4,2)", wl::message_race(4, 2), 2520});
  cases.push_back({"independent_writers(3)", independent_writers(3), 1});
  return cases;
}

// Every pinned workload completes at exactly its closed-form trace count
// for every worker count; workers == 1 reproduces the serial engine's
// counters byte-for-byte, and the arrival-edge-exact transitions charge is
// serial-identical at every worker count.
TEST(ParallelDporTest, PinnedClosedFormsAcrossWorkerCounts) {
  for (PinnedCase& c : pinned_cases()) {
    const DporResult serial = run_optimal(c.program, 1);
    ASSERT_FALSE(serial.truncated) << c.name;
    EXPECT_EQ(serial.stats.executions, c.traces) << c.name;
    EXPECT_EQ(serial.stats.terminal_states, c.traces) << c.name;
    EXPECT_EQ(serial.stats.redundant_explorations, 0u) << c.name;
    EXPECT_EQ(serial.stats.parallel_duplicates, 0u) << c.name;
    for (const std::uint32_t workers : kWorkerCounts) {
      const DporResult r = run_optimal(c.program, workers);
      SCOPED_TRACE(std::string(c.name) + " workers=" +
                   std::to_string(workers));
      EXPECT_FALSE(r.truncated);
      EXPECT_FALSE(r.violation_found);
      EXPECT_FALSE(r.deadlock_found);
      EXPECT_EQ(r.stats.executions, c.traces);
      EXPECT_EQ(r.stats.terminal_states, c.traces);
      EXPECT_EQ(r.stats.redundant_explorations, 0u);
      EXPECT_EQ(r.stats.transitions, serial.stats.transitions);
      if (workers == 1) {
        EXPECT_EQ(r.stats.parallel_duplicates, 0u);
      }
    }
  }
}

// The randomized battery: every generated program (the dpor_test seed
// stream, offset so the suites diverge) must agree with its own serial run
// for every worker count — verdicts exactly, trace counters exactly on
// violation-free programs, counterexamples replaying on violating ones.
class ParallelDporRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelDporRandomTest, MatchesSerialEngine) {
  const mcapi::Program p = random_program(GetParam());
  const DporResult serial = run_optimal(p, 1);
  if (serial.truncated) GTEST_SKIP() << "serial run over budget";
  for (const std::uint32_t workers : {2u, 4u, 8u}) {
    const DporResult r = run_optimal(p, workers);
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ASSERT_FALSE(r.truncated);
    ASSERT_EQ(r.violation_found, serial.violation_found);
    if (serial.violation_found) {
      // Early exit makes the remaining counters exploration-order noise;
      // the witness itself is the contract.
      ASSERT_FALSE(r.counterexample.empty());
      mcapi::System sys(p);
      mcapi::ReplayScheduler replay(r.counterexample);
      EXPECT_EQ(
          mcapi::run(sys, replay, nullptr, r.counterexample.size() + 1).outcome,
          mcapi::RunResult::Outcome::kViolation);
      continue;
    }
    EXPECT_EQ(r.deadlock_found, serial.deadlock_found);
    EXPECT_EQ(r.stats.terminal_states, serial.stats.terminal_states);
    // Sleep-set-blocked paths (possible serially only under observer ops)
    // land in parallel_duplicates when sharded, so the exact relation is
    // executions == serial executions - serial redundant.
    EXPECT_EQ(r.stats.executions,
              serial.stats.executions - serial.stats.redundant_explorations);
    EXPECT_EQ(r.stats.redundant_explorations, 0u);
    // Arrival-edge-exact charging: blocked/duplicate paths charge nothing
    // in either engine, so the sum over completed traces is identical.
    EXPECT_EQ(r.stats.transitions, serial.stats.transitions);
    if (r.deadlock_found) {
      mcapi::System sys(p);
      mcapi::ReplayScheduler replay(r.deadlock_schedule);
      EXPECT_EQ(mcapi::run(sys, replay, nullptr, r.deadlock_schedule.size() + 1)
                    .outcome,
                mcapi::RunResult::Outcome::kDeadlock);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ParallelDporRandomTest,
    ::testing::Range<std::uint64_t>(
        500, 500 + support::env_u64("MCSYM_TEST_ITERS", 200)));

// A violating workload across worker counts: the first finder stops every
// worker, the verdict is stable, and the counterexample replays.
TEST(ParallelDporTest, ViolationFoundAndReplays) {
  const mcapi::Program p = wl::scatter_gather(2);
  for (const std::uint32_t workers : kWorkerCounts) {
    const DporResult r = run_optimal(p, workers);
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ASSERT_TRUE(r.violation_found);
    ASSERT_TRUE(r.violation.has_value());
    ASSERT_FALSE(r.counterexample.empty());
    mcapi::System sys(p);
    mcapi::ReplayScheduler replay(r.counterexample);
    EXPECT_EQ(
        mcapi::run(sys, replay, nullptr, r.counterexample.size() + 1).outcome,
        mcapi::RunResult::Outcome::kViolation);
  }
}

// Root-state deadlock (both threads block on their first instruction):
// exercises the parallel run()'s serial-mirroring first iteration, where
// no worker is ever spawned.
TEST(ParallelDporTest, InitialDeadlockDetected) {
  mcapi::Program p;
  auto a = p.add_thread("a");
  auto b = p.add_thread("b");
  const auto ea = p.add_endpoint("ea", a.ref());
  const auto eb = p.add_endpoint("eb", b.ref());
  a.recv(ea, "x").send(ea, eb, 1);
  b.recv(eb, "y").send(eb, ea, 2);
  p.finalize();
  for (const std::uint32_t workers : kWorkerCounts) {
    const DporResult r = run_optimal(p, workers);
    SCOPED_TRACE("workers=" + std::to_string(workers));
    EXPECT_TRUE(r.deadlock_found);
    mcapi::System sys(p);
    mcapi::ReplayScheduler replay(r.deadlock_schedule);
    EXPECT_EQ(mcapi::run(sys, replay, nullptr, r.deadlock_schedule.size() + 1)
                  .outcome,
              mcapi::RunResult::Outcome::kDeadlock);
  }
}

// Both budget axes truncate a sharded search promptly and cleanly: the
// transition counter is shared (atomic), the wall clock is probed by every
// worker on the serial engine's amortized schedule.
TEST(ParallelDporTest, BudgetsTruncateSharded) {
  const mcapi::Program p = wl::message_race(3, 2);
  for (const std::uint32_t workers : {2u, 4u, 8u}) {
    DporOptions opts;
    opts.workers = workers;
    opts.max_transitions = 10;
    const DporResult tr = DporChecker(p, opts).run();
    EXPECT_TRUE(tr.truncated) << "workers=" << workers;

    DporOptions wopts;
    wopts.workers = workers;
    wopts.max_seconds = 1e-9;
    const DporResult wr = DporChecker(p, wopts).run();
    EXPECT_TRUE(wr.truncated) << "workers=" << workers;
  }
}

// ---------------------------------------------------------------------------
// Steal-path battery: narrow-root workloads where the exploration tree
// starts as a single path, so a sharded run can only use its extra workers
// by STEALING from inside the first worker's subtree — the work-stealing
// scheduler's raison d'être. The contract is the same serial-identity as
// everywhere else; what these cases add is that the identity holds when
// essentially every branch a non-first worker runs arrived via steal().
// ---------------------------------------------------------------------------

// token_fanout: exactly one action enabled at the root (the token
// injection; every other thread blocks on a gate receive), then a racers!
// payload race once the token has threaded through. scatter_gather_safe:
// the symmetric wide-frontier shape the bench gates on. Both safe, so the
// full trace space is explored at every worker count.
TEST(ParallelDporTest, StealPathBatteryMatchesSerial) {
  struct Case {
    const char* name;
    mcapi::Program program;
  };
  std::vector<Case> cases;
  cases.push_back({"token_fanout(4)", wl::token_fanout(4)});
  cases.push_back({"token_fanout(5)", wl::token_fanout(5)});
  cases.push_back({"scatter_gather_safe(3)", wl::scatter_gather_safe(3)});
  cases.push_back({"scatter_gather_safe(4)", wl::scatter_gather_safe(4)});
  for (Case& c : cases) {
    const DporResult serial = run_optimal(c.program, 1);
    ASSERT_FALSE(serial.truncated) << c.name;
    EXPECT_EQ(serial.stats.redundant_explorations, 0u) << c.name;
    for (const std::uint32_t workers : {2u, 4u, 8u}) {
      const DporResult r = run_optimal(c.program, workers);
      SCOPED_TRACE(std::string(c.name) + " workers=" +
                   std::to_string(workers));
      EXPECT_FALSE(r.truncated);
      EXPECT_FALSE(r.violation_found);
      EXPECT_FALSE(r.deadlock_found);
      EXPECT_EQ(r.stats.executions, serial.stats.executions);
      EXPECT_EQ(r.stats.terminal_states, serial.stats.terminal_states);
      EXPECT_EQ(r.stats.transitions, serial.stats.transitions);
      EXPECT_EQ(r.stats.redundant_explorations, 0u);
    }
  }
}

// Scheduler telemetry invariants. The VALUES are timing-dependent (they
// count scheduling work, like races_detected), so the pins are structural:
// serial runs report all-zero telemetry, and in a sharded run every worker
// other than the seed-holder must log at least one steal or one failed
// steal round before it can touch any work — so steals + steal_failures
// >= workers - 1 unconditionally, even on a single-core host where the
// fleet mostly arrives after the tree is drained.
TEST(ParallelDporTest, SchedulerTelemetryInvariants) {
  const mcapi::Program p = wl::token_fanout(5);
  const DporResult serial = run_optimal(p, 1);
  EXPECT_EQ(serial.stats.steals, 0u);
  EXPECT_EQ(serial.stats.steal_failures, 0u);
  EXPECT_EQ(serial.stats.claim_conflicts, 0u);
  EXPECT_EQ(serial.stats.max_replay_depth, 0u);
  EXPECT_EQ(serial.stats.parallel_duplicates, 0u);
  for (const std::uint32_t workers : {2u, 4u, 8u}) {
    const DporResult r = run_optimal(p, workers);
    SCOPED_TRACE("workers=" + std::to_string(workers));
    EXPECT_GE(r.stats.steals + r.stats.steal_failures,
              static_cast<std::uint64_t>(workers) - 1);
    // A replay can never be deeper than the longest execution, and a
    // stolen branch is replayed from the root at most once per claim.
    EXPECT_LE(r.stats.max_replay_depth, serial.stats.transitions);
  }
}

// Steal-heavy stress case, sized for the TSan CI leg (this suite is the
// sanitizer workload for the parallel engine): a deeper token chain whose
// fanout keeps all 8 workers stealing against each other for the whole
// run, hammering the claim CAS, the deque top_ CAS, the node-local graft
// locks, and the quiescence counter at once.
TEST(ParallelDporTest, StealHeavyStressMatchesSerial) {
  const mcapi::Program p = wl::token_fanout(6);
  const DporResult serial = run_optimal(p, 1);
  ASSERT_FALSE(serial.truncated);
  for (const std::uint32_t workers : {4u, 8u}) {
    const DporResult r = run_optimal(p, workers);
    SCOPED_TRACE("workers=" + std::to_string(workers));
    EXPECT_FALSE(r.truncated);
    EXPECT_EQ(r.stats.executions, serial.stats.executions);
    EXPECT_EQ(r.stats.terminal_states, serial.stats.terminal_states);
    EXPECT_EQ(r.stats.transitions, serial.stats.transitions);
  }
}

// The cooperative cancellation hook is probed concurrently by every
// worker; returning true must stop the whole fleet with truncated set.
TEST(ParallelDporTest, InterruptStopsAllWorkers) {
  const mcapi::Program p = wl::message_race(4, 2);
  DporOptions opts;
  opts.workers = 4;
  opts.interrupted = [] { return true; };
  const DporResult r = DporChecker(p, opts).run();
  EXPECT_TRUE(r.truncated);
  EXPECT_LT(r.stats.executions, 2520u);  // stopped well before completion
}

}  // namespace
}  // namespace mcsym::check
