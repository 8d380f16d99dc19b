// Stateless dynamic partial-order reduction over the MCAPI transition
// system, in two strengths selected by DporMode:
//
//  * kSleepSet — the Inspect-style baseline of the paper's motivation
//    (Flanagan & Godefroid, POPL'05; Yang et al.'s Inspect): local-first
//    ample sets for internal steps plus sleep sets over the visible
//    actions. Sound and complete, but it explores every enabled non-slept
//    action at every state, so most explored paths end sleep-set blocked —
//    work that grows combinatorially with the number of racing messages.
//
//  * kOptimal — source-set DPOR with wakeup trees (Abdulla, Aronis,
//    Jonsson, Sagonas: "Optimal dynamic partial order reduction",
//    POPL'14/JACM'17, the technique behind the representative-execution
//    generators of Maarand & Uustalu and MCA-aware dynamic verifiers): a
//    happens-before relation over the executed prefix detects
//    reversible races as events are appended; each race schedules a
//    minimal revisit sequence (notdep(e,E)·proc(e')) into the wakeup tree
//    of the state before the race, unless a sleeping sibling already
//    covers it. Exactly one maximal execution per Mazurkiewicz trace of
//    the dependence relation is explored: redundant_explorations == 0.
//
// Both modes share one dependence relation, derived from
// mcapi::ActionFootprint pairs (mcapi/system.hpp): program order,
// per-endpoint delivery order, the send -> deliver -> receive chain of
// each message (by static send identity), the pending-request observations
// of polls and wait_any, and — under DeliveryMode::kGlobalFifo — the
// global send/delivery order. A race on one message's chain (a send vs.
// the delivery of its own message, a delivery vs. the recv or wait it
// fed) is causal and never reversed: optimal mode drops it by message
// identity before building a reversal. Every other reversal, except two
// deliveries racing for one endpoint, is validated by simulating it
// against the real semantics.
//
// State management is checkpoint/undo, not copy-the-world: both modes keep
// ONE live journaling System (System::enable_undo_log) walked up and down
// the exploration stack — descending applies the chosen action, popping a
// frame undoes it, and a frame's checkpoint is simply its depth (exactly
// one undo record per applied action). Race-reversal simulation is
// apply -> inspect -> undo on that same live state: rewind to the pre-race
// frame, run the candidate sequence, roll it back, and replay the executed
// suffix. Frames therefore store only reduction bookkeeping (wakeup tree,
// sleep set, chosen footprint) plus the event's vector clock; no System is
// ever copied on the exploration path.
//
// Optimal mode is one serial loop (dpor.cpp) over the race core
// dpor_detail::Prefix (dpor_internal.hpp): the live System, the executed
// footprints and their per-process vector clocks, and the race scan with
// its causal-pair rule and simulated feasibility check. The loop hands
// the scan two callbacks: whether a sleeping sibling already covers a
// race, and where its reversal is scheduled.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "check/state_space.hpp"
#include "mcapi/system.hpp"
#include "support/stats.hpp"

namespace mcsym::check {

enum class DporMode : std::uint8_t {
  kOptimal,   // source sets + wakeup trees (default)
  kSleepSet,  // historical baseline, kept for differential A/B
};

struct DporOptions {
  mcapi::DeliveryMode mode = mcapi::DeliveryMode::kArbitraryDelay;
  DporMode algorithm = DporMode::kOptimal;
  std::uint64_t max_transitions = 50'000'000;
  /// Wall-clock budget in seconds; 0 = unlimited. Exceeding it abandons the
  /// search with result.truncated set, exactly like max_transitions — the
  /// guard the benches use to race the sleep-set baseline on instances
  /// where it blows up combinatorially.
  double max_seconds = 0;
  /// Optional cooperative cancellation probe, polled on the same amortized
  /// schedule as the wall clock: returning true abandons the search with
  /// result.truncated set. The Verifier facade routes its
  /// progress/cancellation callback through this hook.
  std::function<bool()> interrupted;
  /// Stateful exploration (check/state_space.hpp): cut descent at on-stack
  /// fingerprint revisits (classifying non-progressive cycles into a
  /// non-termination lasso) and prune subtrees whose root state was already
  /// fully explored. The prefix-pruning rule is deliberately conservative
  /// so trace counters stay honest: a state is stored, and a store hit
  /// prunes, only at nodes whose sleep set is empty (nothing suppressed
  /// here was covered on some other path) — and pruning additionally
  /// requires an empty incoming wakeup subtree (scheduled race reversals
  /// are never discarded by a hit). Cut paths are counted in the
  /// state-space counters, never in executions/transitions.
  /// CAVEAT — cycle cutting interacts with wakeup-tree scheduling: a
  /// reversal whose target lies beyond a cut revisit is dropped with the
  /// cut, so on cyclic programs stateful DPOR is a terminating
  /// semi-decision procedure for reachability, cross-checked against the
  /// stateful explicit engine by the differential loop battery; on
  /// loop-free programs verdicts and witnesses are unchanged.
  bool stateful = false;
  /// Visited-store capacity in states for stateful mode; 0 = unbounded.
  std::size_t state_capacity = VisitedStateStore::kDefaultCapacity;
};

/// Exploration counters. `executions` counts every maximal explored path:
/// completed runs (terminal_states), deadlocked runs, the violating run,
/// and sleep-set-blocked abandonments (redundant_explorations). In optimal
/// mode redundant_explorations must be 0 — every started execution is the
/// unique representative of its Mazurkiewicz trace.
struct DporStats {
  /// Arrival-edge-exact transition charge: the sum over completed
  /// executions (terminal, deadlocked, or violating maximal paths) of the
  /// execution's full path length, charged at the moment the execution
  /// completes. Sleep-set-blocked paths charge nothing. Every
  /// linearization of a Mazurkiewicz trace has the same length, so the sum
  /// depends only on the set of completed traces — it is identical across
  /// exploration orders. The max_transitions budget is enforced against
  /// the raw apply count (every executed step, including later-abandoned
  /// work), not against this charge.
  std::uint64_t transitions = 0;
  std::uint64_t executions = 0;
  std::uint64_t terminal_states = 0;
  std::uint64_t sleep_prunes = 0;            // sleep-set mode: branches cut
  std::uint64_t races_detected = 0;          // optimal: reversible races that
                                             // were not already covered by a
                                             // sleeping sibling
  std::uint64_t wakeup_nodes = 0;            // optimal: wakeup-tree nodes inserted
  std::uint64_t redundant_explorations = 0;  // sleep-set-blocked maximal paths
  /// Stateful exploration telemetry (options.stateful only; zero otherwise).
  StateSpaceStats state_space;
};

struct DporResult {
  bool violation_found = false;
  std::optional<mcapi::Violation> violation;
  std::vector<mcapi::Action> counterexample;
  bool deadlock_found = false;
  /// Action schedule reaching the first deadlock found (replayable).
  std::vector<mcapi::Action> deadlock_schedule;

  /// Stateful mode: a non-progressive cycle was realized; stem + cycle
  /// form the replayable lasso witness (see ExplicitResult).
  bool non_termination_found = false;
  std::vector<mcapi::Action> lasso_stem;
  std::vector<mcapi::Action> lasso_cycle;

  DporStats stats;
  bool truncated = false;
  double seconds = 0;
};

class DporChecker {
 public:
  explicit DporChecker(const mcapi::Program& program, DporOptions options = {});

  [[nodiscard]] DporResult run();

  /// Structural independence of two enabled actions (exposed for testing):
  /// the negation of mcapi::dependent over their footprints at `state`.
  [[nodiscard]] bool independent(const mcapi::System& state,
                                 const mcapi::Action& a,
                                 const mcapi::Action& b) const;

 private:
  void run_optimal(DporResult& result, const support::Stopwatch& timer);
  /// Sleep-set DFS over the live journaling `sys`: each visited action is
  /// applied, explored, and rolled back to the frame's checkpoint.
  void explore_sleepset(mcapi::System& sys, std::vector<mcapi::Action>& sleep,
                        std::vector<mcapi::Action>& script, DporResult& result,
                        const support::Stopwatch& timer);

  const mcapi::Program& program_;
  DporOptions options_;
  // Stateful mode: the bounded visited store and on-path fingerprints,
  // reset per run(). Shared by the optimal loop and the sleep-set DFS.
  VisitedStateStore store_{0};
  CycleStack cycle_stack_;
  // Clock-read amortization for the budget probe.
  std::uint64_t budget_probe_ = 0;
  // Raw apply count driving max_transitions in the sleep-set DFS; the
  // reported stats.transitions is charged at execution completion instead
  // (see DporStats::transitions).
  std::uint64_t sleepset_applied_ = 0;
};

}  // namespace mcsym::check
