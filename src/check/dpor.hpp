// Dynamic partial-order reduction over the MCAPI transition system, in
// two strengths selected by DporMode:
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
// Both modes walk ONE live journaling System (System::enable_undo_log)
// up and down the exploration stack: descending applies an action,
// backtracking undoes it, so no System is copied on the exploration path.
// Optimal mode is one serial loop (dpor.cpp) over the race core
// dpor_detail::Prefix (dpor_internal.hpp). Stateful mode, budgets and the
// verdict fields come from the shared search layer (check/state_space.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "check/state_space.hpp"
#include "mcapi/system.hpp"
#include "support/stats.hpp"

namespace mcsym::check {

enum class DporMode : std::uint8_t {
  kOptimal,   // source sets + wakeup trees (default)
  kSleepSet,  // historical baseline, kept for differential A/B
};

/// Shared settings (delivery mode, wall clock, cancellation, stateful
/// mode and its store rule) live in SearchOptions.
struct DporOptions : SearchOptions {
  DporMode algorithm = DporMode::kOptimal;
  std::uint64_t max_transitions = 50'000'000;
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

struct DporResult : SearchResult {
  DporStats stats;
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
  StatefulSearch search_;  // stateful mode only, reset per run()
  // Clock-read amortization for the budget probe.
  std::uint64_t budget_probe_ = 0;
  // Raw apply count driving max_transitions in the sleep-set DFS; the
  // reported stats.transitions is charged at execution completion instead
  // (see DporStats::transitions).
  std::uint64_t sleepset_applied_ = 0;
};

}  // namespace mcsym::check
