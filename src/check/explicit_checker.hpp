// Exhaustive explicit-state exploration of a Program's transition system.
//
// Two roles:
//  * ground truth — under DeliveryMode::kArbitraryDelay it enumerates every
//    behavior of the paper's semantics (scheduler × network delays), which
//    the symbolic engine is validated against and raced against (the
//    Fusion-vs-Inspect comparison the paper cites as motivation);
//  * the MCC baseline — under DeliveryMode::kGlobalFifo it explores exactly
//    the delay-free world MCC searches, demonstrating the missed behaviors
//    of Figure 4b.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <unordered_set>
#include <vector>

#include "check/state_space.hpp"
#include "match/match_set.hpp"
#include "mcapi/system.hpp"
#include "support/stats.hpp"
#include "trace/trace.hpp"

namespace mcsym::check {

struct ExplicitOptions {
  mcapi::DeliveryMode mode = mcapi::DeliveryMode::kArbitraryDelay;
  std::uint64_t max_states = 10'000'000;
  /// Wall-clock budget in seconds; 0 = unlimited. Exceeding it abandons the
  /// search with result.truncated set, exactly like max_states (the shared
  /// Budget of the check::Verifier facade maps here).
  double max_seconds = 0;
  /// Optional cooperative cancellation probe, polled on the same amortized
  /// schedule as the wall clock: returning true abandons the search with
  /// result.truncated set. The Verifier facade routes its
  /// progress/cancellation callback through this hook.
  std::function<bool()> interrupted;
  /// Collect the matching of every terminal execution. Switches visited-state
  /// pruning from the semantic fingerprint to the history fingerprint
  /// (semantic state + accumulated match/branch records), which keeps the
  /// enumeration exact while still collapsing the factorially many
  /// interleavings that converge on the same state-and-history.
  bool collect_matchings = false;
  /// Disable history-fingerprint pruning in collect_matchings mode (the
  /// naive enumeration; kept as the ablation baseline for bench E4).
  bool dedup_histories = true;
  std::uint64_t max_matchings = 1u << 20;
  /// Stateful exploration (see check/state_space.hpp): visited states live
  /// in an LRU-bounded VisitedStateStore with hit/miss/eviction telemetry,
  /// on-stack revisits are cut and classified as cycles, and a
  /// non-progressive cycle (no message matched between the visits) is
  /// reported as a non-termination lasso. On loop-free programs the prune
  /// set is identical to the stateless fingerprint pruning, so verdicts and
  /// witnesses are byte-identical; on cyclic programs this is what makes
  /// the search terminate WITH a classification instead of silently
  /// pruning spin states. Ignored in collect_matchings mode.
  bool stateful = false;
  /// Visited-store capacity in states for stateful mode; 0 = unbounded.
  /// Eviction trades re-exploration for bounded memory — termination is
  /// preserved by the on-stack cycle cut, which never depends on the store.
  std::size_t state_capacity = VisitedStateStore::kDefaultCapacity;
};

struct ExplicitResult {
  bool violation_found = false;
  std::optional<mcapi::Violation> violation;
  /// Action schedule reaching the violation (replayable via ReplayScheduler).
  std::vector<mcapi::Action> counterexample;
  bool deadlock_found = false;
  std::vector<mcapi::Action> deadlock_schedule;

  /// Stateful mode: a non-progressive cycle was realized — the program can
  /// run forever without externally visible progress. The witness is the
  /// lasso: replay `lasso_stem` from the initial state to enter the cycle,
  /// then `lasso_cycle` returns to the same semantic state.
  bool non_termination_found = false;
  std::vector<mcapi::Action> lasso_stem;
  std::vector<mcapi::Action> lasso_cycle;
  /// Stateful mode telemetry (all zero when options.stateful is false).
  StateSpaceStats state_space;

  std::uint64_t states_expanded = 0;
  std::uint64_t transitions = 0;
  std::uint64_t terminal_states = 0;
  bool truncated = false;
  double seconds = 0;

  /// Matchings keyed the same way the symbolic side keys them (per-thread
  /// receive ordinal), already converted to trace event indices when a
  /// reference trace was supplied.
  std::set<match::Matching> matchings;
  /// Raw (thread, recv ordinal, uid) matchings when no trace mapping exists.
  std::set<std::vector<mcapi::MatchRecord>> raw_matchings;
};

class ExplicitChecker {
 public:
  explicit ExplicitChecker(const mcapi::Program& program, ExplicitOptions options = {});

  /// Searches the full state space for assertion violations and deadlocks.
  [[nodiscard]] ExplicitResult run();

  /// Like run() with collect_matchings, but converts each execution's
  /// matching into trace event indices via `reference`; executions whose
  /// branch outcomes differ from the reference trace are skipped, so the
  /// result is directly comparable with the symbolic enumeration for that
  /// trace.
  [[nodiscard]] ExplicitResult enumerate_against(const trace::Trace& reference);

 private:
  /// DFS over the one live journaling System: each enabled action is
  /// applied, explored, and undone back to the frame's checkpoint — no
  /// per-branch System copies.
  void dfs(mcapi::System& sys, std::vector<mcapi::Action>& script,
           ExplicitResult& result, const trace::Trace* reference);
  [[nodiscard]] bool record_terminal(const mcapi::System& state,
                                     ExplicitResult& result,
                                     const trace::Trace* reference) const;

  const mcapi::Program& program_;
  ExplicitOptions options_;
  std::unordered_set<std::uint64_t> visited_;
  std::unordered_set<support::Hash128> visited_histories_;
  // Stateful mode: the bounded visited store and the fingerprints of the
  // current DFS path (cycle detection).
  VisitedStateStore store_{0};
  CycleStack cycle_stack_;
  const support::Stopwatch* timer_ = nullptr;  // live only inside run()
  // Clock-read / callback amortization for support::over_budget.
  std::uint64_t budget_probe_ = 0;
};

}  // namespace mcsym::check
