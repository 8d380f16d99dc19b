// Exhaustive explicit-state exploration of a Program's transition system.
//
// Two roles:
//  * ground truth — under DeliveryMode::kArbitraryDelay it enumerates every
//    behavior of the paper's semantics (scheduler × network delays), which
//    the symbolic engine is validated against and raced against (the
//    Fusion-vs-Inspect comparison the paper cites as motivation);
//  * the MCC baseline — under DeliveryMode::kGlobalFifo it explores exactly
//    the delay-free world MCC (Sharma et al., FMCAD'09) searches: thread
//    steps reorder, message arrivals never do, so it misses the Figure-4b
//    pairing.
//
// The Figure-4 experiment itself (symbolic vs precise ground truth vs MCC
// vs the delay-ignorant encoding, one trace) is check::Verifier::enumerate:
// `with_precise` and `with_mcc` there drive this engine and the skeleton
// DFS, and a second enumerate with `symbolic.encode.delay_ignorant` set
// gives the Elwakil–Yang baseline. Tests that pin the engine itself call
// enumerate_against() here, with `mode = kGlobalFifo` for MCC.
#pragma once

#include <cstdint>
#include <set>
#include <unordered_set>
#include <vector>

#include "check/state_space.hpp"
#include "match/match_set.hpp"
#include "mcapi/system.hpp"
#include "support/stats.hpp"
#include "trace/trace.hpp"

namespace mcsym::check {

/// Shared settings (delivery mode, wall clock, cancellation, stateful
/// mode) live in SearchOptions.
struct ExplicitOptions : SearchOptions {
  std::uint64_t max_states = 10'000'000;
  /// Disable history-fingerprint pruning in enumerate_against() (the naive
  /// enumeration; kept as the ablation baseline for bench E4).
  bool dedup_histories = true;
  std::uint64_t max_matchings = 1u << 20;
};

struct ExplicitResult : SearchResult {
  /// Stateful mode telemetry (all zero when options.stateful is false).
  StateSpaceStats state_space;

  std::uint64_t states_expanded = 0;
  std::uint64_t transitions = 0;
  std::uint64_t terminal_states = 0;

  /// enumerate_against() only: the matching of every terminal execution
  /// that followed the reference trace's control flow, in trace event
  /// indices (the keys the symbolic side uses).
  std::set<match::Matching> matchings;
};

class ExplicitChecker {
 public:
  explicit ExplicitChecker(const mcapi::Program& program, ExplicitOptions options = {});

  /// Searches the full state space for assertion violations and deadlocks.
  [[nodiscard]] ExplicitResult run();

  /// Collects the matching of every terminal execution, converted into
  /// trace event indices via `reference`; executions whose branch outcomes
  /// differ from the reference trace are skipped, so the result is directly
  /// comparable with the symbolic enumeration for that trace. Visited-state
  /// pruning switches from the semantic fingerprint to the history
  /// fingerprint (semantic state + accumulated match/branch records), which
  /// keeps the enumeration exact while still collapsing the factorially
  /// many interleavings that converge on the same state-and-history.
  [[nodiscard]] ExplicitResult enumerate_against(const trace::Trace& reference);

 private:
  /// run() (no reference) or enumerate_against() (a reference trace).
  [[nodiscard]] ExplicitResult explore(const trace::Trace* reference);
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
  /// enumerate_against() only: trace::control_outcomes of the reference.
  std::vector<mcapi::BranchRecord> reference_outcomes_;
  std::unordered_set<std::uint64_t> visited_;
  std::unordered_set<support::Hash128> visited_histories_;
  StatefulSearch search_;  // stateful mode only
  const support::Stopwatch* timer_ = nullptr;  // live only inside run()
  // Clock-read / callback amortization for support::over_budget.
  std::uint64_t budget_probe_ = 0;
};

}  // namespace mcsym::check
