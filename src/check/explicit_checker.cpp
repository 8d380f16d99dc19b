#include "check/explicit_checker.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/stats.hpp"

namespace mcsym::check {

using mcapi::Action;
using mcapi::System;

ExplicitChecker::ExplicitChecker(const mcapi::Program& program,
                                 ExplicitOptions options)
    : program_(program), options_(options) {}

bool ExplicitChecker::record_terminal(const System& state, ExplicitResult& result,
                                      const trace::Trace* reference) const {
  ++result.terminal_states;
  if (reference == nullptr) return true;

  // Keep only executions that followed the reference trace's control flow
  // (the paper's problems are per-trace: same branch, poll and wait_any
  // outcomes).
  std::vector<mcapi::BranchRecord> got = state.branches();
  std::sort(got.begin(), got.end());
  if (got != reference_outcomes_) return true;  // different path: out of scope

  if (auto m = trace::matching_of(*reference, state.matches())) {
    result.matchings.insert(std::move(*m));
  }
  return result.matchings.size() < options_.max_matchings;
}

void ExplicitChecker::dfs(System& sys, std::vector<Action>& script,
                          ExplicitResult& result, const trace::Trace* reference) {
  // Enumeration (a reference trace) explores past violations and prunes on
  // history fingerprints; a verdict search stops at the first violation.
  const bool collect = reference != nullptr;
  const bool stateful = options_.stateful && !collect;
  if (result.truncated) return;
  if (result.violation_found && !collect) return;
  if (result.states_expanded >= options_.max_states ||
      support::over_budget(options_, *timer_, budget_probe_)) {
    result.truncated = true;
    return;
  }
  ++result.states_expanded;

  if (sys.has_violation()) {
    if (!result.violation_found) {
      result.violation_found = true;
      result.violation = sys.violation();
      result.counterexample = script;
    }
    // In enumeration mode keep exploring other schedules; a violating
    // execution is terminal but does not end the search.
    return;
  }

  std::vector<Action> actions;
  sys.enabled(actions);
  if (actions.empty()) {
    if (sys.all_halted()) {
      if (!record_terminal(sys, result, reference)) result.truncated = true;
    } else {
      result.deadlock_found = true;
      if (result.deadlock_schedule.empty()) result.deadlock_schedule = script;
    }
    return;
  }

  for (const Action& a : actions) {
    // Checkpoint/undo fork: apply on the one live System, recurse, roll
    // back — the undo record's O(changed) cells replace the old
    // copy-the-world fork per branch.
    const System::Checkpoint here = sys.checkpoint();
    sys.apply(a);
    ++result.transitions;
    script.push_back(a);
    bool pruned = false;
    if (stateful) {
      pruned =
          !search_.enter(sys, StatefulSearch::Store::kPrune, result, script);
    } else if (!collect) {
      pruned = !visited_.insert(sys.fingerprint()).second;
    } else if (options_.dedup_histories) {
      // The history fingerprint covers match/branch records, so identical
      // keys have identical suffix enumerations — pruning stays exact.
      pruned = !visited_histories_.insert(sys.history_fingerprint()).second;
    }
    if (!pruned) {
      dfs(sys, script, result, reference);
      if (stateful) search_.leave();
    }
    script.pop_back();
    sys.rollback(here);
    if (result.truncated) return;
    if (result.violation_found && !collect) return;
  }
}

ExplicitResult ExplicitChecker::run() { return explore(nullptr); }

ExplicitResult ExplicitChecker::enumerate_against(const trace::Trace& reference) {
  return explore(&reference);
}

ExplicitResult ExplicitChecker::explore(const trace::Trace* reference) {
  const support::Stopwatch timer;
  timer_ = &timer;
  ExplicitResult result;
  visited_.clear();
  visited_histories_.clear();
  System sys(program_, options_.mode);
  sys.enable_undo_log();
  std::vector<Action> script;
  const bool stateful = options_.stateful && reference == nullptr;
  if (reference != nullptr) {
    reference_outcomes_ = trace::control_outcomes(*reference);
    if (options_.dedup_histories) visited_histories_.insert(sys.history_fingerprint());
  } else if (stateful) {
    search_ = StatefulSearch(options_.state_capacity);
    search_.enter(sys, StatefulSearch::Store::kPrune, result, script);
  } else {
    visited_.insert(sys.fingerprint());
  }
  dfs(sys, script, result, reference);
  if (stateful) result.state_space = search_.stats();
  result.seconds = timer.seconds();
  timer_ = nullptr;
  return result;
}

}  // namespace mcsym::check
