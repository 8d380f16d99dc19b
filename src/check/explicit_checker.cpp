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
  if (!options_.collect_matchings) return true;

  if (reference != nullptr) {
    // Keep only executions that followed the reference trace's control flow
    // (the paper's problems are per-trace: same branch outcomes).
    std::vector<mcapi::BranchRecord> ref_branches;
    for (std::size_t i = 0; i < reference->size(); ++i) {
      const auto& ev = reference->event(static_cast<trace::EventIndex>(i)).ev;
      // Polls (mcapi_test) are control outcomes too: the System records them
      // as branch records, so the reference set must include them.
      if (ev.kind == mcapi::ExecEvent::Kind::kBranch ||
          ev.kind == mcapi::ExecEvent::Kind::kTest) {
        ref_branches.push_back({ev.thread, ev.op_index, ev.outcome});
      }
      // wait_any: one "skipped" record per request listed before the winner
      // plus the winner's — mirroring System::step_thread exactly.
      if (ev.kind == mcapi::ExecEvent::Kind::kWaitAny) {
        for (std::size_t k = 0; k < ev.loser_issue_ops.size(); ++k) {
          ref_branches.push_back({ev.thread, ev.op_index, false});
        }
        ref_branches.push_back({ev.thread, ev.op_index, true});
      }
    }
    std::vector<mcapi::BranchRecord> got = state.branches();
    std::sort(got.begin(), got.end());
    std::sort(ref_branches.begin(), ref_branches.end());
    if (got != ref_branches) return true;  // different path: out of scope

    // Convert to trace event indices via static operation identity (per-run
    // uids are issue ordinals and differ across interleavings).
    match::Matching m;
    bool ok = true;
    for (const mcapi::MatchRecord& r : state.matches()) {
      const trace::EventIndex recv = reference->find(r.thread, r.recv_op_index);
      const trace::EventIndex send =
          reference->find(r.send_thread, r.send_op_index);
      if (recv == trace::kNoEvent || send == trace::kNoEvent) {
        ok = false;
        break;
      }
      m.emplace_back(recv, send);
    }
    if (ok) {
      std::sort(m.begin(), m.end());
      result.matchings.insert(std::move(m));
    }
  } else {
    std::vector<mcapi::MatchRecord> m = state.matches();
    std::sort(m.begin(), m.end());
    result.raw_matchings.insert(std::move(m));
  }
  return result.matchings.size() < options_.max_matchings &&
         result.raw_matchings.size() < options_.max_matchings;
}

void ExplicitChecker::dfs(System& sys, std::vector<Action>& script,
                          ExplicitResult& result, const trace::Trace* reference) {
  if (result.truncated) return;
  if (result.violation_found && !options_.collect_matchings) return;
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
    bool pruned = false;
    bool registered = false;
    std::uint64_t fp = 0;
    if (options_.stateful && !options_.collect_matchings) {
      fp = sys.fingerprint();
      if (const auto prev = cycle_stack_.find(fp)) {
        // An on-stack revisit closes a cycle. Descent stops here no matter
        // what (cutting on ANY on-stack repeat is what bounds path length
        // even when the store evicts); classification is what's new: a
        // cycle with no message matched between the visits is a realized
        // livelock and its lasso becomes the non-termination witness.
        ++result.state_space.cycles_found;
        if (sys.matches().size() <= prev->progress) {
          ++result.state_space.nonprogressive_cycles;
          if (!result.non_termination_found) {
            result.non_termination_found = true;
            script.push_back(a);
            split_lasso(script, prev->depth, result.lasso_stem,
                        result.lasso_cycle);
            script.pop_back();
          }
        }
        pruned = true;
      } else if (store_.visit(fp)) {
        ++result.state_space.state_hits;
        pruned = true;
      } else {
        cycle_stack_.push(fp, script.size() + 1, sys.matches().size());
        registered = true;
      }
    } else if (!options_.collect_matchings) {
      pruned = !visited_.insert(sys.fingerprint()).second;
    } else if (options_.dedup_histories) {
      // The history fingerprint covers match/branch records, so identical
      // keys have identical suffix enumerations — pruning stays exact.
      pruned = !visited_histories_.insert(sys.history_fingerprint()).second;
    }
    if (!pruned) {
      script.push_back(a);
      dfs(sys, script, result, reference);
      script.pop_back();
    }
    if (registered) cycle_stack_.pop(fp);
    sys.rollback(here);
    if (result.truncated) return;
    if (result.violation_found && !options_.collect_matchings) return;
  }
}

ExplicitResult ExplicitChecker::run() {
  const support::Stopwatch timer;
  timer_ = &timer;
  ExplicitResult result;
  visited_.clear();
  visited_histories_.clear();
  System sys(program_, options_.mode);
  sys.enable_undo_log();
  if (options_.collect_matchings) {
    if (options_.dedup_histories) visited_histories_.insert(sys.history_fingerprint());
  } else if (options_.stateful) {
    store_ = VisitedStateStore(options_.state_capacity);
    cycle_stack_.clear();
    const std::uint64_t root = sys.fingerprint();
    store_.insert(root);
    cycle_stack_.push(root, 0, 0);
  } else {
    visited_.insert(sys.fingerprint());
  }
  std::vector<Action> script;
  dfs(sys, script, result, nullptr);
  if (options_.stateful && !options_.collect_matchings) {
    result.state_space.visited_states = store_.inserts();
    result.state_space.states_dropped = store_.dropped();
  }
  result.seconds = timer.seconds();
  timer_ = nullptr;
  return result;
}

ExplicitResult ExplicitChecker::enumerate_against(const trace::Trace& reference) {
  const support::Stopwatch timer;
  timer_ = &timer;
  const bool saved = options_.collect_matchings;
  options_.collect_matchings = true;
  ExplicitResult result;
  visited_.clear();
  visited_histories_.clear();
  System sys(program_, options_.mode);
  sys.enable_undo_log();
  if (options_.dedup_histories) visited_histories_.insert(sys.history_fingerprint());
  std::vector<Action> script;
  dfs(sys, script, result, &reference);
  options_.collect_matchings = saved;
  result.seconds = timer.seconds();
  timer_ = nullptr;
  return result;
}

}  // namespace mcsym::check
