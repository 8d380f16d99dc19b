#include "check/dpor.hpp"

#include <algorithm>
#include <utility>

#include "check/dpor_internal.hpp"
#include "support/assert.hpp"

namespace mcsym::check {

using mcapi::Action;
using mcapi::ActionFootprint;
using mcapi::System;

DporChecker::DporChecker(const mcapi::Program& program, DporOptions options)
    : program_(program), options_(options) {}

bool DporChecker::independent(const System& state, const Action& a,
                              const Action& b) const {
  if (a == b) return false;
  return !mcapi::dependent(state.footprint(a), state.footprint(b),
                           options_.mode);
}

namespace {

using dpor_detail::is_internal_step;
using dpor_detail::kNpos;
using dpor_detail::WakeupTree;
using dpor_detail::weak_initial_pos;

/// One node of the exploration stack: reduction bookkeeping only — the
/// revisit sequences still scheduled here and the sibling actions whose
/// subtrees were already explored (asleep until woken by a dependent
/// step). The state itself lives in the single journaling System the
/// search walks up and down; a frame's checkpoint is its depth, since
/// apply() journals exactly one undo record per action. Frames are reused
/// in place: a push clears `wut` and `sleep` and keeps their capacity.
struct Frame {
  WakeupTree wut;
  std::vector<ActionFootprint> sleep;
  ActionFootprint chosen;
  bool chosen_internal = false;
  bool started = false;
  bool on_path = false;  // stateful mode: entered the StatefulSearch path
};

}  // namespace

void DporChecker::run_optimal(DporResult& result,
                              const support::Stopwatch& timer) {
  const mcapi::DeliveryMode mode = options_.mode;
  DporStats& st = result.stats;

  // The executed prefix and its live System: applied forward when a branch
  // is taken, undone when a frame pops or a race check rewinds.
  dpor_detail::Prefix prefix(program_, mode);
  System& sys = prefix.sys;

  // stack[0, depth) are the live frames. The frames above stay allocated
  // for reuse, so a pop only lowers `depth`.
  std::vector<Frame> stack(1);
  std::size_t depth = 1;
  std::vector<Action> enabled;
  // Raw apply count for the budget check only. The reported
  // stats.transitions is charged arrival-edge-exact — each execution's full
  // path length at the moment it completes — which is invariant across
  // exploration order (see DporStats::transitions).
  std::uint64_t applied = 0;

  // Pops the completed top frame, undoing its arrival action so the live
  // System is back at the parent's state; the parent's chosen action falls
  // asleep for the parent's remaining branches.
  auto pop_frame = [&] {
    if (options_.stateful && std::exchange(stack[depth - 1].on_path, false)) {
      search_.leave();
    }
    if (--depth == 0) return;
    Frame& parent = stack[depth - 1];
    prefix.pop();
    if (!parent.chosen_internal) parent.sleep.push_back(parent.chosen);
  };

  // A race with the event at depth k is covered by the siblings asleep at
  // frame k (q is a weak initial of v: the q-subtree explored v's trace),
  // and its reversal is scheduled in frame k's wakeup tree.
  auto covered = [&](std::size_t k, const std::vector<ActionFootprint>& v) {
    for (const ActionFootprint& q : stack[k].sleep) {
      if (weak_initial_pos(q.action, v, mode) != kNpos) return true;
    }
    return false;
  };
  auto schedule = [&](std::size_t k, std::vector<ActionFootprint>& v) {
    return stack[k].wut.insert(v, mode);
  };

  // Executes `a` at the top frame and makes the child frame live. The
  // child's wakeup tree already holds what is scheduled below `a`.
  auto take = [&](Frame& frame, Frame& child, const Action& a) {
    // Recompute the footprint at the actual state so happens-before and
    // race bookkeeping always see exact message identities.
    frame.chosen = sys.footprint(a);
    frame.chosen_internal = frame.chosen.internal;
    prefix.push(frame.chosen);
    ++applied;
    prefix.scan_races(st, covered, schedule);
    if (frame.chosen_internal) {
      child.sleep = frame.sleep;  // nothing asleep depends on it
    } else {
      child.sleep.clear();
      for (const ActionFootprint& q : frame.sleep) {
        if (!mcapi::dependent(frame.chosen, q, mode)) child.sleep.push_back(q);
      }
    }
    child.started = false;
    ++depth;
  };

  while (depth > 0) {
    if (applied >= options_.max_transitions ||
        support::over_budget(options_, timer, budget_probe_)) {
      result.truncated = true;
      break;
    }
    // The child slot exists before any reference into `stack` is taken:
    // growing the stack moves every frame.
    if (stack.size() == depth) stack.emplace_back();
    Frame& frame = stack[depth - 1];
    Frame& child = stack[depth];

    const bool fresh = !frame.started;
    if (fresh) {
      // Arrival checks, once per visit of a node.
      frame.started = true;
      if (sys.has_violation()) {
        result.violation_found = true;
        result.violation = sys.violation();
        result.counterexample = dpor_detail::actions_of(prefix.events);
        ++st.executions;
        st.transitions += prefix.events.size();
        break;
      }
      sys.enabled(enabled);
      if (enabled.empty()) {
        ++st.executions;
        st.transitions += prefix.events.size();
        if (sys.all_halted()) {
          ++st.terminal_states;
        } else {
          result.deadlock_found = true;
          if (result.deadlock_schedule.empty()) {
            result.deadlock_schedule = dpor_detail::actions_of(prefix.events);
          }
        }
        pop_frame();
        continue;
      }
      if (options_.stateful) {
        // Only sleep-free nodes are stored; a hit prunes only when no
        // wakeup subtree is scheduled here.
        using Store = StatefulSearch::Store;
        const Store store = !frame.sleep.empty() ? Store::kSkip
                            : frame.wut.empty()  ? Store::kPrune
                                                 : Store::kRecord;
        if (!search_.enter(sys, prefix.events.size(), store, result, [&] {
              return dpor_detail::actions_of(prefix.events);
            })) {
          pop_frame();
          continue;
        }
        frame.on_path = true;
      }
    }

    if (!frame.wut.empty()) {
      // Follow the next scheduled branch; its subtree becomes the child's
      // wakeup tree, which descendants keep consuming.
      const Action a = frame.wut.pop_first(child.wut);
      bool asleep = false;
      for (const ActionFootprint& q : frame.sleep) {
        if (q.action == a) {
          asleep = true;
          break;
        }
      }
      if (asleep || !sys.action_enabled(a)) {
        // Impossible for a faithful optimal construction; counted instead
        // of asserted so tests pin the invariant (redundant == 0).
        ++st.redundant_explorations;
        ++st.executions;
        continue;
      }
      take(frame, child, a);
      continue;
    }

    if (!fresh) {
      pop_frame();  // every scheduled branch explored
      continue;
    }

    // Fresh node, nothing scheduled: take the initial pick, out of the
    // actions the arrival check just enabled, with nothing below it.
    const Action* pick = dpor_detail::initial_pick(sys, enabled, frame.sleep);
    if (pick == nullptr) {
      // Every enabled action is asleep: a sleep-set-blocked maximal path.
      ++st.redundant_explorations;
      ++st.executions;
      pop_frame();
      continue;
    }
    child.wut.clear();
    take(frame, child, *pick);
  }
}

void DporChecker::explore_sleepset(System& sys, std::vector<Action>& sleep,
                                   std::vector<Action>& script,
                                   DporResult& result,
                                   const support::Stopwatch& timer) {
  if (result.truncated || result.violation_found) return;
  if (sleepset_applied_ >= options_.max_transitions ||
      support::over_budget(options_, timer, budget_probe_)) {
    result.truncated = true;
    return;
  }

  if (sys.has_violation()) {
    result.violation_found = true;
    result.violation = sys.violation();
    result.counterexample = script;
    ++result.stats.executions;
    result.stats.transitions += script.size();
    return;
  }

  std::vector<Action> enabled;
  sys.enabled(enabled);
  if (enabled.empty()) {
    ++result.stats.executions;
    result.stats.transitions += script.size();
    if (sys.all_halted()) {
      ++result.stats.terminal_states;
    } else {
      result.deadlock_found = true;
      if (result.deadlock_schedule.empty()) result.deadlock_schedule = script;
    }
    return;
  }

  if (options_.stateful &&
      !search_.enter(sys,
                     sleep.empty() ? StatefulSearch::Store::kPrune
                                   : StatefulSearch::Store::kSkip,
                     result, script)) {
    return;
  }

  // Local-first ample set: an internal step is independent of everything
  // and never disabled, so exploring it alone is sound — and the sleep set
  // is unchanged (no sleeping action depends on it).
  const auto internal =
      std::find_if(enabled.begin(), enabled.end(),
                   [&](const Action& a) { return is_internal_step(sys, a); });
  if (internal != enabled.end()) {
    const System::Checkpoint here = sys.checkpoint();
    sys.apply(*internal);
    ++sleepset_applied_;
    script.push_back(*internal);
    explore_sleepset(sys, sleep, script, result, timer);
    script.pop_back();
    sys.rollback(here);
  } else {
    // Sleep-set exploration of the visible actions.
    std::vector<Action> done;
    bool advanced = false;
    for (const Action& a : enabled) {
      if (std::find(sleep.begin(), sleep.end(), a) != sleep.end()) {
        ++result.stats.sleep_prunes;
        continue;
      }
      advanced = true;

      // Child's sleep set: previously slept or already-explored actions
      // that are independent of `a` stay asleep. Computed against the
      // pre-step state, so it precedes the apply.
      std::vector<Action> child_sleep;
      for (const Action& b : sleep) {
        if (independent(sys, a, b)) child_sleep.push_back(b);
      }
      for (const Action& b : done) {
        if (independent(sys, a, b)) child_sleep.push_back(b);
      }

      const System::Checkpoint here = sys.checkpoint();
      sys.apply(a);
      ++sleepset_applied_;
      script.push_back(a);
      explore_sleepset(sys, child_sleep, script, result, timer);
      script.pop_back();
      sys.rollback(here);
      if (result.truncated || result.violation_found) break;
      done.push_back(a);
    }
    if (!advanced) {
      // Every enabled action was asleep: a sleep-set-blocked maximal path,
      // the redundancy optimal mode eliminates.
      ++result.stats.redundant_explorations;
      ++result.stats.executions;
    }
  }
  if (options_.stateful) search_.leave();
}

DporResult DporChecker::run() {
  const support::Stopwatch timer;
  DporResult result;
  if (options_.stateful) search_ = StatefulSearch(options_.state_capacity);
  if (options_.algorithm == DporMode::kSleepSet) {
    System sys(program_, options_.mode);
    sys.enable_undo_log();
    sleepset_applied_ = 0;
    std::vector<Action> sleep;
    std::vector<Action> script;
    explore_sleepset(sys, sleep, script, result, timer);
  } else {
    run_optimal(result, timer);
  }
  if (options_.stateful) result.stats.state_space = search_.stats();
  result.seconds = timer.seconds();
  return result;
}

}  // namespace mcsym::check
