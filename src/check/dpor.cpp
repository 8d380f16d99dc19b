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
/// apply() journals exactly one undo record per action.
struct Frame {
  WakeupTree wut;
  std::vector<ActionFootprint> sleep;
  ActionFootprint chosen;
  bool chosen_internal = false;
  bool started = false;
};

/// Unregisters a CycleStack entry on scope exit (the sleep-set DFS has
/// several early returns between registration and unwind).
struct PopOnExit {
  CycleStack* cs = nullptr;
  std::uint64_t fp = 0;
  ~PopOnExit() {
    if (cs != nullptr) cs->pop(fp);
  }
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

  std::vector<Frame> stack;
  stack.emplace_back();
  // Stateful mode: each frame's registered on-path fingerprint (nullopt for
  // frames cut before registration), parallel to `stack`.
  std::vector<std::optional<std::uint64_t>> frame_fp;
  if (options_.stateful) frame_fp.emplace_back();
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
    if (options_.stateful) {
      if (frame_fp.back()) cycle_stack_.pop(*frame_fp.back());
      frame_fp.pop_back();
    }
    stack.pop_back();
    if (stack.empty()) return;
    Frame& parent = stack.back();
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
  auto schedule = [&](std::size_t k, std::vector<ActionFootprint>&& v) {
    return stack[k].wut.insert(std::move(v), mode);
  };

  while (!stack.empty()) {
    if (applied >= options_.max_transitions ||
        support::over_budget(options_, timer, budget_probe_)) {
      result.truncated = true;
      break;
    }
    const std::size_t top = stack.size() - 1;

    if (!stack[top].started) {
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
        const std::uint64_t fp = sys.fingerprint();
        if (const auto prev = cycle_stack_.find(fp)) {
          // On-path revisit: cut regardless of progress (this is what
          // bounds path length on cyclic programs), and classify — no
          // match recorded between the visits means a realized livelock.
          ++st.state_space.cycles_found;
          if (sys.matches().size() <= prev->progress) {
            ++st.state_space.nonprogressive_cycles;
            if (!result.non_termination_found) {
              result.non_termination_found = true;
              split_lasso(dpor_detail::actions_of(prefix.events), prev->depth,
                          result.lasso_stem, result.lasso_cycle);
            }
          }
          pop_frame();
          continue;
        }
        if (stack[top].sleep.empty()) {
          // Only sleep-free nodes are roots of complete subtrees, so only
          // they are stored; a hit prunes only when no wakeup subtree is
          // scheduled here (reversal sequences must never be discarded).
          if (stack[top].wut.empty()) {
            if (store_.visit(fp)) {
              pop_frame();
              continue;
            }
          } else if (!store_.contains(fp)) {
            store_.insert(fp);
          }
        }
        frame_fp.back() = fp;
        cycle_stack_.push(fp, prefix.events.size(), sys.matches().size());
      }
    }

    if (!stack[top].wut.empty()) {
      // Follow the next scheduled branch: a wakeup sequence, or the
      // initial pick. Descendants keep consuming the detached subtree.
      auto [ev, subtree] = stack[top].wut.pop_first();
      stack[top].started = true;
      bool asleep = false;
      for (const ActionFootprint& q : stack[top].sleep) {
        if (q.action == ev.action) {
          asleep = true;
          break;
        }
      }
      const bool runnable = sys.action_enabled(ev.action);
      if (asleep || !runnable) {
        // Impossible for a faithful optimal construction; counted instead
        // of asserted so tests pin the invariant (redundant == 0).
        ++st.redundant_explorations;
        ++st.executions;
        continue;
      }
      // Recompute the footprint at the actual state so happens-before and
      // race bookkeeping always see exact message identities.
      const ActionFootprint fresh = sys.footprint(ev.action);
      prefix.push(fresh);
      ++applied;
      prefix.scan_races(st, covered, schedule);
      stack[top].chosen = fresh;
      stack[top].chosen_internal = fresh.internal;
      Frame child;
      child.wut = std::move(subtree);
      if (fresh.internal) {
        child.sleep = stack[top].sleep;  // nothing asleep depends on it
      } else {
        for (const ActionFootprint& q : stack[top].sleep) {
          if (!mcapi::dependent(fresh, q, mode)) child.sleep.push_back(q);
        }
      }
      stack.push_back(std::move(child));
      if (options_.stateful) frame_fp.emplace_back();
      continue;
    }

    if (stack[top].started) {
      pop_frame();  // every scheduled branch explored
      continue;
    }

    // Fresh node, nothing scheduled: seed the wakeup tree with the initial
    // pick.
    sys.enabled(enabled);
    const Action* pick =
        dpor_detail::initial_pick(sys, enabled, stack[top].sleep);
    if (pick == nullptr) {
      // Every enabled action is asleep: a sleep-set-blocked maximal path.
      ++st.redundant_explorations;
      ++st.executions;
      stack[top].started = true;
      pop_frame();
      continue;
    }
    stack[top].wut.insert({sys.footprint(*pick)}, mode);
    // The arrival checks (violation/terminal) ran this visit; marking the
    // node started keeps the next iteration from redoing them before the
    // branch executes.
    stack[top].started = true;
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

  PopOnExit pop_guard;
  if (options_.stateful) {
    const std::uint64_t fp = sys.fingerprint();
    if (const auto prev = cycle_stack_.find(fp)) {
      ++result.stats.state_space.cycles_found;
      if (sys.matches().size() <= prev->progress) {
        ++result.stats.state_space.nonprogressive_cycles;
        if (!result.non_termination_found) {
          result.non_termination_found = true;
          split_lasso(script, prev->depth, result.lasso_stem,
                      result.lasso_cycle);
        }
      }
      return;  // cut at any on-path revisit: bounds depth on cyclic programs
    }
    // Same conservative rule as optimal mode: only sleep-free nodes are
    // stored, and only they prune on a hit — a node with a non-empty sleep
    // set deliberately skips behaviors covered elsewhere, so its subtree
    // is not a complete representative of this state's futures.
    if (sleep.empty() && store_.visit(fp)) return;
    cycle_stack_.push(fp, script.size(), sys.matches().size());
    pop_guard.cs = &cycle_stack_;
    pop_guard.fp = fp;
  }

  // Local-first ample set: an internal step is independent of everything
  // and never disabled, so exploring it alone is sound — and the sleep set
  // is unchanged (no sleeping action depends on it).
  for (const Action& a : enabled) {
    if (!is_internal_step(sys, a)) continue;
    const System::Checkpoint here = sys.checkpoint();
    sys.apply(a);
    ++sleepset_applied_;
    script.push_back(a);
    explore_sleepset(sys, sleep, script, result, timer);
    script.pop_back();
    sys.rollback(here);
    return;
  }

  // Sleep-set exploration of the visible actions.
  std::vector<Action> done;
  bool advanced = false;
  for (const Action& a : enabled) {
    if (std::find(sleep.begin(), sleep.end(), a) != sleep.end()) {
      ++result.stats.sleep_prunes;
      continue;
    }
    advanced = true;

    // Child's sleep set: previously slept or already-explored actions that
    // are independent of `a` stay asleep. Computed against the pre-step
    // state, so it precedes the apply.
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
    if (result.truncated || result.violation_found) return;
    done.push_back(a);
  }
  if (!advanced) {
    // Every enabled action was asleep: a sleep-set-blocked maximal path,
    // the redundancy optimal mode eliminates.
    ++result.stats.redundant_explorations;
    ++result.stats.executions;
  }
}

DporResult DporChecker::run() {
  const support::Stopwatch timer;
  DporResult result;
  if (options_.stateful) {
    store_ = VisitedStateStore(options_.state_capacity);
    cycle_stack_.clear();
  }
  if (options_.algorithm == DporMode::kSleepSet) {
    System sys(program_, options_.mode);
    sys.enable_undo_log();
    sleepset_applied_ = 0;
    std::vector<Action> sleep;
    std::vector<Action> script;
    explore_sleepset(sys, sleep, script, result, timer);
  } else if (options_.workers > 1 && !options_.stateful) {
    // Stateful exploration shares one store and one cycle stack across the
    // whole search; it runs the serial optimal path regardless of workers.
    run_parallel(result, timer);
  } else {
    run_optimal(result, timer);
  }
  if (options_.stateful) {
    result.stats.state_space.visited_states = store_.inserts();
    result.stats.state_space.state_hits = store_.hits();
    result.stats.state_space.states_dropped = store_.dropped();
  }
  result.seconds = timer.seconds();
  return result;
}

}  // namespace mcsym::check
