#include "check/witness_replay.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "support/assert.hpp"

namespace mcsym::check {

using mcapi::Action;
using mcapi::ExecEvent;
using mcapi::System;
using trace::EventIndex;

namespace {

struct TimelineItem {
  std::int64_t time;
  int priority;  // at equal times: binds (0) before thread events (1)
  bool is_bind;
  EventIndex event;  // comm event, or the receive anchor for binds
};

class Replayer {
 public:
  Replayer(const trace::Trace& trace, const encode::Witness& witness,
           System& system, ReplayOptions options)
      : trace_(trace), witness_(witness), system_(system), options_(options) {}

  std::optional<ReplayedWitness> run() {
    build_timeline();
    const bool cont = options_.continue_past_violation;
    for (const TimelineItem& item : timeline_) {
      // A fired assertion is terminal in the runtime, while the model keeps
      // valuing the rest of the execution; once the violation the witness
      // promises is concrete, the remaining schedule is moot — unless the
      // caller asked for the whole execution (continue_past_violation).
      if (!cont && system_.has_violation()) break;
      if (item.is_bind ? !process_bind(item.event) : !process_event(item.event)) {
        // Post-violation the system enables nothing, so a stalled item is
        // the expected end of the run, not a divergence.
        if (!cont && system_.has_violation()) break;
        return std::nullopt;
      }
    }
    drain_internal();
    if (!verify()) return std::nullopt;
    ReplayedWitness out;
    out.script = std::move(script_);
    out.violation = system_.has_violation();
    out.violations = system_.violations();
    return out;
  }

 private:
  void build_timeline() {
    std::map<EventIndex, std::int64_t> bind_of;
    for (const auto& [r, t] : witness_.bind_values) bind_of[r] = t;
    for (const auto& [ev, clk] : witness_.clock_values) {
      timeline_.push_back(TimelineItem{clk, 1, false, ev});
      // Non-blocking anchors get a separate bind item; blocking receives
      // bind at their own clock (the receive event handles delivery).
      if (trace_.event(ev).ev.kind == ExecEvent::Kind::kRecvIssue) {
        const auto it = bind_of.find(ev);
        if (it != bind_of.end()) {
          timeline_.push_back(TimelineItem{it->second, 0, true, ev});
        }
      }
    }
    std::stable_sort(timeline_.begin(), timeline_.end(),
                     [](const TimelineItem& a, const TimelineItem& b) {
                       if (a.time != b.time) return a.time < b.time;
                       return a.priority < b.priority;
                     });
  }

  [[nodiscard]] EventIndex matched_send(EventIndex recv) const {
    for (const auto& [r, s] : witness_.matching) {
      if (r == recv) return s;
    }
    return trace::kNoEvent;
  }

  bool apply(const Action& a) {
    if (!system_.action_enabled(a)) return false;
    system_.apply(a);
    script_.push_back(a);
    return true;
  }

  /// Steps `t` through (internal) instructions until its dynamic op counter
  /// reaches `op_index`, then returns with the target instruction pending.
  bool step_to(mcapi::ThreadRef t, std::uint32_t op_index) {
    while (system_.op_count(t) < op_index) {
      if (!apply(Action{Action::Kind::kThreadStep, t, {}})) return false;
    }
    return system_.op_count(t) == op_index;
  }

  bool deliver_for(EventIndex recv) {
    const EventIndex send = matched_send(recv);
    if (send == trace::kNoEvent) return false;
    const ExecEvent& se = trace_.event(send).ev;
    Action a;
    a.kind = Action::Kind::kDeliver;
    a.channel = mcapi::ChannelId{se.src, se.dst};
    return apply(a);
  }

  bool process_bind(EventIndex anchor) {
    // Deliver the matched message now; the runtime binds it to the oldest
    // pending request, which the completion-order constraints guarantee is
    // exactly this anchor.
    return deliver_for(anchor);
  }

  bool process_event(EventIndex ev_idx) {
    const ExecEvent& ev = trace_.event(ev_idx).ev;
    if (!step_to(ev.thread, ev.op_index)) return false;
    if (ev.kind == ExecEvent::Kind::kRecv) {
      // Blocking receive: its message arrives exactly now.
      if (!deliver_for(ev_idx)) return false;
    }
    return apply(Action{Action::Kind::kThreadStep, ev.thread, {}});
  }

  void drain_internal() {
    // All communication is processed; only trailing local ops within the
    // traced prefix remain. Each thread stops at its traced op horizon: on
    // a violation trace the run stopped mid-program, and ops beyond the
    // recorded prefix (an unissued recv_i, an unpolled test) are outside
    // the modeled execution — stepping them would manufacture control
    // records the trace never saw.
    std::vector<std::uint32_t> horizon(system_.program().num_threads(), 0);
    for (std::size_t i = 0; i < trace_.size(); ++i) {
      const ExecEvent& e = trace_.event(static_cast<EventIndex>(i)).ev;
      horizon[e.thread] = std::max(horizon[e.thread], e.op_index + 1);
    }
    bool progressed = true;
    while (progressed &&
           (options_.continue_past_violation || !system_.has_violation())) {
      progressed = false;
      std::vector<Action> enabled;
      system_.enabled(enabled);
      for (const Action& a : enabled) {
        if (a.kind != Action::Kind::kThreadStep) continue;
        if (system_.op_count(a.thread) >= horizon[a.thread]) continue;
        system_.apply(a);
        script_.push_back(a);
        progressed = true;
        break;
      }
    }
  }

  bool verify() const {
    // The replay's matching must be exactly the witness's — except when a
    // violation ended the run early: the runtime stops at the first failed
    // assertion while the model values the whole execution, so only the
    // realized prefix can be compared (it must be a sub-multiset of what
    // the witness promised). Continue-past-violation replays realize the
    // whole execution, so they are always held to exact equality.
    const bool prefix_only =
        system_.has_violation() && !options_.continue_past_violation;
    std::set<std::tuple<mcapi::ThreadRef, std::uint32_t, mcapi::ThreadRef,
                        std::uint32_t>>
        got;
    for (const mcapi::MatchRecord& m : system_.matches()) {
      got.emplace(m.thread, m.recv_op_index, m.send_thread, m.send_op_index);
    }
    std::set<std::tuple<mcapi::ThreadRef, std::uint32_t, mcapi::ThreadRef,
                        std::uint32_t>>
        want;
    for (const auto& [r, s] : witness_.matching) {
      const ExecEvent& re = trace_.event(r).ev;
      const ExecEvent& se = trace_.event(s).ev;
      want.emplace(re.thread, re.op_index, se.thread, se.op_index);
    }
    const bool match_ok =
        prefix_only
            ? std::includes(want.begin(), want.end(), got.begin(), got.end())
            : got == want;
    if (!match_ok) return false;

    // Control flow must match the trace too: the problem quantifies only
    // over executions with the traced branch, poll, and wait_any outcomes.
    // Multisets, not sets: a wait_any contributes one "skipped" record per
    // request scanned before the winner, all under one op_index.
    std::multiset<std::tuple<mcapi::ThreadRef, std::uint32_t, bool>> got_flow;
    for (const mcapi::BranchRecord& b : system_.branches()) {
      got_flow.emplace(b.thread, b.op_index, b.taken);
    }
    std::multiset<std::tuple<mcapi::ThreadRef, std::uint32_t, bool>> want_flow;
    for (std::size_t i = 0; i < trace_.size(); ++i) {
      const ExecEvent& e = trace_.event(static_cast<EventIndex>(i)).ev;
      if (e.kind == ExecEvent::Kind::kBranch ||
          e.kind == ExecEvent::Kind::kTest) {
        want_flow.emplace(e.thread, e.op_index, e.outcome);
      }
      if (e.kind == ExecEvent::Kind::kWaitAny) {
        for (std::size_t k = 0; k < e.loser_issue_ops.size(); ++k) {
          want_flow.emplace(e.thread, e.op_index, false);
        }
        want_flow.emplace(e.thread, e.op_index, true);
      }
    }
    const bool flow_ok = prefix_only
                             ? std::includes(want_flow.begin(), want_flow.end(),
                                             got_flow.begin(), got_flow.end())
                             : got_flow == want_flow;
    return flow_ok;
  }

  const trace::Trace& trace_;
  const encode::Witness& witness_;
  System& system_;
  ReplayOptions options_;
  std::vector<TimelineItem> timeline_;
  std::vector<Action> script_;
};

}  // namespace

std::optional<ReplayedWitness> schedule_from_witness(
    const mcapi::Program& program, const trace::Trace& trace,
    const encode::Witness& witness, ReplayOptions options) {
  System system(program);
  system.set_continue_past_violation(options.continue_past_violation);
  return Replayer(trace, witness, system, options).run();
}

std::optional<ReplayedWitness> schedule_from_witness(
    mcapi::System& workspace, const trace::Trace& trace,
    const encode::Witness& witness, ReplayOptions options) {
  MCSYM_ASSERT_MSG(workspace.undo_log_enabled(),
                   "witness replay workspace needs enable_undo_log()");
  workspace.rollback(0);
  const bool saved = workspace.continue_past_violation();
  workspace.set_continue_past_violation(options.continue_past_violation);
  const auto out = Replayer(trace, witness, workspace, options).run();
  workspace.set_continue_past_violation(saved);
  return out;
}

}  // namespace mcsym::check
