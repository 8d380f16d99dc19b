#include "trace/trace.hpp"

#include <algorithm>
#include <sstream>

#include "support/assert.hpp"

namespace mcsym::trace {

using mcapi::ExecEvent;

void Trace::append(const ExecEvent& ev) {
  const EventIndex idx = static_cast<EventIndex>(events_.size());
  TraceEvent te;
  te.ev = ev;
  te.index = idx;
  if (per_thread_.size() <= ev.thread) per_thread_.resize(ev.thread + 1);
  per_thread_[ev.thread].push_back(idx);

  switch (ev.kind) {
    case ExecEvent::Kind::kSend:
      sends_.push_back(idx);
      break;
    case ExecEvent::Kind::kRecv:
      receives_.push_back(idx);
      break;
    case ExecEvent::Kind::kRecvIssue:
      receives_.push_back(idx);
      break;
    case ExecEvent::Kind::kWait: {
      // Link wait <-> issue through (thread, issue_op_index).
      const EventIndex issue = find(ev.thread, ev.issue_op_index);
      MCSYM_ASSERT_MSG(issue != kNoEvent, "wait without recorded recv_i");
      te.issue_event = issue;
      events_[issue].wait_event = idx;
      break;
    }
    case ExecEvent::Kind::kTest: {
      // Polls link back to the request's recv_i but leave wait_event alone.
      const EventIndex issue = find(ev.thread, ev.issue_op_index);
      MCSYM_ASSERT_MSG(issue != kNoEvent, "test without recorded recv_i");
      te.issue_event = issue;
      break;
    }
    case ExecEvent::Kind::kWaitAny: {
      // The winner's completion anchor is this event, like a plain wait.
      const EventIndex issue = find(ev.thread, ev.issue_op_index);
      MCSYM_ASSERT_MSG(issue != kNoEvent, "wait_any without recorded recv_i");
      te.issue_event = issue;
      events_[issue].wait_event = idx;
      break;
    }
    default:
      break;
  }
  events_.push_back(te);
}

EventIndex Trace::completion_of(EventIndex recv) const {
  const TraceEvent& te = events_[recv];
  if (te.ev.kind == ExecEvent::Kind::kRecv) return recv;
  MCSYM_ASSERT(te.ev.kind == ExecEvent::Kind::kRecvIssue);
  MCSYM_ASSERT_MSG(te.wait_event != kNoEvent,
                   "non-blocking receive has no wait in this trace");
  return te.wait_event;
}

EventIndex Trace::find(mcapi::ThreadRef t, std::uint32_t op_index) const {
  if (t >= per_thread_.size()) return kNoEvent;
  for (const EventIndex i : per_thread_[t]) {
    if (events_[i].ev.op_index == op_index) return i;
  }
  return kNoEvent;
}

std::optional<std::string> Trace::validate() const {
  for (std::size_t t = 0; t < per_thread_.size(); ++t) {
    std::int64_t last_op = -1;
    for (const EventIndex i : per_thread_[t]) {
      const TraceEvent& te = events_[i];
      if (te.ev.thread != t) return "event filed under wrong thread";
      if (static_cast<std::int64_t>(te.ev.op_index) <= last_op) {
        return "per-thread op_index not strictly increasing";
      }
      last_op = te.ev.op_index;
      switch (te.ev.kind) {
        case ExecEvent::Kind::kRecv:
        case ExecEvent::Kind::kRecvIssue:
          if (te.ev.dst >= program_->num_endpoints()) return "recv: bad endpoint";
          if (program_->endpoint(te.ev.dst).owner != t) {
            return "recv endpoint not owned by receiving thread";
          }
          break;
        case ExecEvent::Kind::kSend:
          if (te.ev.src >= program_->num_endpoints() ||
              te.ev.dst >= program_->num_endpoints()) {
            return "send: bad endpoint";
          }
          break;
        case ExecEvent::Kind::kWait:
          if (te.issue_event == kNoEvent) return "wait without linked issue";
          break;
        case ExecEvent::Kind::kTest:
          if (te.issue_event == kNoEvent) return "test without linked issue";
          break;
        case ExecEvent::Kind::kWaitAny:
          if (te.issue_event == kNoEvent) return "wait_any without linked issue";
          break;
        default:
          break;
      }
    }
  }
  for (const EventIndex r : receives_) {
    const TraceEvent& te = events_[r];
    if (te.ev.kind == ExecEvent::Kind::kRecvIssue && te.wait_event == kNoEvent) {
      return "non-blocking receive never waited on";
    }
  }
  return std::nullopt;
}

std::vector<mcapi::BranchRecord> control_outcomes(const Trace& trace) {
  std::vector<mcapi::BranchRecord> out;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const ExecEvent& e = trace.event(static_cast<EventIndex>(i)).ev;
    if (e.kind == ExecEvent::Kind::kBranch || e.kind == ExecEvent::Kind::kTest) {
      out.push_back({e.thread, e.op_index, e.outcome});
    }
    if (e.kind == ExecEvent::Kind::kWaitAny) {
      for (std::size_t k = 0; k < e.loser_issue_ops.size(); ++k) {
        out.push_back({e.thread, e.op_index, false});
      }
      out.push_back({e.thread, e.op_index, true});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<std::vector<std::pair<EventIndex, EventIndex>>> matching_of(
    const Trace& trace, const std::vector<mcapi::MatchRecord>& records) {
  std::vector<std::pair<EventIndex, EventIndex>> out;
  out.reserve(records.size());
  for (const mcapi::MatchRecord& r : records) {
    const EventIndex recv = trace.find(r.thread, r.recv_op_index);
    const EventIndex send = trace.find(r.send_thread, r.send_op_index);
    if (recv == kNoEvent || send == kNoEvent) return std::nullopt;
    out.emplace_back(recv, send);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace mcsym::trace
