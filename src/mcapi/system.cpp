#include "mcapi/system.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace mcsym::mcapi {

std::string Action::str(const Program& p) const {
  if (kind == Kind::kThreadStep) {
    return "step(" + p.thread(thread).name + ")";
  }
  return "deliver(" + p.endpoint(channel.src).name + "->" +
         p.endpoint(channel.dst).name + ")";
}

System::System(const Program& program, DeliveryMode mode)
    : program_(&program), mode_(mode) {
  MCSYM_ASSERT_MSG(program.finalized(), "finalize the program before running it");
  threads_.resize(program.num_threads());
  endpoints_.resize(program.num_endpoints());
  for (std::size_t t = 0; t < threads_.size(); ++t) {
    const Program::Thread& pt = program.thread(static_cast<ThreadRef>(t));
    threads_[t].locals.assign(pt.num_slots, 0);
    threads_[t].requests.resize(pt.num_requests);
    threads_[t].halted = pt.code.empty();
  }
}

bool System::thread_can_step(ThreadRef t) const {
  const ThreadState& ts = threads_[t];
  if (ts.halted || (violation_.has_value() && !continue_past_violation_)) {
    return false;
  }
  const Instr& i = program_->thread(t).code[ts.pc];
  switch (i.kind) {
    case OpKind::kRecv:
      return !endpoints_[i.dst].queue.empty();
    case OpKind::kWait:
      return ts.requests[i.req].state == ReqState::kBound;
    // Request misuse blocks the thread, as a wait on a request that was
    // never issued always has: re-issuing a request still in flight,
    // testing one never issued, or a wait_any that meets a request not in
    // flight before the first completed one (the one it would take).
    case OpKind::kRecvNb: {
      const ReqState s = ts.requests[i.req].state;
      return s == ReqState::kUnused || s == ReqState::kConsumed;
    }
    case OpKind::kTest:
      return ts.requests[i.req].state != ReqState::kUnused;
    case OpKind::kWaitAny:
      for (const std::uint32_t r : i.reqs) {
        const ReqState s = ts.requests[r].state;
        if (s != ReqState::kPending) return s == ReqState::kBound;
      }
      return false;
    default:
      return true;
  }
}

SendUid System::oldest_in_transit_uid() const {
  SendUid best = 0;
  for (const auto& [channel, queue] : transit_) {
    if (!queue.empty() && (best == 0 || queue.front().uid < best)) {
      best = queue.front().uid;
    }
  }
  return best;
}

ActionFootprint System::footprint(const Action& action) const {
  ActionFootprint f;
  f.action = action;
  if (action.kind == Action::Kind::kDeliver) {
    f.channel = action.channel;
    f.endpoint = action.channel.dst;
    const auto it = std::find_if(transit_.begin(), transit_.end(),
                                 [&](const auto& e) { return e.first == action.channel; });
    if (it != transit_.end() && !it->second.empty()) {
      const Message& m = it->second.front();
      f.has_message = true;
      f.message_thread = m.sender;
      f.message_op = m.send_op;
    }
    return f;
  }

  const ThreadState& ts = threads_[action.thread];
  if (ts.halted) {
    f.internal = true;
    return f;
  }
  f.op_index = ts.op_count;
  const Instr& i = program_->thread(action.thread).code[ts.pc];
  f.op = i.kind;
  auto note_request = [&f](const Request& r) {
    if (r.state == ReqState::kBound || r.state == ReqState::kConsumed) {
      f.has_message = true;
      f.message_thread = r.send_thread;
      f.message_op = r.send_op_index;
    } else if (r.state == ReqState::kPending) {
      f.observed_pending.push_back(r.ep);
    }
  };
  switch (i.kind) {
    case OpKind::kSend:
      f.channel = ChannelId{i.src, i.dst};
      break;
    case OpKind::kRecv:
    case OpKind::kRecvNb: {
      f.endpoint = i.dst;
      const EndpointState& ep = endpoints_[i.dst];
      if (!ep.queue.empty()) {  // the message this step will pop and bind
        f.has_message = true;
        f.message_thread = ep.queue.front().sender;
        f.message_op = ep.queue.front().send_op;
      }
      break;
    }
    case OpKind::kWait:
    case OpKind::kTest:
      note_request(ts.requests[i.req]);
      break;
    case OpKind::kWaitAny:
      // Mirror the runtime's scan: requests before the first bound one are
      // observed pending; the winner's binding is consumed; later entries
      // are never looked at.
      for (const std::uint32_t r : i.reqs) {
        const bool bound = ts.requests[r].state == ReqState::kBound;
        note_request(ts.requests[r]);
        if (bound) break;
      }
      break;
    case OpKind::kAssign:
    case OpKind::kJmp:
    case OpKind::kJmpIf:
    case OpKind::kAssert:
    case OpKind::kNop:
      f.internal = true;
      break;
  }
  return f;
}

bool dependent(const ActionFootprint& a, const ActionFootprint& b,
               DeliveryMode mode) {
  if (a.action == b.action) return true;  // one process: totally ordered
  const bool a_step = a.action.kind == Action::Kind::kThreadStep;
  const bool b_step = b.action.kind == Action::Kind::kThreadStep;
  if (a_step && b_step && a.action.thread == b.action.thread) return true;

  if (!a_step && !b_step) {
    // Deliveries into one endpoint queue compete for arrival order; under
    // global FIFO every delivery is ordered by the global send order.
    return a.channel.dst == b.channel.dst || mode == DeliveryMode::kGlobalFifo;
  }

  // The send -> deliver -> receive chain of one message: its producer, its
  // delivery, and its consumer never commute (and form its causal spine).
  const auto moves = [](const ActionFootprint& x, ThreadRef t, std::uint32_t op) {
    return x.has_message && x.message_thread == t && x.message_op == op;
  };
  if (a_step && a.op == OpKind::kSend && moves(b, a.action.thread, a.op_index)) return true;
  if (b_step && b.op == OpKind::kSend && moves(a, b.action.thread, b.op_index)) return true;
  if (a.has_message && b.has_message && a.message_thread == b.message_thread &&
      a.message_op == b.message_op) {
    return true;
  }

  if (a_step && b_step) {
    // Distinct threads touch distinct locals, request slots, and endpoint
    // queues; only the global-FIFO send order makes sends interfere.
    return mode == DeliveryMode::kGlobalFifo && a.op == OpKind::kSend &&
           b.op == OpKind::kSend;
  }

  // One thread step, one delivery of some other message.
  const ActionFootprint& step = a_step ? a : b;
  const ActionFootprint& del = a_step ? b : a;
  if (step.internal) return false;
  // A delivery to an endpoint this step observed as pending could flip the
  // observation (poll outcome, wait_any winner) if reordered across it.
  for (const EndpointRef ep : step.observed_pending) {
    if (ep == del.channel.dst) return true;
  }
  // Everything else commutes: a send appends behind the in-transit head the
  // delivery pops; a recv/recv_i pops the delivered queue's front while the
  // delivery pushes its back; waits touch only already-bound requests.
  return false;
}

void System::enabled(std::vector<Action>& out) const {
  out.clear();
  if (violation_.has_value() && !continue_past_violation_) {
    return;  // violations are terminal
  }
  for (ThreadRef t = 0; t < threads_.size(); ++t) {
    if (thread_can_step(t)) {
      out.push_back(Action{Action::Kind::kThreadStep, t, {}});
    }
  }
  const SendUid oldest =
      mode_ == DeliveryMode::kGlobalFifo ? oldest_in_transit_uid() : 0;
  for (const auto& [channel, queue] : transit_) {
    if (queue.empty()) continue;
    if (mode_ == DeliveryMode::kGlobalFifo && queue.front().uid != oldest) {
      continue;  // MCC world: only the globally oldest message may arrive
    }
    Action a;
    a.kind = Action::Kind::kDeliver;
    a.channel = channel;
    out.push_back(a);
  }
}

bool System::action_enabled(const Action& action) const {
  if (violation_.has_value() && !continue_past_violation_) {
    return false;  // violations are terminal
  }
  if (action.kind == Action::Kind::kThreadStep) {
    return thread_can_step(action.thread);
  }
  const auto it = std::find_if(transit_.begin(), transit_.end(),
                               [&](const auto& e) { return e.first == action.channel; });
  if (it == transit_.end() || it->second.empty()) return false;
  return mode_ != DeliveryMode::kGlobalFifo ||
         it->second.front().uid == oldest_in_transit_uid();
}

bool System::all_halted() const {
  return std::all_of(threads_.begin(), threads_.end(),
                     [](const ThreadState& t) { return t.halted; });
}

bool System::deadlocked() const {
  if ((violation_.has_value() && !continue_past_violation_) || all_halted()) {
    return false;
  }
  std::vector<Action> acts;
  enabled(acts);
  return acts.empty();
}

std::deque<Message>& System::transit_queue(ChannelId channel) {
  const auto it = std::find_if(transit_.begin(), transit_.end(),
                               [&](const auto& e) { return e.first == channel; });
  MCSYM_ASSERT_MSG(it != transit_.end(), "no transit entry for channel");
  return it->second;
}

System::Checkpoint System::checkpoint() const {
  MCSYM_ASSERT_MSG(journaling_, "checkpoint() requires enable_undo_log()");
  return undo_log_.size();
}

void System::apply(const Action& action, ExecSink* sink) {
  if (!journaling_) {  // keep the non-journaling hot path record-free
    if (action.kind == Action::Kind::kThreadStep) {
      step_thread(action.thread, sink, nullptr);
    } else {
      deliver(action.channel, nullptr);
    }
    return;
  }
  UndoRecord rec;
  if (action.kind == Action::Kind::kThreadStep) {
    step_thread(action.thread, sink, &rec);
  } else {
    deliver(action.channel, &rec);
  }
  undo_log_.push_back(rec);
}

void System::undo() {
  MCSYM_ASSERT_MSG(journaling_ && !undo_log_.empty(),
                   "undo() without a journaled action");
  const UndoRecord u = undo_log_.back();
  undo_log_.pop_back();
  using Tag = UndoRecord::Tag;

  if (u.tag == Tag::kDeliverQueue || u.tag == Tag::kDeliverBind) {
    if (u.tag == Tag::kDeliverQueue) {
      std::deque<Message>& q = endpoints_[u.message.dst].queue;
      MCSYM_ASSERT(!q.empty());
      q.pop_back();
    } else {
      threads_[u.thread].requests[u.request_slot] = u.saved_request;
      endpoints_[u.message.dst].pending.emplace_front(u.thread, u.request_slot);
    }
    transit_queue(u.channel).push_front(u.message);
    return;
  }

  // Thread-step epilogue reversal.
  ThreadState& ts = threads_[u.thread];
  ts.halted = u.prev_halted;
  ts.pc = u.prev_pc;
  --ts.op_count;
  if (u.fired_violation) {
    violations_.pop_back();
    if (violations_.empty()) {
      violation_.reset();
    } else {
      violation_ = violations_.front();
    }
  }
  for (std::uint8_t k = u.locals_written; k-- > 0;) {
    ts.locals[u.local_slot[k]] = u.local_old[k];
  }
  if (u.touched_request) ts.requests[u.request_slot] = u.saved_request;
  matches_.resize(matches_.size() - u.matches_pushed);
  branches_.resize(branches_.size() - u.branches_pushed);

  switch (u.tag) {
    case Tag::kSend: {
      std::deque<Message>& q = transit_queue(u.channel);
      MCSYM_ASSERT(!q.empty());
      q.pop_back();
      --next_uid_;
      if (u.created_channel) {
        // LIFO undo order guarantees entries opened by later sends are
        // already gone, so the one this send created is still last.
        MCSYM_ASSERT(transit_.back().first == u.channel &&
                     transit_.back().second.empty());
        transit_.pop_back();
      }
      break;
    }
    case Tag::kRecv:
    case Tag::kRecvNbBound:
      endpoints_[u.endpoint].queue.push_front(u.message);
      break;
    case Tag::kRecvNbPending: {
      std::deque<std::pair<ThreadRef, std::uint32_t>>& pending =
          endpoints_[u.endpoint].pending;
      MCSYM_ASSERT(!pending.empty() && pending.back().first == u.thread &&
                   pending.back().second == u.request_slot);
      pending.pop_back();
      break;
    }
    case Tag::kLocalOnly:
    case Tag::kWait:
    case Tag::kWaitAny:
      break;  // fully covered by the epilogue restores above
    case Tag::kDeliverQueue:
    case Tag::kDeliverBind:
      break;  // handled before the epilogue; unreachable
  }
}

void System::rollback(Checkpoint mark) {
  MCSYM_ASSERT_MSG(journaling_ && mark <= undo_log_.size(),
                   "rollback() past the undo log");
  while (undo_log_.size() > mark) undo();
}

void System::bind_request(ThreadRef t, std::uint32_t slot, const Message& m) {
  Request& r = threads_[t].requests[slot];
  MCSYM_ASSERT(r.state == ReqState::kPending);
  r.state = ReqState::kBound;
  r.value = m.value;
  r.uid = m.uid;
  r.send_thread = m.sender;
  r.send_op_index = m.send_op;
}

void System::deliver(ChannelId channel, UndoRecord* u) {
  auto it = std::find_if(transit_.begin(), transit_.end(),
                         [&](const auto& e) { return e.first == channel; });
  MCSYM_ASSERT_MSG(it != transit_.end() && !it->second.empty(),
                   "deliver on empty channel");
  const Message m = it->second.front();
  it->second.pop_front();
  if (u != nullptr) {
    u->channel = channel;
    u->message = m;
  }
  EndpointState& ep = endpoints_[m.dst];
  if (!ep.pending.empty()) {
    // Receives complete in issue order: the oldest unbound recv_i wins.
    const auto [t, slot] = ep.pending.front();
    ep.pending.pop_front();
    if (u != nullptr) {
      u->tag = UndoRecord::Tag::kDeliverBind;
      u->thread = t;
      u->request_slot = slot;
      u->saved_request = threads_[t].requests[slot];
    }
    bind_request(t, slot, m);
  } else {
    if (u != nullptr) u->tag = UndoRecord::Tag::kDeliverQueue;
    ep.queue.push_back(m);
  }
}

void System::step_thread(ThreadRef t, ExecSink* sink, UndoRecord* u) {
  ThreadState& ts = threads_[t];
  const Program::Thread& pt = program_->thread(t);
  MCSYM_ASSERT(!ts.halted && ts.pc < pt.code.size());
  const Instr& i = pt.code[ts.pc];
  if (u != nullptr) {
    u->thread = t;
    u->prev_pc = ts.pc;
    u->prev_halted = ts.halted;
  }
  // Journaled cell writes: every mutation below funnels through these so
  // the undo record captures exactly the cells touched.
  const auto write_local = [&](LocalSlot slot, std::int64_t value) {
    if (u != nullptr) {
      u->local_slot[u->locals_written] = slot;
      u->local_old[u->locals_written] = ts.locals[slot];
      ++u->locals_written;
    }
    ts.locals[slot] = value;
  };
  const auto save_request = [&](std::uint32_t slot) {
    if (u != nullptr) {
      u->touched_request = true;
      u->request_slot = slot;
      u->saved_request = ts.requests[slot];
    }
  };
  const auto push_branch = [&](bool taken) {
    branches_.push_back(BranchRecord{t, ts.op_count, taken});
    if (u != nullptr) ++u->branches_pushed;
  };
  const auto push_match = [&](const MatchRecord& m) {
    matches_.push_back(m);
    if (u != nullptr) ++u->matches_pushed;
  };

  ExecEvent ev;
  ev.thread = t;
  ev.op_index = ts.op_count;
  bool emit = true;
  std::uint32_t next_pc = ts.pc + 1;

  switch (i.kind) {
    case OpKind::kSend: {
      const std::int64_t value = i.expr.eval(ts.locals.data());
      const Message m{next_uid_++, i.src, i.dst, value, t, ts.op_count};
      const ChannelId channel{i.src, i.dst};
      auto it = std::find_if(transit_.begin(), transit_.end(),
                             [&](const auto& e) { return e.first == channel; });
      const bool created = it == transit_.end();
      if (created) {
        transit_.emplace_back(channel, std::deque<Message>{});
        it = std::prev(transit_.end());
      }
      it->second.push_back(m);
      if (u != nullptr) {
        u->tag = UndoRecord::Tag::kSend;
        u->channel = channel;
        u->created_channel = created;
      }
      ev.kind = ExecEvent::Kind::kSend;
      ev.src = i.src;
      ev.dst = i.dst;
      ev.expr = i.expr;
      ev.uid = m.uid;
      ev.value = value;
      break;
    }
    case OpKind::kRecv: {
      EndpointState& ep = endpoints_[i.dst];
      MCSYM_ASSERT_MSG(!ep.queue.empty(), "blocking recv stepped while empty");
      const Message m = ep.queue.front();
      ep.queue.pop_front();
      if (u != nullptr) {
        u->tag = UndoRecord::Tag::kRecv;
        u->endpoint = i.dst;
        u->message = m;
      }
      write_local(i.var_slot, m.value);
      push_match(MatchRecord{t, ts.op_count, m.sender, m.send_op});
      ev.kind = ExecEvent::Kind::kRecv;
      ev.dst = i.dst;
      ev.var = i.var;
      ev.var_slot = i.var_slot;
      ev.uid = m.uid;
      ev.value = m.value;
      break;
    }
    case OpKind::kRecvNb: {
      Request& r = ts.requests[i.req];
      MCSYM_ASSERT_MSG(r.state == ReqState::kUnused || r.state == ReqState::kConsumed,
                       "request slot reused while in flight");
      save_request(i.req);
      r = Request{};
      r.var = i.var;
      r.var_slot = i.var_slot;
      r.ep = i.dst;
      r.issue_op_index = ts.op_count;
      EndpointState& ep = endpoints_[i.dst];
      if (!ep.queue.empty()) {
        const Message m = ep.queue.front();
        ep.queue.pop_front();
        if (u != nullptr) {
          u->tag = UndoRecord::Tag::kRecvNbBound;
          u->endpoint = i.dst;
          u->message = m;
        }
        r.state = ReqState::kBound;
        r.value = m.value;
        r.uid = m.uid;
        r.send_thread = m.sender;
        r.send_op_index = m.send_op;
      } else {
        if (u != nullptr) {
          u->tag = UndoRecord::Tag::kRecvNbPending;
          u->endpoint = i.dst;
        }
        r.state = ReqState::kPending;
        ep.pending.emplace_back(t, i.req);
      }
      ev.kind = ExecEvent::Kind::kRecvIssue;
      ev.dst = i.dst;
      ev.var = i.var;
      ev.var_slot = i.var_slot;
      ev.req = i.req;
      break;
    }
    case OpKind::kWait: {
      Request& r = ts.requests[i.req];
      MCSYM_ASSERT_MSG(r.state == ReqState::kBound, "wait stepped while pending");
      save_request(i.req);
      if (u != nullptr) u->tag = UndoRecord::Tag::kWait;
      write_local(r.var_slot, r.value);
      r.state = ReqState::kConsumed;
      push_match(
          MatchRecord{t, r.issue_op_index, r.send_thread, r.send_op_index});
      ev.kind = ExecEvent::Kind::kWait;
      ev.dst = r.ep;
      ev.var = r.var;
      ev.var_slot = r.var_slot;
      ev.req = i.req;
      ev.issue_op_index = r.issue_op_index;
      ev.uid = r.uid;
      ev.value = r.value;
      break;
    }
    case OpKind::kWaitAny: {
      // Scan the request array in order, take the first bound one — the tie
      // break a sequential mcapi_wait_any implementation exhibits. Earlier
      // entries are observed still pending; their issue ops are recorded so
      // the trace analysis can pin them.
      std::uint32_t winner = 0xffffffffu;
      std::uint32_t winner_pos = 0;
      for (std::uint32_t pos = 0; pos < i.reqs.size(); ++pos) {
        const Request& r = ts.requests[i.reqs[pos]];
        MCSYM_ASSERT_MSG(r.state == ReqState::kPending || r.state == ReqState::kBound,
                         "wait_any on an unissued or already-consumed request");
        if (r.state == ReqState::kBound) {
          winner = i.reqs[pos];
          winner_pos = pos;
          break;
        }
        ev.loser_issue_ops.push_back(r.issue_op_index);
      }
      MCSYM_ASSERT_MSG(winner != 0xffffffffu, "wait_any stepped while all pending");
      Request& w = ts.requests[winner];
      save_request(winner);
      if (u != nullptr) u->tag = UndoRecord::Tag::kWaitAny;
      write_local(w.var_slot, w.value);
      write_local(i.var_slot, winner_pos);
      w.state = ReqState::kConsumed;
      push_match(
          MatchRecord{t, w.issue_op_index, w.send_thread, w.send_op_index});
      // The winner index is control-relevant, exactly like a poll outcome:
      // one "not this one" record per skipped entry plus the winner's "yes",
      // so executions with different winners have different record sets.
      for (std::uint32_t pos = 0; pos < winner_pos; ++pos) {
        push_branch(false);
      }
      push_branch(true);
      ev.kind = ExecEvent::Kind::kWaitAny;
      ev.dst = w.ep;
      ev.var = i.var;
      ev.var_slot = i.var_slot;
      ev.req = winner;
      ev.issue_op_index = w.issue_op_index;
      ev.uid = w.uid;
      ev.value = w.value;
      ev.winner_index = winner_pos;
      break;
    }
    case OpKind::kTest: {
      Request& r = ts.requests[i.req];
      MCSYM_ASSERT_MSG(r.state != ReqState::kUnused,
                       "test on a request that was never issued");
      const bool done =
          r.state == ReqState::kBound || r.state == ReqState::kConsumed;
      write_local(i.var_slot, done ? 1 : 0);
      // Control-relevant outcome, like a branch: recorded so trace-filtered
      // enumerations only keep executions polling the same way.
      push_branch(done);
      ev.kind = ExecEvent::Kind::kTest;
      ev.var = i.var;
      ev.var_slot = i.var_slot;
      ev.req = i.req;
      ev.issue_op_index = r.issue_op_index;
      ev.dst = r.ep;
      ev.outcome = done;
      ev.value = done ? 1 : 0;
      break;
    }
    case OpKind::kAssign: {
      const std::int64_t value = i.expr.eval(ts.locals.data());
      write_local(i.var_slot, value);
      ev.kind = ExecEvent::Kind::kAssign;
      ev.var = i.var;
      ev.var_slot = i.var_slot;
      ev.expr = i.expr;
      ev.value = value;
      break;
    }
    case OpKind::kJmp:
      next_pc = i.target;
      emit = false;
      break;
    case OpKind::kJmpIf: {
      const bool taken = i.cond.eval(ts.locals.data());
      push_branch(taken);
      if (taken) next_pc = i.target;
      ev.kind = ExecEvent::Kind::kBranch;
      ev.cond = i.cond;
      ev.outcome = taken;
      break;
    }
    case OpKind::kAssert: {
      const bool held = i.cond.eval(ts.locals.data());
      if (!held) {
        violations_.push_back(Violation{t, ts.op_count, i.cond});
        if (!violation_.has_value()) violation_ = violations_.front();
        if (u != nullptr) u->fired_violation = true;
      }
      ev.kind = ExecEvent::Kind::kAssert;
      ev.cond = i.cond;
      ev.outcome = held;
      break;
    }
    case OpKind::kNop:
      emit = false;
      break;
  }

  ++ts.op_count;
  ts.pc = next_pc;
  if (ts.pc >= pt.code.size()) ts.halted = true;
  if (emit && sink != nullptr) sink->on_event(ev);
}

namespace {

// The sinks of System::walk_state. mark(word, tag) opens a section: hash
// sinks mix `word` (0: nothing), the key sink writes `tag`. Channel order
// in transit_ depends on insertion order, so each channel is taken on its
// own and combined order-insensitively.

/// Hashes the walk with support::Fnv64 or support::StateHasher, XOR-ing
/// the per-channel digests.
template <class Hasher, bool History>
struct HashSink {
  static constexpr bool kHistory = History;
  Hasher hasher;
  Hasher outer;
  decltype(Hasher{}.digest()) channels{};

  void mark(std::uint64_t word, char /*tag*/) {
    if (word != 0) hasher.mix(word);
  }
  void put(std::uint64_t v) { hasher.mix(v); }
  void begin_channel(ChannelId) {
    outer = hasher;
    hasher = Hasher{};
  }
  void end_channel() {
    channels ^= hasher.digest();
    hasher = outer;
  }
  // fingerprint() mixes the combination in as one more word; the history
  // hash XORs it into its lanes.
  void end_channels() {
    if constexpr (History) {
      hasher.mix_unordered(channels);
    } else {
      hasher.mix(channels);
    }
  }
};

/// Serializes the walk losslessly, channels in (src, dst) order.
struct KeySink {
  static constexpr bool kHistory = false;
  std::string out;
  std::size_t channel_start = 0;
  std::uint64_t channel_order = 0;
  std::vector<std::pair<std::uint64_t, std::string>> channels;

  void mark(std::uint64_t /*word*/, char tag) { out += tag; }
  void put(std::uint64_t v) {
    out += std::to_string(static_cast<std::int64_t>(v));
    out += ',';
  }
  void begin_channel(ChannelId c) {
    channel_start = out.size();
    channel_order = std::uint64_t{c.src} << 32 | c.dst;
    out += 'C';
  }
  void end_channel() {
    channels.emplace_back(channel_order, out.substr(channel_start));
    out.resize(channel_start);
  }
  void end_channels() {
    std::sort(channels.begin(), channels.end());
    for (const auto& entry : channels) out += entry.second;
  }
};

}  // namespace

template <class Sink>
void System::walk_state(Sink& sink) const {
  constexpr bool history = Sink::kHistory;
  for (const ThreadState& ts : threads_) {
    sink.mark(0, 'T');
    sink.put(ts.pc);
    sink.put(ts.halted ? 1 : 0);
    for (const std::int64_t v : ts.locals) sink.put(static_cast<std::uint64_t>(v));
    for (const Request& r : ts.requests) {
      sink.put(static_cast<std::uint64_t>(r.state));
      sink.put(static_cast<std::uint64_t>(r.value));
      // Static send identity, not the per-run uid: bound requests with the
      // same future but different histories must not collide.
      if (history &&
          (r.state == ReqState::kBound || r.state == ReqState::kConsumed)) {
        sink.put(r.send_thread);
        sink.put(r.send_op_index);
      }
    }
  }
  for (const EndpointState& ep : endpoints_) {
    sink.mark(0x9e3779b97f4a7c15ULL, 'E');
    for (const Message& m : ep.queue) {
      sink.put(static_cast<std::uint64_t>(m.value));
      if constexpr (history) {
        sink.put(m.sender);
        sink.put(m.send_op);
      } else {
        sink.put(m.src);
      }
    }
    sink.mark(0, '|');
    for (const auto& [t, slot] : ep.pending) {
      sink.put(t);
      sink.put(slot);
    }
  }
  // Under kGlobalFifo the next delivery is the globally oldest in-transit
  // message, so the *relative* uid order across channels is semantic state:
  // two states whose channels hold the same values but interleave
  // differently in send order have different futures. Ranks, not raw uids:
  // uids are per-run issue ordinals and must not leak into a cross-path
  // identity.
  std::vector<SendUid> uids;
  if (mode_ == DeliveryMode::kGlobalFifo) {
    for (const auto& [channel, queue] : transit_) {
      for (const Message& m : queue) uids.push_back(m.uid);
    }
    std::sort(uids.begin(), uids.end());
  }
  for (const auto& [channel, queue] : transit_) {
    if (queue.empty()) continue;
    sink.begin_channel(channel);
    sink.put(channel.src);
    sink.put(channel.dst);
    for (const Message& m : queue) {
      sink.put(static_cast<std::uint64_t>(m.value));
      if constexpr (history) {
        sink.put(m.sender);
        sink.put(m.send_op);
      }
      if (mode_ == DeliveryMode::kGlobalFifo) {
        sink.put(static_cast<std::uint64_t>(
            std::lower_bound(uids.begin(), uids.end(), m.uid) - uids.begin()));
      }
    }
    sink.end_channel();
  }
  sink.end_channels();
  if constexpr (history) {
    // Both logs in sorted order: the same records reached in another
    // interleaving are the same history.
    std::vector<MatchRecord> matches = matches_;
    std::sort(matches.begin(), matches.end());
    sink.mark(0x5bd1e995u, 'M');
    for (const MatchRecord& m : matches) {
      sink.put(m.thread);
      sink.put(m.recv_op_index);
      sink.put(m.send_thread);
      sink.put(m.send_op_index);
    }
    std::vector<BranchRecord> branches = branches_;
    std::sort(branches.begin(), branches.end());
    sink.mark(0xc2b2ae35u, 'B');
    for (const BranchRecord& b : branches) {
      sink.put(b.thread);
      sink.put(b.op_index);
      sink.put(b.taken ? 1 : 0);
    }
  }
  // Violation *count*, so continue-past-violation states that differ only in
  // how many asserts already fired never collide.
  sink.mark(0, 'V');
  sink.put(violations_.size());
}

std::uint64_t System::fingerprint() const {
  HashSink<support::Fnv64, false> sink;
  walk_state(sink);
  return sink.hasher.digest();
}

std::string System::semantic_key() const {
  KeySink sink;
  walk_state(sink);
  return std::move(sink.out);
}

support::Hash128 System::history_fingerprint() const {
  HashSink<support::StateHasher, true> sink;
  walk_state(sink);
  return sink.hasher.digest();
}

}  // namespace mcsym::mcapi
