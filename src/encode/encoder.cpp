#include "encode/encoder.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace mcsym::encode {

using mcapi::Cond;
using mcapi::ExecEvent;
using mcapi::Rel;
using mcapi::ValueExpr;
using smt::TermId;

std::vector<TermId> Encoding::id_projection() const {
  std::vector<TermId> ids;
  ids.reserve(recv_order.size());
  for (const EventIndex r : recv_order) ids.push_back(match_id.at(r));
  return ids;
}

Encoder::Encoder(smt::Solver& solver, const trace::Trace& trace,
                 const match::MatchSet& matches, EncodeOptions options)
    : solver_(solver),
      tt_(solver.terms()),
      trace_(trace),
      matches_(matches),
      options_(options),
      stride_(static_cast<std::int64_t>(trace.receives().size()) + 1) {}

TermId Encoder::int_var(const std::string& name, std::int64_t recorded) {
  const TermId v = tt_.int_var(name);
  recorded_.push_back({v, recorded});
  return v;
}

TermId Encoder::bool_var(const std::string& name, bool recorded) {
  const TermId v = tt_.bool_var(name);
  recorded_.push_back({v, recorded ? 1 : 0});
  return v;
}

std::int64_t Encoder::recorded_uid(EventIndex recv) const {
  const trace::TraceEvent& te = trace_.event(recv);
  if (te.ev.kind == ExecEvent::Kind::kRecv) return static_cast<std::int64_t>(te.ev.uid);
  // A request the trace never completed (accepted only by the issue-anchored
  // ablation) consumed nothing; any value serves as the hint.
  if (te.wait_event == trace::kNoEvent) return 0;
  return static_cast<std::int64_t>(trace_.event(te.wait_event).ev.uid);
}

TermId Encoder::local_term(mcapi::ThreadRef t, support::Symbol var) {
  const auto key = std::make_pair(static_cast<std::uint32_t>(t), var.raw());
  if (auto it = ssa_.find(key); it != ssa_.end()) return it->second;
  const TermId init = initial_term(t, trace_.program().interner().spelling(var));
  ssa_.emplace(key, init);
  return init;
}

TermId Encoder::initial_term(mcapi::ThreadRef t, const std::string& var) {
  // First read before any write: the runtime zero-initializes locals. The
  // havoc alternative introduces a fresh unconstrained variable instead.
  if (options_.initial_locals_zero) return tt_.int_const(0);
  return int_var("init_" + trace_.program().thread(t).name + "_" + var, 0);
}

TermId Encoder::expr_term(mcapi::ThreadRef t, const ValueExpr& e) {
  switch (e.kind) {
    case ValueExpr::Kind::kConst: return tt_.int_const(e.k);
    case ValueExpr::Kind::kVar: return local_term(t, e.var);
    case ValueExpr::Kind::kVarPlus: return tt_.add_const(local_term(t, e.var), e.k);
  }
  MCSYM_UNREACHABLE("bad ValueExpr kind");
}

TermId Encoder::cond_term(mcapi::ThreadRef t, const Cond& c) {
  const TermId a = expr_term(t, c.lhs);
  const TermId b = expr_term(t, c.rhs);
  switch (c.rel) {
    case Rel::kLt: return tt_.lt(a, b);
    case Rel::kLe: return tt_.le(a, b);
    case Rel::kEq: return tt_.eq(a, b);
    case Rel::kNe: return tt_.ne(a, b);
    case Rel::kGe: return tt_.ge(a, b);
    case Rel::kGt: return tt_.gt(a, b);
  }
  MCSYM_UNREACHABLE("bad relation");
}

void Encoder::build_events_and_ssa(Encoding& enc) {
  // Walk every thread in program order: allocate clocks for communication
  // events, thread SSA versions through assigns and receives, pin branches
  // to their traced outcomes, and collect assert conditions for PProp.
  for (mcapi::ThreadRef t = 0; t < trace_.num_threads(); ++t) {
    const std::string& tname = trace_.program().thread(t).name;
    for (const EventIndex idx : trace_.thread_events(t)) {
      const ExecEvent& e = trace_.event(idx).ev;
      const std::string tag = tname + "_" + std::to_string(e.op_index);
      switch (e.kind) {
        case ExecEvent::Kind::kSend: {
          enc.clock.emplace(idx, int_var("clk_" + tag, clock_at(idx)));
          ++enc.stats.clock_vars;
          // Payload evaluated in the sender's SSA at the send point.
          send_payload_.emplace(idx, expr_term(t, e.expr));
          enc.send_of_uid.emplace(static_cast<std::int64_t>(e.uid), idx);
          break;
        }
        case ExecEvent::Kind::kRecv: {
          enc.clock.emplace(idx, int_var("clk_" + tag, clock_at(idx)));
          ++enc.stats.clock_vars;
          const TermId rv = int_var("rv_" + tag, e.value);
          ++enc.stats.value_vars;
          ssa_[{t, e.var.raw()}] = rv;
          enc.recv_value.emplace(idx, rv);
          break;
        }
        case ExecEvent::Kind::kRecvIssue: {
          enc.clock.emplace(idx, int_var("clk_" + tag, clock_at(idx)));
          ++enc.stats.clock_vars;
          // The received value becomes visible at the wait; nothing here.
          break;
        }
        case ExecEvent::Kind::kWait: {
          enc.clock.emplace(idx, int_var("clk_" + tag, clock_at(idx)));
          ++enc.stats.clock_vars;
          const EventIndex issue = trace_.event(idx).issue_event;
          const ExecEvent& ie = trace_.event(issue).ev;
          const TermId rv = int_var("rv_" + tag, e.value);
          ++enc.stats.value_vars;
          ssa_[{t, ie.var.raw()}] = rv;
          enc.recv_value.emplace(issue, rv);
          break;
        }
        case ExecEvent::Kind::kTest: {
          // A poll is a real scheduling event: it gets a clock (ordered by
          // POrder) and its observed outcome is pinned against the linked
          // receive's bind time in build_matches. The polled flag itself is
          // the traced constant in SSA — the pinning makes it exact.
          enc.clock.emplace(idx, int_var("clk_" + tag, clock_at(idx)));
          ++enc.stats.clock_vars;
          ssa_[{t, e.var.raw()}] = tt_.int_const(e.outcome ? 1 : 0);
          tests_.push_back(idx);
          const auto seen = tested_anchors_.try_emplace(
              trace_.event(idx).issue_event, trace::kNoEvent);
          if (!e.outcome) seen.first->second = idx;
          break;
        }
        case ExecEvent::Kind::kWaitAny: {
          // Completes the winning request exactly like a wait (the winner's
          // completion anchor points here via wait_event); additionally the
          // requests scanned before the winner were observed still pending,
          // which build_matches pins as bind > this clock.
          enc.clock.emplace(idx, int_var("clk_" + tag, clock_at(idx)));
          ++enc.stats.clock_vars;
          const EventIndex issue = trace_.event(idx).issue_event;
          const ExecEvent& ie = trace_.event(issue).ev;
          const TermId rv = int_var("rv_" + tag, e.value);
          ++enc.stats.value_vars;
          ssa_[{t, ie.var.raw()}] = rv;
          enc.recv_value.emplace(issue, rv);
          // The returned winner index is traced control flow, a constant.
          ssa_[{t, e.var.raw()}] = tt_.int_const(e.winner_index);
          wait_anys_.push_back(idx);
          for (const std::uint32_t op : e.loser_issue_ops) {
            const EventIndex loser = trace_.find(t, op);
            MCSYM_ASSERT(loser != trace::kNoEvent);
            tested_anchors_[loser] = idx;
          }
          break;
        }
        case ExecEvent::Kind::kAssign: {
          // Pure substitution: the new SSA version *is* the expression term
          // (no fresh variable, no constraint).
          const TermId val = expr_term(t, e.expr);
          ssa_[{t, e.var.raw()}] = val;
          break;
        }
        case ExecEvent::Kind::kBranch: {
          // The symbolic model follows the traced control flow: the branch
          // condition must evaluate the way it did in the recorded run.
          const TermId c = cond_term(t, e.cond);
          event_constraints_.push_back(e.outcome ? c : tt_.not_(c));
          ++enc.stats.event_constraints;
          break;
        }
        case ExecEvent::Kind::kAssert: {
          // Property, not a path constraint: collected into PProp.
          enc.prop_terms.emplace_back(
              tname + ":assert[" + std::to_string(e.op_index) + "]",
              cond_term(t, e.cond));
          break;
        }
      }
    }
  }
  enc.final_ssa = ssa_;
  enc.p_events = tt_.and_(event_constraints_);
}

void Encoder::build_order(Encoding& enc) {
  std::vector<TermId> order;
  for (mcapi::ThreadRef t = 0; t < trace_.num_threads(); ++t) {
    TermId prev = smt::kNoTerm;
    for (const EventIndex idx : trace_.thread_events(t)) {
      const auto it = enc.clock.find(idx);
      if (it == enc.clock.end()) continue;  // internal event: no clock
      if (prev != smt::kNoTerm) {
        order.push_back(tt_.lt(prev, it->second));
        ++enc.stats.order_constraints;
      }
      prev = it->second;
    }
  }
  enc.p_order = tt_.and_(order);
}

void Encoder::build_matches(Encoding& enc) {
  // Fig. 2: PMatchPairs := AND over receives of (OR over candidate sends of
  // match(recv, send)).
  std::vector<TermId> all;
  // Recorded bind time of the previous anchor on each endpoint. receives()
  // is in observed order, which is issue order on an endpoint (one owner).
  std::unordered_map<mcapi::EndpointRef, std::int64_t> last_bind;
  for (const EventIndex r : trace_.receives()) {
    enc.recv_order.push_back(r);
    const ExecEvent& re = trace_.event(r).ev;
    const EventIndex anchor =
        options_.anchor_nb_at_wait ? trace_.completion_of(r) : r;
    const std::string& tname = trace_.program().thread(re.thread).name;
    const std::string tag = tname + "_" + std::to_string(re.op_index);
    const std::int64_t uid = recorded_uid(r);
    const TermId id = int_var("id_" + tag, uid);
    enc.match_id.emplace(r, id);
    ++enc.stats.id_vars;
    const TermId rv = enc.recv_value.at(r);
    const TermId anchor_clock = enc.clock.at(anchor);

    // Bind time: the moment the runtime pairs a message with this receive.
    // For blocking receives it IS the receive; for non-blocking ones it lies
    // strictly between the issue and the wait. With
    // order_endpoint_completions off, the bind collapses onto the anchor
    // (the paper's bare send<wait window) — unless the request is polled by
    // an mcapi_test, whose outcome is only expressible against a real bind
    // variable.
    TermId bind = anchor_clock;
    const bool nonblocking = re.kind == ExecEvent::Kind::kRecvIssue;
    const auto tested = tested_anchors_.find(r);
    // In the recorded run a request binds after its issue, its matched
    // send, the previous bind on its endpoint and every poll or wait_any
    // that saw it pending; the recorded bind sits just above all of them.
    std::int64_t bind_at = clock_at(r);
    if (nonblocking) {
      if (const auto s = enc.send_of_uid.find(uid); s != enc.send_of_uid.end()) {
        bind_at = std::max(bind_at, clock_at(s->second));
      }
      if (const auto prev = last_bind.find(re.dst); prev != last_bind.end()) {
        bind_at = std::max(bind_at, prev->second);
      }
      if (tested != tested_anchors_.end() && tested->second != trace::kNoEvent) {
        bind_at = std::max(bind_at, clock_at(tested->second));
      }
      ++bind_at;
    }
    last_bind[re.dst] = bind_at;
    if (nonblocking &&
        (tested != tested_anchors_.end() ||
         (options_.order_endpoint_completions && options_.anchor_nb_at_wait))) {
      bind = int_var("bind_" + tag, bind_at);
      event_like_constraints_.push_back(tt_.lt(enc.clock.at(r), bind));
      // Bound by the real completion (the wait), independent of where the
      // match window is anchored.
      event_like_constraints_.push_back(
          tt_.le(bind, enc.clock.at(trace_.completion_of(r))));
    }
    enc.bind_time.emplace(r, bind);
    // Keep the ablation's looser window when anchoring at the issue: the
    // bind variable then only serves the test-outcome constraints.
    const TermId window = options_.anchor_nb_at_wait ? bind : anchor_clock;

    std::vector<TermId> disjuncts;
    for (const EventIndex s : matches_.get_sends(r)) {
      const ExecEvent& se = trace_.event(s).ev;
      // match(r, s): the send is issued before the receive completes (before
      // the bind, which is at most the wait), the received value is the sent
      // value, and the ids agree.
      const TermId m = tt_.and_({
          tt_.lt(enc.clock.at(s), window),
          tt_.eq(id, tt_.int_const(static_cast<std::int64_t>(se.uid))),
          tt_.eq(rv, send_payload_.at(s)),
      });
      disjuncts.push_back(m);
      ++enc.stats.match_disjuncts;
    }
    all.push_back(tt_.or_(disjuncts));  // empty set => false (recv unmatched)
  }
  std::sort(enc.recv_order.begin(), enc.recv_order.end());

  // MCAPI completes receives on an endpoint in issue order: order the bind
  // times of consecutive anchors on each endpoint. Pairs of blocking
  // receives are already chained by POrder (bind == clock, same thread).
  if (options_.order_endpoint_completions && options_.anchor_nb_at_wait) {
    std::unordered_map<mcapi::EndpointRef, std::vector<EventIndex>> by_ep;
    for (const EventIndex r : enc.recv_order) {
      by_ep[trace_.event(r).ev.dst].push_back(r);
    }
    for (auto& [ep, rs] : by_ep) {
      std::sort(rs.begin(), rs.end(), [this](EventIndex a, EventIndex b) {
        return trace_.event(a).ev.op_index < trace_.event(b).ev.op_index;
      });
      for (std::size_t i = 0; i + 1 < rs.size(); ++i) {
        const bool both_blocking =
            trace_.event(rs[i]).ev.kind == ExecEvent::Kind::kRecv &&
            trace_.event(rs[i + 1]).ev.kind == ExecEvent::Kind::kRecv;
        if (both_blocking) continue;  // implied by program order
        event_like_constraints_.push_back(
            tt_.lt(enc.bind_time.at(rs[i]), enc.bind_time.at(rs[i + 1])));
        ++enc.stats.completion_order_constraints;
      }
    }
  }
  // Pin every poll to its traced outcome: a test that saw completion
  // requires the bind to have happened by the poll's clock; a test that saw
  // "still pending" forbids it.
  for (const EventIndex tidx : tests_) {
    const EventIndex anchor_r = trace_.event(tidx).issue_event;
    const TermId bind = enc.bind_time.at(anchor_r);
    const TermId poll_clock = enc.clock.at(tidx);
    event_like_constraints_.push_back(trace_.event(tidx).ev.outcome
                                          ? tt_.le(bind, poll_clock)
                                          : tt_.lt(poll_clock, bind));
    ++enc.stats.test_constraints;
  }

  // Pin every wait_any: requests listed before the winner were observed
  // pending when the scan ran, so their binds lie after this clock. (The
  // winner's bind <= clock is already implied by its completion anchor.)
  for (const EventIndex widx : wait_anys_) {
    const ExecEvent& we = trace_.event(widx).ev;
    const TermId clk = enc.clock.at(widx);
    for (const std::uint32_t op : we.loser_issue_ops) {
      const EventIndex loser = trace_.find(we.thread, op);
      event_like_constraints_.push_back(tt_.lt(clk, enc.bind_time.at(loser)));
      ++enc.stats.test_constraints;
    }
  }

  if (!event_like_constraints_.empty()) {
    all.insert(all.end(), event_like_constraints_.begin(),
               event_like_constraints_.end());
  }
  enc.p_match = tt_.and_(all);
}

void Encoder::build_unique(Encoding& enc) {
  // Fig. 3: PUnique := AND over receive pairs of isDiffSend(r_i, r_j).
  // Three emission shapes, weakest code path last:
  //  * ladder (default): uniqueness is really a per-send property — two
  //    receives collide only by agreeing on one send's uid, and both must be
  //    candidates of that send — so one at-most-one ladder per send over its
  //    selector literals covers everything the pairwise walk covered, in
  //    linear size (build_unique_ladders);
  //  * overlap-aware pairwise (unique_ladder = false): ne() per receive pair
  //    whose candidate sets intersect, quadratic on hot endpoints;
  //  * all pairs (unique_all_pairs): the paper's Fig. 3 verbatim.
  std::vector<TermId> uniq;
  if (options_.unique_ladder && !options_.unique_all_pairs) {
    build_unique_ladders(enc, uniq);
    enc.p_unique = tt_.and_(uniq);
    return;
  }
  const auto& recvs = enc.recv_order;
  for (std::size_t i = 0; i < recvs.size(); ++i) {
    for (std::size_t j = i + 1; j < recvs.size(); ++j) {
      if (!options_.unique_all_pairs) {
        const auto& si = matches_.get_sends(recvs[i]);
        bool overlap = false;
        for (const EventIndex s : matches_.get_sends(recvs[j])) {
          if (std::find(si.begin(), si.end(), s) != si.end()) {
            overlap = true;
            break;
          }
        }
        if (!overlap) continue;
      }
      uniq.push_back(tt_.ne(enc.match_id.at(recvs[i]), enc.match_id.at(recvs[j])));
      ++enc.stats.unique_constraints;
    }
  }
  enc.p_unique = tt_.and_(uniq);
}

void Encoder::build_unique_ladders(Encoding& enc, std::vector<TermId>& uniq) {
  // Which channels get a FIFO high-water chain? Those sends need no ladder:
  // the chain forces strictly increasing ids among the channel's matched
  // receives, so two receives can never agree on one uid (see build_fifo).
  std::unordered_map<mcapi::ChannelId, std::size_t> channel_sends;
  if (options_.fifo_non_overtaking && options_.fifo_chain) {
    for (const EventIndex s : trace_.sends()) {
      const ExecEvent& se = trace_.event(s).ev;
      ++channel_sends[{se.src, se.dst}];
    }
  }
  // Candidate receives per send, in ascending receive order (the iteration
  // order below is trace send order — both deterministic).
  std::unordered_map<EventIndex, std::vector<EventIndex>> recvs_of;
  for (const EventIndex r : enc.recv_order) {
    for (const EventIndex s : matches_.get_sends(r)) recvs_of[s].push_back(r);
  }
  for (const EventIndex s : trace_.sends()) {
    const auto it = recvs_of.find(s);
    if (it == recvs_of.end() || it->second.size() < 2) continue;
    const ExecEvent& se = trace_.event(s).ev;
    if (!channel_sends.empty() && channel_sends[{se.src, se.dst}] >= 2) {
      continue;  // the channel's chain subsumes this send's at-most-one
    }
    const auto& rs = it->second;
    const TermId uid = tt_.int_const(static_cast<std::int64_t>(se.uid));
    // Selector: "receive rs[i] consumes this send". Hash-consing shares the
    // term with the PMatch disjunct that introduced it.
    auto sel = [&](std::size_t i) { return tt_.eq(enc.match_id.at(rs[i]), uid); };
    if (rs.size() == 2) {
      uniq.push_back(tt_.not_(tt_.and2(sel(0), sel(1))));
      ++enc.stats.unique_constraints;
      continue;
    }
    // Sinz-style sequential at-most-one: b_i commits "a selector at or
    // before position i fired"; any later selector then contradicts it.
    // 3m-4 constraints and m-2 auxiliary bools for m selectors, against
    // m(m-1)/2 pairwise negations.
    // Recorded: b_i is the OR of the recorded selectors up to position i.
    const std::string tag = "amo_s" + std::to_string(se.uid) + "_";
    const auto uid_value = static_cast<std::int64_t>(se.uid);
    bool fired = recorded_uid(rs[0]) == uid_value;
    TermId prev_b = bool_var(tag + "0", fired);
    uniq.push_back(tt_.implies(sel(0), prev_b));
    ++enc.stats.unique_constraints;
    for (std::size_t i = 1; i + 1 < rs.size(); ++i) {
      fired = fired || recorded_uid(rs[i]) == uid_value;
      const TermId b = bool_var(tag + std::to_string(i), fired);
      uniq.push_back(tt_.implies(sel(i), b));
      uniq.push_back(tt_.implies(prev_b, b));
      uniq.push_back(tt_.not_(tt_.and2(sel(i), prev_b)));
      enc.stats.unique_constraints += 3;
      prev_b = b;
    }
    uniq.push_back(tt_.not_(tt_.and2(sel(rs.size() - 1), prev_b)));
    ++enc.stats.unique_constraints;
  }
}

void Encoder::build_fifo(Encoding& enc) {
  // MCAPI non-overtaking: two sends on one channel must not be received in
  // swapped order by the (single) receiver of the destination endpoint.
  // For s1 <po s2 (same channel) and receive anchors r1 <po r2 (same
  // endpoint): ¬(id_r1 = uid_s2 ∧ id_r2 = uid_s1). Emitted either as the
  // literal swap negations (fifo_chain = false) or as an equisatisfiable
  // per-channel high-water chain that is linear in sends + receives.
  std::vector<TermId> fifo;
  // Group receive anchors by endpoint, already in receiver program order
  // because receives() is in observed order and each endpoint has one owner
  // whose program order the observed order respects; sort defensively.
  std::unordered_map<mcapi::EndpointRef, std::vector<EventIndex>> recvs_by_ep;
  for (const EventIndex r : enc.recv_order) {
    recvs_by_ep[trace_.event(r).ev.dst].push_back(r);
  }
  for (auto& [ep, rs] : recvs_by_ep) {
    std::sort(rs.begin(), rs.end(), [this](EventIndex a, EventIndex b) {
      return trace_.event(a).ev.op_index < trace_.event(b).ev.op_index;
    });
  }
  // Group sends by channel, in sender program order.
  std::unordered_map<mcapi::ChannelId, std::vector<EventIndex>> sends_by_channel;
  for (const EventIndex s : trace_.sends()) {
    const ExecEvent& se = trace_.event(s).ev;
    sends_by_channel[{se.src, se.dst}].push_back(s);
  }
  for (auto& [channel, ss] : sends_by_channel) {
    if (ss.size() < 2) continue;
    std::sort(ss.begin(), ss.end(), [this](EventIndex a, EventIndex b) {
      return trace_.event(a).ev.op_index < trace_.event(b).ev.op_index;
    });
    const auto it = recvs_by_ep.find(channel.dst);
    if (it == recvs_by_ep.end()) continue;
    const auto& rs = it->second;

    // Matched-prefix closure. The endpoint queue consumes each channel in
    // delivery order, so a send can be received only if every earlier send
    // on its channel is received as well: a trace that ends early (e.g. a
    // violation stopped the run) may leave a *suffix* of a channel in
    // transit, never an interior gap. Without this, the model can match a
    // later send while an earlier one lingers unmatched — an execution the
    // runtime cannot realize (witness replay would reject it).
    auto matched = [&](EventIndex s) -> TermId {
      const auto uid = static_cast<std::int64_t>(trace_.event(s).ev.uid);
      std::vector<TermId> arms;
      for (const EventIndex r : rs) {
        if (matches_.contains(r, s)) {
          arms.push_back(tt_.eq(enc.match_id.at(r), tt_.int_const(uid)));
        }
      }
      return tt_.or_(arms);  // empty = kFalse: the send can never be matched
    };
    TermId prev_matched = matched(ss[0]);
    for (std::size_t b = 1; b < ss.size(); ++b) {
      const TermId cur_matched = matched(ss[b]);
      fifo.push_back(tt_.implies(cur_matched, prev_matched));
      prev_matched = cur_matched;
      ++enc.stats.fifo_constraints;
    }

    if (options_.fifo_chain) {
      // High-water chain. Message uids come from a global counter bumped at
      // send execution, and a channel's sends all come from one thread in
      // program order, so uids strictly increase along ss. Non-overtaking
      // then reads: walking the endpoint's receives in completion order, the
      // ids drawn from this channel must strictly increase. One integer mark
      // per receive position carries the largest channel id consumed so far;
      // a matched receive must land strictly above the previous mark and
      // raise its own mark at least to its id. 3 constraints per position
      // instead of a swap negation per (send pair × receive pair) — and two
      // receives agreeing on one send become infeasible too, which is why
      // build_unique_ladders skips chained channels wholesale.
      for (std::size_t k = 1; k < ss.size(); ++k) {
        MCSYM_ASSERT_MSG(
            trace_.event(ss[k - 1]).ev.uid < trace_.event(ss[k]).ev.uid,
            "channel sends must carry program-order-increasing uids");
      }
      struct Link {
        EventIndex recv;
        TermId drawn;   // the receive consumes a send of this channel
        bool drawn_at;  // ... and did so in the recorded run
      };
      std::vector<Link> chain;
      for (const EventIndex r : rs) {
        std::vector<TermId> arms;
        bool drawn_at = false;
        for (const EventIndex s : ss) {
          if (matches_.contains(r, s)) {
            const auto uid = static_cast<std::int64_t>(trace_.event(s).ev.uid);
            arms.push_back(tt_.eq(enc.match_id.at(r), tt_.int_const(uid)));
            drawn_at = drawn_at || recorded_uid(r) == uid;
          }
        }
        if (!arms.empty()) chain.push_back({r, tt_.or_(arms), drawn_at});
      }
      if (chain.size() < 2) continue;  // nothing to order
      const std::string ctag = "hw_c" + std::to_string(channel.src) + "_" +
                               std::to_string(channel.dst) + "_";
      // Recorded: each mark is the running maximum of the drawn ids.
      std::int64_t hi_at = static_cast<std::int64_t>(trace_.event(ss[0]).ev.uid) - 1;
      TermId hi = tt_.int_const(hi_at);
      for (std::size_t i = 0; i < chain.size(); ++i) {
        const auto& [r, drawn, drawn_at] = chain[i];
        const TermId id = enc.match_id.at(r);
        fifo.push_back(tt_.implies(drawn, tt_.lt(hi, id)));
        ++enc.stats.fifo_constraints;
        if (i + 1 == chain.size()) break;  // last mark is never read
        if (drawn_at) hi_at = std::max(hi_at, recorded_uid(r));
        const TermId next = int_var(ctag + std::to_string(i), hi_at);
        fifo.push_back(tt_.le(hi, next));
        fifo.push_back(tt_.implies(drawn, tt_.le(id, next)));
        enc.stats.fifo_constraints += 2;
        hi = next;
      }
      continue;
    }

    for (std::size_t a = 0; a < ss.size(); ++a) {
      for (std::size_t b = a + 1; b < ss.size(); ++b) {
        for (std::size_t i = 0; i < rs.size(); ++i) {
          for (std::size_t j = i + 1; j < rs.size(); ++j) {
            // Vacuous unless both crossed pairs are candidates.
            if (!matches_.contains(rs[i], ss[b]) || !matches_.contains(rs[j], ss[a])) {
              continue;
            }
            const std::int64_t uid_a =
                static_cast<std::int64_t>(trace_.event(ss[a]).ev.uid);
            const std::int64_t uid_b =
                static_cast<std::int64_t>(trace_.event(ss[b]).ev.uid);
            fifo.push_back(tt_.not_(
                tt_.and2(tt_.eq(enc.match_id.at(rs[i]), tt_.int_const(uid_b)),
                         tt_.eq(enc.match_id.at(rs[j]), tt_.int_const(uid_a)))));
            ++enc.stats.fifo_constraints;
          }
        }
      }
    }
  }
  enc.p_fifo = tt_.and_(fifo);
}

void Encoder::build_delay_ignorant(Encoding& enc) {
  // Baseline [2]/MCC-style symbolic world: messages arrive the moment they
  // are sent, so the k-th receive on an endpoint consumes the k-th-issued
  // matching send. Encoded as monotonicity: for receives r1 <po r2 on one
  // endpoint matched to sends a, b respectively, the send clocks must not be
  // inverted: ¬(id_r1 = uid_a ∧ id_r2 = uid_b ∧ clk_b < clk_a).
  std::vector<TermId> delay;
  std::unordered_map<mcapi::EndpointRef, std::vector<EventIndex>> recvs_by_ep;
  for (const EventIndex r : enc.recv_order) {
    recvs_by_ep[trace_.event(r).ev.dst].push_back(r);
  }
  for (auto& [ep, rs] : recvs_by_ep) {
    std::sort(rs.begin(), rs.end(), [this](EventIndex a, EventIndex b) {
      return trace_.event(a).ev.op_index < trace_.event(b).ev.op_index;
    });
    for (std::size_t i = 0; i < rs.size(); ++i) {
      for (std::size_t j = i + 1; j < rs.size(); ++j) {
        for (const EventIndex sa : matches_.get_sends(rs[i])) {
          for (const EventIndex sb : matches_.get_sends(rs[j])) {
            if (sa == sb) continue;
            const std::int64_t uid_a =
                static_cast<std::int64_t>(trace_.event(sa).ev.uid);
            const std::int64_t uid_b =
                static_cast<std::int64_t>(trace_.event(sb).ev.uid);
            delay.push_back(tt_.or_({
                tt_.ne(enc.match_id.at(rs[i]), tt_.int_const(uid_a)),
                tt_.ne(enc.match_id.at(rs[j]), tt_.int_const(uid_b)),
                tt_.le(enc.clock.at(sa), enc.clock.at(sb)),
            }));
            ++enc.stats.delay_constraints;
          }
        }
      }
    }
  }
  enc.p_delay = tt_.and_(delay);
}

TermId Encoder::property_term(const Property& p) {
  auto operand = [&](const Operand& o) -> TermId {
    if (!o.is_var) return tt_.int_const(o.k);
    // Look up, never intern: concurrent sessions share the Program. A name
    // the program never interned is a local nothing wrote, so its final
    // value is its initial one.
    const support::Symbol sym = trace_.program().interner().find(o.var);
    const TermId base =
        sym.valid() ? local_term(o.thread, sym) : initial_term(o.thread, o.var);
    return tt_.add_const(base, o.k);
  };
  const TermId a = operand(p.lhs);
  const TermId b = operand(p.rhs);
  switch (p.rel) {
    case Rel::kLt: return tt_.lt(a, b);
    case Rel::kLe: return tt_.le(a, b);
    case Rel::kEq: return tt_.eq(a, b);
    case Rel::kNe: return tt_.ne(a, b);
    case Rel::kGe: return tt_.ge(a, b);
    case Rel::kGt: return tt_.gt(a, b);
  }
  MCSYM_UNREACHABLE("bad relation");
}

void Encoder::build_properties(Encoding& enc, std::span<const Property> properties) {
  for (const Property& p : properties) {
    enc.prop_terms.emplace_back(p.label, property_term(p));
  }
  enc.stats.property_terms = enc.prop_terms.size();
  std::vector<TermId> conds;
  conds.reserve(enc.prop_terms.size());
  for (const auto& [label, term] : enc.prop_terms) conds.push_back(term);
  enc.p_prop = tt_.and_(conds);
}

Encoding Encoder::encode(std::span<const Property> properties) {
  Encoding enc;
  build_events_and_ssa(enc);
  build_order(enc);
  build_matches(enc);
  build_unique(enc);
  if (options_.fifo_non_overtaking) build_fifo(enc);
  if (options_.delay_ignorant) build_delay_ignorant(enc);
  build_properties(enc, properties);
  enc.recorded_run = std::move(recorded_);
  recorded_.clear();

  if (options_.defer_assertions) return enc;

  solver_.assert_term(enc.p_order);
  solver_.assert_term(enc.p_match);
  solver_.assert_term(enc.p_unique);
  solver_.assert_term(enc.p_events);
  if (enc.p_fifo != smt::kNoTerm) solver_.assert_term(enc.p_fifo);
  if (enc.p_delay != smt::kNoTerm) solver_.assert_term(enc.p_delay);
  switch (options_.property_mode) {
    case PropertyMode::kNegate:
      // No properties means PProp = true and ¬PProp = false, which would
      // poison enumeration-style use; only assert when something was stated.
      if (!enc.prop_terms.empty()) solver_.assert_term(tt_.not_(enc.p_prop));
      break;
    case PropertyMode::kAssert:
      solver_.assert_term(enc.p_prop);
      break;
    case PropertyMode::kIgnore:
      break;
  }
  return enc;
}

}  // namespace mcsym::encode
