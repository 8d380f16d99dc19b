// Internals of the optimal-DPOR loop (dpor.cpp): the weak-initial test,
// the wakeup-tree arena, the internal-step classifier, the initial pick,
// and the race core — Prefix, the executed prefix with its per-process
// vector clocks, race scan and race-reversal feasibility checks. The loop
// passes Prefix::scan_races two callbacks: whether a sleeping sibling
// covers a race, and where its reversal is scheduled. Kept in a header so
// dpor_test can pin the clocks and the feasibility checks directly. Not
// part of the public check/ surface.
//
// Happens-before is the transitive closure of mcapi::dependent over the
// executed prefix, kept as vector clocks (Abdulla et al., JACM'17). The
// processes are the threads plus one delivery channel per (src, dst) pair
// a send names; dependent() orders every two events of one process, so
// event i's clock row — clock[i][q], the highest ordinal of process q that
// happens before or equals i — answers hb(k, i) in O(1) as
// clock[i][proc k] >= seq k. Appending ev walks the prefix downward and
// joins the row of every dependent event its row does not already cover.
// The walk also yields the races of ev for free: a dependent k left
// uncovered when the walk reaches it has no event m with k -> m -> ev.
// Were there one, some direct dependent predecessor m' of ev with
// m ->* m' (possibly m' = m) lies above k, was joined before k was
// reached, and its row covers k. Conversely a covered k has a later
// event of its process, or k itself, happening before some joined m' > k,
// which is such an m. So the uncovered dependent events are exactly the
// ones with nothing happening between them and ev.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "check/dpor.hpp"
#include "mcapi/system.hpp"
#include "support/assert.hpp"

namespace mcsym::check::dpor_detail {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

inline bool is_internal_step(const mcapi::System& state, const mcapi::Action& a) {
  if (a.kind != mcapi::Action::Kind::kThreadStep) return false;
  const auto kind = state.next_op_kind(a.thread);
  if (!kind) return false;
  switch (*kind) {
    case mcapi::OpKind::kAssign:
    case mcapi::OpKind::kJmp:
    case mcapi::OpKind::kJmpIf:
    case mcapi::OpKind::kAssert:
    case mcapi::OpKind::kNop:
      return true;
    default:
      return false;
  }
}

/// Position of the first event of process `p` in `w` when that event
/// commutes with everything before it (p is a weak initial of w); kNpos
/// when p does not occur or cannot be brought to the front.
inline std::size_t weak_initial_pos(const mcapi::Action& p,
                                    const std::vector<mcapi::ActionFootprint>& w,
                                    mcapi::DeliveryMode mode) {
  for (std::size_t j = 0; j < w.size(); ++j) {
    if (!(w[j].action == p)) continue;
    for (std::size_t l = 0; l < j; ++l) {
      if (mcapi::dependent(w[l], w[j], mode)) return kNpos;
    }
    return j;
  }
  return kNpos;
}

/// Ordered tree of scheduled revisit sequences (branches are paths from
/// the root), per the POPL'14 wakeup-tree construction: insertion walks
/// existing branches consuming weak initials of the new sequence, returns
/// unchanged when an existing branch is already a weak prefix of it, and
/// otherwise grafts the remainder as a fresh rightmost branch.
class WakeupTree {
 public:
  [[nodiscard]] bool empty() const { return root_kids_.empty(); }

  /// Inserts `w`; returns the number of nodes actually added.
  std::size_t insert(std::vector<mcapi::ActionFootprint> w,
                     mcapi::DeliveryMode mode) {
    std::uint32_t at = kRoot;
    while (true) {
      if (w.empty()) return 0;  // the walked path already covers w
      if (at != kRoot && kids(at).empty()) return 0;  // existing leaf ⊑ w
      bool descended = false;
      for (const std::uint32_t c : kids(at)) {
        const std::size_t j = weak_initial_pos(nodes_[c].ev.action, w, mode);
        if (j == kNpos) continue;
        w.erase(w.begin() + static_cast<std::ptrdiff_t>(j));
        at = c;
        descended = true;
        break;
      }
      if (descended) continue;
      std::size_t added = 0;
      for (mcapi::ActionFootprint& e : w) {
        nodes_.push_back(Node{std::move(e), {}});
        const auto idx = static_cast<std::uint32_t>(nodes_.size() - 1);
        kids(at).push_back(idx);
        at = idx;
        ++added;
      }
      return added;
    }
  }

  /// Detaches the leftmost branch: its first event plus the subtree below
  /// it, which becomes the scheduled tree of the child exploration. Nodes
  /// are moved out (their slots in this arena become unreachable garbage,
  /// reclaimed when the frame's tree dies).
  std::pair<mcapi::ActionFootprint, WakeupTree> pop_first() {
    MCSYM_ASSERT(!root_kids_.empty());
    const std::uint32_t first = root_kids_.front();
    root_kids_.erase(root_kids_.begin());
    WakeupTree sub;
    for (const std::uint32_t c : nodes_[first].kids) {
      const std::uint32_t moved = sub.take_from(*this, c);
      sub.root_kids_.push_back(moved);
    }
    return {std::move(nodes_[first].ev), std::move(sub)};
  }

 private:
  struct Node {
    mcapi::ActionFootprint ev;
    std::vector<std::uint32_t> kids;
  };
  static constexpr std::uint32_t kRoot = static_cast<std::uint32_t>(-1);

  std::vector<std::uint32_t>& kids(std::uint32_t at) {
    return at == kRoot ? root_kids_ : nodes_[at].kids;
  }

  std::uint32_t take_from(WakeupTree& other, std::uint32_t idx) {
    nodes_.push_back(Node{std::move(other.nodes_[idx].ev), {}});
    const auto mine = static_cast<std::uint32_t>(nodes_.size() - 1);
    for (const std::uint32_t c : other.nodes_[idx].kids) {
      const std::uint32_t moved = take_from(other, c);
      nodes_[mine].kids.push_back(moved);
    }
    return mine;
  }

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> root_kids_;
};

/// Whether race-reversal feasibility can be decided by pure integer
/// counting over footprints: a program whose only operations are send /
/// blocking recv / straight-line locals under arbitrary-delay delivery.
/// An action's enabledness then depends solely on a channel or endpoint
/// queue LENGTH, and every footprinted op kind is fixed across replays
/// (no data-dependent branches, no request observations, no asserts that
/// could cut a simulation short).
inline bool countable_program(const mcapi::Program& program,
                              mcapi::DeliveryMode mode) {
  if (mode != mcapi::DeliveryMode::kArbitraryDelay) return false;
  for (mcapi::ThreadRef t = 0; t < program.num_threads(); ++t) {
    for (const mcapi::Instr& i : program.thread(t).code) {
      switch (i.kind) {
        case mcapi::OpKind::kRecvNb:
        case mcapi::OpKind::kWait:
        case mcapi::OpKind::kWaitAny:
        case mcapi::OpKind::kTest:
        case mcapi::OpKind::kAssert:
        case mcapi::OpKind::kJmpIf:
          return false;
        default:
          break;
      }
    }
  }
  return true;
}

/// The schedule of an executed prefix.
inline std::vector<mcapi::Action> actions_of(
    const std::vector<mcapi::ActionFootprint>& events) {
  std::vector<mcapi::Action> script;
  script.reserve(events.size());
  for (const mcapi::ActionFootprint& e : events) script.push_back(e.action);
  return script;
}

/// Initial pick for a frame with nothing scheduled: an internal step as a
/// singleton ample set, else the first enabled action not asleep — every
/// other sibling arrives via race reversals. nullptr when every enabled
/// action is asleep (or none is enabled).
inline const mcapi::Action* initial_pick(
    const mcapi::System& sys, const std::vector<mcapi::Action>& enabled,
    const std::vector<mcapi::ActionFootprint>& sleep) {
  for (const mcapi::Action& a : enabled) {
    if (is_internal_step(sys, a)) return &a;
  }
  for (const mcapi::Action& a : enabled) {
    bool asleep = false;
    for (const mcapi::ActionFootprint& q : sleep) {
      if (q.action == a) {
        asleep = true;
        break;
      }
    }
    if (!asleep) return &a;
  }
  return nullptr;
}

/// The executed prefix of the optimal-DPOR loop and the race core that
/// runs on it.
///
/// `sys` is the one live journaling System the loop walks up and down:
/// push() applies an event and appends its vector clock, pop() undoes both,
/// and a checkpoint is simply a depth (one undo record per event). Clock
/// rows live in one flat arena of P entries per event, so a push allocates
/// nothing once the arena has grown; the push also records the race
/// candidates of the event it appended (see the file comment).
class Prefix {
 public:
  Prefix(const mcapi::Program& program, mcapi::DeliveryMode mode)
      : sys(program, mode),
        mode_(mode),
        countable_(countable_program(program, mode)),
        threads_(static_cast<std::uint32_t>(program.num_threads())),
        ep_len_(program.num_endpoints(), 0) {
    sys.enable_undo_log();
    // Processes: threads [0, T), then one per channel a send can fill.
    for (mcapi::ThreadRef t = 0; t < threads_; ++t) {
      for (const mcapi::Instr& i : program.thread(t).code) {
        if (i.kind == mcapi::OpKind::kSend) {
          channels_.push_back(channel_key({i.src, i.dst}));
        }
      }
    }
    std::sort(channels_.begin(), channels_.end());
    channels_.erase(std::unique(channels_.begin(), channels_.end()),
                    channels_.end());
    procs_ = threads_ + channels_.size();
    count_.assign(procs_, 0);
  }

  /// Applies `ev` (a footprint taken at the current state) and appends its
  /// vector clock.
  void push(const mcapi::ActionFootprint& ev) {
    sys.apply(ev.action);
    const std::size_t n = events.size();
    clock_.resize((n + 1) * procs_);  // value-initialized: the row is zero
    std::uint32_t* row = clock_.data() + n * procs_;
    races_.clear();
    for (std::size_t k = n; k-- > 0;) {
      if (row[proc_[k]] >= seq_[k]) continue;  // k happens before a joined m
      if (!mcapi::dependent(events[k], ev, mode_)) continue;
      races_.push_back(k);
      const std::uint32_t* below = clock_.data() + k * procs_;
      // Once the row covers the whole prefix, every k below is covered.
      bool all = true;
      for (std::size_t q = 0; q < procs_; ++q) {
        row[q] = std::max(row[q], below[q]);
        all = all && row[q] == count_[q];
      }
      if (all) break;
    }
    const std::uint32_t p = proc_of(ev.action);
    row[p] = ++count_[p];
    events.push_back(ev);
    proc_.push_back(p);
    seq_.push_back(row[p]);
  }

  /// Undoes the last event and drops its clock.
  void pop() {
    sys.undo();
    events.pop_back();
    --count_[proc_.back()];
    proc_.pop_back();
    seq_.pop_back();
    clock_.resize(events.size() * procs_);
    races_.clear();
  }

  /// Whether events[k] happens before events[j] (k < j).
  [[nodiscard]] bool hb(std::size_t k, std::size_t j) const {
    return clock_[j * procs_ + proc_[k]] >= seq_[k];
  }

  /// Scans the prefix for reversible races ending in the last pushed event
  /// ev (call it before the next push) and schedules each one's reversal
  /// notdep(e,E)·proc(ev) at the frame before the raced event e = events[k]:
  ///   covered(k, v) -> bool: an explored sibling still asleep at frame k
  ///     already covers v's class, so the race is skipped;
  ///   schedule(k, v&&) -> std::size_t: inserts v below frame k, returning
  ///     the wakeup nodes added.
  /// Counts races_detected and wakeup_nodes into `st`.
  template <class Covered, class Schedule>
  void scan_races(DporStats& st, Covered&& covered, Schedule&& schedule) {
    const mcapi::ActionFootprint& ev = events.back();
    if (ev.internal) return;  // internal steps race with nothing
    const std::size_t n = events.size() - 1;
    // Feasibility simulations rewind the live System; the scan visits race
    // points in decreasing depth, so the rewind is monotone and the
    // executed prefix is replayed once at the end instead of per race.
    std::size_t rewound = events.size();
    std::vector<mcapi::ActionFootprint> v;
    for (const std::size_t k : races_) {  // decreasing depth
      const mcapi::ActionFootprint& ek = events[k];
      if (ek.internal) continue;
      if (ek.action == ev.action) continue;  // program order, not a race

      // Candidate reversal: everything after ek not causally behind it,
      // then the racing process itself.
      v.clear();
      v.reserve(n - k);
      for (std::size_t j = k + 1; j < n; ++j) {
        if (!hb(k, j)) v.push_back(events[j]);
      }
      v.push_back(ev);

      // Sleep coverage is checked before feasibility: it is a few integer
      // comparisons, the feasibility check replays the candidate.
      if (covered(k, v)) continue;

      // Reversibility against the real semantics: a purely causal pair (a
      // send vs. the delivery of its own message, a delivery vs. the wait
      // it unblocks) leaves the final action disabled. Two deliveries
      // racing for one endpoint (the only dependent delivery pair under
      // arbitrary delay) are always reversible — the reversal's causal
      // prefix keeps both messages in transit — so they skip the check.
      const bool deliver_pair =
          mode_ == mcapi::DeliveryMode::kArbitraryDelay &&
          ek.action.kind == mcapi::Action::Kind::kDeliver &&
          ev.action.kind == mcapi::Action::Kind::kDeliver;
      if (!deliver_pair) {
        if (countable_) {
          if (!count_feasible(k, v)) continue;
        } else {
          rewound = k;
          if (!simulate_feasible(k, v)) continue;
        }
      }
      ++st.races_detected;
      st.wakeup_nodes += schedule(k, std::move(v));
    }
    replay_from(rewound);
  }

  /// Counting feasibility of reversal candidate `v` at race point `k`, for
  /// countable programs only (see countable_program): reconstructs the
  /// channel/endpoint queue lengths at state k by inverting the executed
  /// suffix against the live state (which must hold the whole prefix), then
  /// runs `v` through the counters — a deliver needs its channel non-empty,
  /// a recv its endpoint queue non-empty, everything else always fires.
  /// Exact for countable programs because per-thread control is
  /// straight-line, so the footprinted op kinds replay as-is. Never touches
  /// the live System.
  bool count_feasible(std::size_t k,
                      const std::vector<mcapi::ActionFootprint>& v) {
    chan_len_.clear();
    auto chan = [&](mcapi::ChannelId c) -> std::ptrdiff_t& {
      for (auto& [id, len] : chan_len_) {
        if (id == c) return len;
      }
      chan_len_.emplace_back(c,
                             static_cast<std::ptrdiff_t>(sys.transit_size(c)));
      return chan_len_.back().second;
    };
    for (std::size_t e = 0; e < ep_len_.size(); ++e) {
      ep_len_[e] = static_cast<std::ptrdiff_t>(
          sys.queue_size(static_cast<mcapi::EndpointRef>(e)));
    }
    for (std::size_t j = events.size(); j-- > k;) {
      const mcapi::ActionFootprint& e = events[j];
      if (e.action.kind == mcapi::Action::Kind::kDeliver) {
        ++chan(e.channel);
        --ep_len_[e.channel.dst];
      } else if (e.op == mcapi::OpKind::kSend) {
        --chan(e.channel);
      } else if (e.op == mcapi::OpKind::kRecv) {
        ++ep_len_[e.endpoint];
      }
    }
    for (const mcapi::ActionFootprint& e : v) {
      if (e.action.kind == mcapi::Action::Kind::kDeliver) {
        std::ptrdiff_t& len = chan(e.channel);
        if (len <= 0) return false;
        --len;
        ++ep_len_[e.channel.dst];
      } else if (e.op == mcapi::OpKind::kSend) {
        ++chan(e.channel);
      } else if (e.op == mcapi::OpKind::kRecv) {
        if (ep_len_[e.endpoint] <= 0) return false;
        --ep_len_[e.endpoint];
      }
    }
    return true;
  }

  /// Simulated feasibility of `v` at race point `k`: apply -> inspect ->
  /// undo on the live state — rewind to checkpoint k, run the candidate,
  /// roll it back, all O(changed) queue motions. Leaves the System at
  /// checkpoint k (replay_from(k) restores the prefix). A candidate that
  /// runs into an assertion violation counts as feasible: the exploration
  /// must reach that violation.
  bool simulate_feasible(std::size_t k,
                         const std::vector<mcapi::ActionFootprint>& v) {
    sys.rollback(k);
    bool feasible = true;
    for (const mcapi::ActionFootprint& e : v) {
      if (sys.has_violation()) break;
      if (!sys.action_enabled(e.action)) {
        feasible = false;
        break;
      }
      sys.apply(e.action);
    }
    sys.rollback(k);
    return feasible;
  }

  /// Re-applies events[k..] after a rewind to checkpoint k.
  void replay_from(std::size_t k) {
    for (std::size_t j = k; j < events.size(); ++j) sys.apply(events[j].action);
  }

  mcapi::System sys;
  std::vector<mcapi::ActionFootprint> events;

 private:
  static std::uint64_t channel_key(mcapi::ChannelId c) {
    return (static_cast<std::uint64_t>(c.src) << 32) | c.dst;
  }

  /// Process of an action: its thread, or the channel it delivers on.
  [[nodiscard]] std::uint32_t proc_of(const mcapi::Action& a) const {
    if (a.kind == mcapi::Action::Kind::kThreadStep) return a.thread;
    const std::uint64_t key = channel_key(a.channel);
    const auto it = std::lower_bound(channels_.begin(), channels_.end(), key);
    MCSYM_ASSERT(it != channels_.end() && *it == key);
    return threads_ + static_cast<std::uint32_t>(it - channels_.begin());
  }

  const mcapi::DeliveryMode mode_;
  const bool countable_;
  // Vector clocks over procs_ processes: the threads_ threads, then the
  // channels, process threads_ + i for channels_[i] (sorted keys).
  const std::uint32_t threads_;
  std::vector<std::uint64_t> channels_;
  std::size_t procs_ = 0;
  std::vector<std::uint32_t> count_;  // events per process in the prefix
  std::vector<std::uint32_t> proc_;   // per event: its process
  std::vector<std::uint32_t> seq_;    // per event: 1-based ordinal in it
  std::vector<std::uint32_t> clock_;  // row i at [i * procs_, (i+1) * procs_)
  // Race candidates of the last pushed event (dependent, nothing between),
  // in decreasing depth.
  std::vector<std::size_t> races_;
  // count_feasible scratch: per-channel in-transit and per-endpoint
  // delivered-queue lengths reconstructed at the race point.
  std::vector<std::pair<mcapi::ChannelId, std::ptrdiff_t>> chan_len_;
  std::vector<std::ptrdiff_t> ep_len_;
};

}  // namespace mcsym::check::dpor_detail
