// Work-stealing parallel optimal-DPOR exploration (DporOptions::workers > 1).
//
// Each worker runs the race core it shares with the serial engine —
// dpor_detail::Prefix (dpor_internal.hpp): happens-before rows, race scan,
// counting/simulated feasibility. What this file adds is the scheduling:
// where sleep coverage is read and reversals are grafted (the two scan
// callbacks in ParallelExplorer::scan_and_graft), and how the tree is
// shared.
//
// The serial engine (dpor.cpp, run_optimal) walks ONE wakeup tree
// depth-first, detaching each branch as it descends. That detachment is
// what parallelism must undo: a race found deep in one subtree schedules
// revisit sequences into *ancestor* frames, so sibling subtrees are not
// independent tasks — a late insert may need to graft into a branch some
// other worker is already exploring. The shared-tree design here keeps
// every frame and branch live in shared memory for the whole run:
//
//  * The exploration tree (Node = frame, Branch = wakeup-tree root child)
//    is never detached. Workers CLAIM branches in place; a claim is a
//    checkpoint recipe — walk parent pointers to recover the prefix
//    schedule, replay it on the worker's own journaling System (rolling
//    back only to the lowest common ancestor of the previous position),
//    then explore the subtree depth-first exactly like the serial loop.
//  * Scheduling is work stealing, not a shared queue. Every worker owns a
//    Chase–Lev deque (steal_deque.hpp): branches it creates are pushed at
//    the bottom and the next branch to run is popped from the bottom, so
//    local exploration stays LIFO and journal-hot; an idle worker steals
//    from the TOP of a random victim — the oldest entry, i.e. the branch
//    highest in the tree: a large unexplored subtree behind a short
//    navigate() replay. The branch a worker will descend into next is not
//    pushed at all (its local claim is immediate), so the deques carry
//    only the work a thief could usefully take.
//  * Branch claims are lock-free: BranchState is an atomic and a claim is
//    one CAS (kPending -> kClaimed). A branch reaches exactly one claimer
//    no matter how many deque entries or frame scans race for it; losers
//    count a claim_conflict and move on. The hot path of execute_branch —
//    claim, sibling-prefix snapshot, sleep computation — takes no lock at
//    all: branch storage is append-only and chunked (BranchList), so ev /
//    pick / the sibling prefix below any published index are immutable,
//    and readers never hold locks against the appender.
//  * Mutation is node-local. Each Node carries its own mutex guarding
//    exactly two things: appends to its branch list (wakeup-tree grafts
//    from insert_into_node) and the scheduled-subtree handoff when one of
//    its branches executes (b.subtree moves into the new child frame).
//    Workers exploring disjoint subtrees share no locks whatsoever.
//  * Sleep sets are EAGER and ordered: the sleep of branch b_i at a frame
//    is the frame's inherited sleep plus the (non-internal) first actions
//    of siblings ordered before b_i. Branch order is append-only (inserts
//    graft under existing branches or append rightmost, never in front),
//    so this set is fixed at b_i's creation — no need to wait for earlier
//    siblings to COMPLETE, which is what serializes the serial algorithm.
//    Sibling footprints are recomputed by the claimer at the frame's own
//    state, so they equal what the serial engine would have recorded.
//  * Race scans run once per tree edge: only the worker that first
//    executes an event scans the prefix for reversible races; prefix
//    replays rebuild events/happens-before rows but never re-scan, so
//    races_detected and the insert set per tree position match the serial
//    engine's.
//  * Termination is steal-round quiescence, not a condition variable:
//    `outstanding_` counts branches not yet retired (created before their
//    parent retires, so it can only reach zero when the whole tree is
//    explored). A worker whose own deque is empty runs steal rounds over
//    random victims; after a failed round it checks outstanding_ == 0 and
//    exits, else backs off (yield, then microsleeps) and tries again.
//
// Determinism: sibling branches of a wakeup tree are NOT independent —
// scans inside an earlier sibling's subtree graft sequences into later
// siblings' chains, so exploring them concurrently can commit a worker to
// a linearization the serial engine would have folded into a scheduled
// chain. Such a raced path is always killed by its sleep set before it
// completes (the eager ordered-before entries survive filtering until the
// path would execute them), so on violation-free programs the set of
// COMPLETED maximal executions is still exactly one representative per
// Mazurkiewicz trace: executions / terminal_states / deadlock counts and
// all verdicts are identical to the serial engine for every worker count
// (parallel_dpor_test pins this across workers ∈ {1,2,4,8}). The argument
// only uses the append-only sibling ORDER, never the order in which
// siblings are claimed, so it is indifferent to which worker's deque a
// branch sat in or whether it was stolen. The killed duplicates land in
// stats.parallel_duplicates; transitions is charged arrival-edge-exact —
// each completed execution's full path length at the moment it retires.
// Every linearization of a Mazurkiewicz trace has the same length, so the
// sum is independent of WHICH representative a claim race lets complete:
// transitions equals serial at every worker count (duplicate and
// sleep-blocked paths charge nothing, in both engines). races_detected /
// wakeup_nodes count scheduling WORK, which depends on which worker
// reaches a race first — as do the scheduler telemetry counters (steals,
// steal_failures, claim_conflicts, max_replay_depth). A violation stops
// all workers at the first finder, so counters on violating programs are
// partial, like any early exit.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "check/dpor.hpp"
#include "check/dpor_internal.hpp"
#include "check/steal_deque.hpp"
#include "support/assert.hpp"

namespace mcsym::check {

using mcapi::Action;
using mcapi::ActionFootprint;
using mcapi::System;

namespace {

using dpor_detail::kNpos;
using dpor_detail::StealDeque;
using dpor_detail::WakeupTree;
using dpor_detail::weak_initial_pos;

constexpr std::uint32_t kNoBranch = static_cast<std::uint32_t>(-1);

constexpr std::uint8_t kStatePending = 0;
constexpr std::uint8_t kStateClaimed = 1;
constexpr std::uint8_t kStateDone = 2;

struct Node;

/// One wakeup-tree root child of a frame, live for the whole run. `ev`,
/// `pick`, `owner` and `index` are written before the branch is published
/// (BranchList::append's release) and immutable afterwards — every reader
/// path (claims, sibling snapshots, sleep coverage) touches only those, so
/// the hot path needs no lock. `state` is the lock-free claim word.
/// `subtree` (scheduled sequences below an unexecuted branch) and the
/// `child` handoff are guarded by the owning node's mutex: execution moves
/// the subtree into the child Node and publishes `child` in one critical
/// section, so concurrent grafts always land somewhere a worker will visit.
struct Branch {
  ActionFootprint ev;  // first event; .action/.internal authoritative, the
                       // rest recomputed at execution
  WakeupTree subtree;           // guarded by owner->mu until child is set
  Node* owner = nullptr;        // frame this branch belongs to
  std::uint32_t index = 0;      // position in owner's branch list
  bool pick = false;            // initial-pick seed, not scheduled material
  std::atomic<std::uint8_t> state{kStatePending};
  std::atomic<Node*> child{nullptr};  // set when the branch executes

  ~Branch();  // deletes the child subtree (teardown is single-threaded)
};

/// Append-only chunked branch storage: chunk k holds 8 << k slots, so
/// branches never move once constructed — their addresses are the deque
/// entries and their atomics are CASed in place, which a reallocating
/// vector could never support. Appends (under the owning node's mutex)
/// fill the slot, then publish it with a release store of the size;
/// lock-free readers use size_acquire() or an index they obtained from a
/// published branch, so every slot they touch is fully constructed.
class BranchList {
 public:
  BranchList() = default;
  BranchList(const BranchList&) = delete;
  BranchList& operator=(const BranchList&) = delete;

  ~BranchList() {
    for (std::atomic<Branch*>& c : chunks_) {
      delete[] c.load(std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::uint32_t size_acquire() const {
    return size_.load(std::memory_order_acquire);
  }

  [[nodiscard]] Branch& operator[](std::uint32_t i) const {
    const std::uint32_t c = chunk_of(i);
    return chunks_[c].load(std::memory_order_acquire)[i - chunk_base(c)];
  }

  /// Appends and publishes a branch (caller holds the owning node's mutex).
  Branch& append(Node* owner, ActionFootprint ev, WakeupTree subtree,
                 bool pick) {
    const std::uint32_t i = size_.load(std::memory_order_relaxed);
    const std::uint32_t c = chunk_of(i);
    MCSYM_ASSERT(c < kMaxChunks);
    Branch* chunk = chunks_[c].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new Branch[std::size_t{8} << c];
      chunks_[c].store(chunk, std::memory_order_release);
    }
    Branch& b = chunk[i - chunk_base(c)];
    b.ev = std::move(ev);
    b.subtree = std::move(subtree);
    b.owner = owner;
    b.index = i;
    b.pick = pick;
    size_.store(i + 1, std::memory_order_release);
    return b;
  }

 private:
  static constexpr std::uint32_t kMaxChunks = 28;

  /// Chunk k covers indices [8*(2^k - 1), 8*(2^{k+1} - 1)).
  [[nodiscard]] static std::uint32_t chunk_of(std::uint32_t i) {
    std::uint32_t q = (i >> 3) + 1;
    std::uint32_t c = 0;
    while (q > 1) {
      q >>= 1;
      ++c;
    }
    return c;
  }

  [[nodiscard]] static std::uint32_t chunk_base(std::uint32_t c) {
    return 8u * ((1u << c) - 1u);
  }

  mutable std::atomic<Branch*> chunks_[kMaxChunks] = {};
  std::atomic<std::uint32_t> size_{0};
};

/// One frame of the shared exploration tree. parent/depth/arrival/
/// inherited_sleep/maximal are written before the node is published (via
/// its parent branch's `child` release store) and immutable afterwards;
/// `branches` grows append-only under `mu`, which also serializes grafts
/// into an unexecuted branch's subtree against that branch's execution.
struct Node {
  Node* parent = nullptr;
  std::uint32_t parent_branch = 0;
  std::uint32_t depth = 0;
  ActionFootprint arrival;  // footprint executed from parent (exact identities)
  std::vector<ActionFootprint> inherited_sleep;
  std::mutex mu;
  BranchList branches;
  bool maximal = false;  // no enabled action at this state
};

Branch::~Branch() { delete child.load(std::memory_order_relaxed); }

class ParallelExplorer {
 public:
  ParallelExplorer(const mcapi::Program& program, const DporOptions& options,
                   const support::Stopwatch& timer)
      : program_(program),
        options_(options),
        timer_(timer),
        mode_(options.mode) {}

  void run(DporResult& result);

 private:
  /// Worker-private exploration state: the executed prefix (its own
  /// journaling System, footprints and happens-before rows, rebuilt on
  /// prefix replay, never shared) walked up and down the shared tree.
  struct Worker {
    Worker(const mcapi::Program& program, mcapi::DeliveryMode mode,
           std::uint32_t worker_id)
        : prefix(program, mode),
          id(worker_id),
          rng(0x9E3779B97F4A7C15ull * (worker_id + 1)) {}
    dpor_detail::Prefix prefix;  // events[d] = arrival into path[d+1]
    std::uint32_t id;
    std::uint64_t rng;  // victim-selection stream (splitmix-style)
    std::vector<Node*> path;  // path[d] = node at depth d; back() = position
    std::vector<Action> enabled;
    std::vector<Node*> chain;  // navigate scratch
    DporStats stats;
    std::uint64_t probe = 0;  // budget-probe amortization counter
  };

  void worker_main(std::uint32_t id);
  void explore(Worker& w, Node* entry, std::uint32_t entry_branch);
  /// Executes the claimed branch `bi` of `node` (sys must be at node's
  /// state). Returns the child node to descend into, or nullptr when the
  /// branch ended (maximal state, sleep-blocked, violation, budget).
  /// `abort` is set when the whole search should stop.
  Node* execute_branch(Worker& w, Node* node, std::uint32_t bi, bool& abort);
  /// Runs the shared race scan for the event w just pushed, reading sleep
  /// coverage from and grafting reversals into the live tree.
  void scan_and_graft(Worker& w);
  void navigate(Worker& w, Node* target);
  /// Inserts `w_` below `f`, walking branches >= min_branch at the top
  /// level and every branch deeper. Locks one node at a time (appends and
  /// subtree grafts only); a fresh branch is pushed onto the calling
  /// worker's deque. Returns nodes added.
  std::size_t insert_into_node(Worker& w, Node* f, std::uint32_t min_branch,
                               std::vector<ActionFootprint> w_);
  /// One steal round: every other worker's deque once, starting at a
  /// random victim. Returns the stolen branch or nullptr (the round
  /// failed; counted in steal_failures).
  Branch* steal_round(Worker& w);

  /// Lock-free claim: exactly one caller wins the pending -> claimed CAS.
  [[nodiscard]] static bool try_claim(Branch& b) {
    std::uint8_t expected = kStatePending;
    return b.state.compare_exchange_strong(expected, kStateClaimed,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed);
  }

  /// A branch's exploration is complete (leaf outcome or subtree
  /// exhausted): mark it done and drop it from the quiescence count. The
  /// release pairs with the idle loop's acquire so a worker that observes
  /// outstanding_ == 0 sees the finished tree.
  void retire(Branch& b) {
    b.state.store(kStateDone, std::memory_order_relaxed);
    outstanding_.fetch_sub(1, std::memory_order_release);
  }

  /// Counts a just-created branch toward quiescence and exposes it to
  /// thieves via the creating worker's deque. Creation always precedes the
  /// creating branch's retire, so outstanding_ can only hit zero when the
  /// whole tree is explored.
  void publish_work(Worker& w, Branch& b) {
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    deques_[w.id]->push(&b);
  }

  const mcapi::Program& program_;
  const DporOptions& options_;
  const support::Stopwatch& timer_;
  const mcapi::DeliveryMode mode_;

  Node root_;
  std::vector<std::unique_ptr<StealDeque<Branch>>> deques_;  // one per worker
  /// Branches created but not yet retired; zero <=> exploration complete
  /// (the steal-round quiescence test — see worker_main).
  std::atomic<std::uint64_t> outstanding_{0};

  std::atomic<bool> stop_{false};
  std::atomic<bool> truncated_{false};
  std::atomic<std::uint64_t> transitions_{0};

  // Result fields (violation / deadlock / stats merge), guarded separately
  // so a finisher never contends with tree traffic.
  std::mutex result_mu_;
  DporResult* result_ = nullptr;
};

std::size_t ParallelExplorer::insert_into_node(Worker& w, Node* f,
                                               std::uint32_t min_branch,
                                               std::vector<ActionFootprint> w_) {
  // The serial engine's insert walks frame f's own wakeup tree. In the
  // live shared tree a matched branch may already be executed; the graft
  // then lands where the serial peel would have put it — the child node's
  // branch list — preserving the serial lineage of the grafted trace.
  // Below the top frame only scheduled-origin branches are chain
  // structure: a matched initial-pick sibling means the sequence routes
  // through an exploration that re-derives everything it needs itself
  // (serial's walk consumes the pick's event and drops the rest at its
  // empty-chain leaf), and a node with no scheduled-origin branches is
  // the serial chain's leaf (leaf ⊑ w: drop).
  //
  // Locking is node-local and held one node at a time: the scan + the
  // mutation it decides on (graft into an unexecuted branch's subtree, or
  // append a fresh rightmost branch) happen under the same critical
  // section, so the decision is consistent with every concurrent append
  // and with the branch-execution handoff (which takes the same mutex to
  // move the subtree and set `child`). Descending releases the lock —
  // the child's list is re-scanned under the child's own mutex.
  Node* node = f;
  std::uint32_t start = min_branch;
  bool deeper = false;
  while (true) {
    if (w_.empty()) return 0;     // an explored/scheduled path covers w
    if (node->maximal) return 0;  // executed leaf ⊑ w
    std::unique_lock<std::mutex> lock(node->mu);
    bool descended = false;
    bool has_scheduled = false;
    const std::uint32_t n = node->branches.size_acquire();
    for (std::uint32_t i = start; i < n; ++i) {
      Branch& c = node->branches[i];
      if (!c.pick) has_scheduled = true;
      const std::size_t j = weak_initial_pos(c.ev.action, w_, mode_);
      if (j == kNpos) continue;
      if (c.pick) return 0;
      w_.erase(w_.begin() + static_cast<std::ptrdiff_t>(j));
      if (Node* child = c.child.load(std::memory_order_acquire)) {
        lock.unlock();
        node = child;
        start = 0;
        deeper = true;
        descended = true;
        break;
      }
      if (w_.empty()) return 0;
      if (c.subtree.empty()) return 0;  // scheduled leaf ⊑ w
      return c.subtree.insert(std::move(w_), mode_);
    }
    if (descended) continue;
    if (deeper) {
      if (!has_scheduled) return 0;  // serial chain leaf ⊑ w
      // A deep graft lands rightmost at a LIVE frame; unlike serial's
      // pre-execution chains this node already has a sleep set, and a
      // sequence it covers is explored elsewhere.
      for (const ActionFootprint& q : node->inherited_sleep) {
        if (weak_initial_pos(q.action, w_, mode_) != kNpos) return 0;
      }
    }
    // No weak initial among the live branches: fresh rightmost branch,
    // the first event heading it and the remainder as its scheduled chain.
    std::size_t added = 1;
    WakeupTree rest_tree;
    ActionFootprint head = std::move(w_.front());
    if (w_.size() > 1) {
      std::vector<ActionFootprint> rest(std::make_move_iterator(w_.begin() + 1),
                                        std::make_move_iterator(w_.end()));
      added += rest_tree.insert(std::move(rest), mode_);
    }
    Branch& nb =
        node->branches.append(node, std::move(head), std::move(rest_tree),
                              /*pick=*/false);
    publish_work(w, nb);
    return added;
  }
}

void ParallelExplorer::scan_and_graft(Worker& w) {
  // Sleep coverage at the target frame f = path[k]: the frame's inherited
  // sleep plus the non-internal first actions of branches ordered before
  // this worker's own branch anc there (the eager ordered sleep set —
  // identical content to the serial engine's completed-sibling sleep).
  // Lock-free: inherited_sleep is immutable and the sibling prefix below
  // our own branch index was published before that branch was.
  auto covered = [&](std::size_t k, const std::vector<ActionFootprint>& v) {
    const Node* f = w.path[k];
    for (const ActionFootprint& q : f->inherited_sleep) {
      if (weak_initial_pos(q.action, v, mode_) != kNpos) return true;
    }
    const std::uint32_t anc = w.path[k + 1]->parent_branch;
    for (std::uint32_t i = 0; i < anc; ++i) {
      const Branch& sib = f->branches[i];
      if (sib.ev.internal) continue;  // internal arrivals never sleep
      if (weak_initial_pos(sib.ev.action, v, mode_) != kNpos) return true;
    }
    return false;
  };
  // The reversal lands in the live tree right of our own branch at f.
  auto schedule = [&](std::size_t k, std::vector<ActionFootprint>&& v) {
    return insert_into_node(w, w.path[k], w.path[k + 1]->parent_branch + 1,
                            std::move(v));
  };
  w.prefix.scan_races(w.stats, covered, schedule);
}

Node* ParallelExplorer::execute_branch(Worker& w, Node* node, std::uint32_t bi,
                                       bool& abort) {
  if (stop_.load(std::memory_order_relaxed)) {
    abort = true;
    return nullptr;
  }
  if (transitions_.load(std::memory_order_relaxed) >= options_.max_transitions ||
      support::over_budget(options_, timer_, w.probe)) {
    truncated_.store(true, std::memory_order_relaxed);
    stop_.store(true, std::memory_order_relaxed);
    abort = true;
    return nullptr;
  }

  // The hot claim path is lock-free end to end: this branch is ours (the
  // claim CAS already won), its ev is immutable, and the ordered-before
  // sibling prefix [0, bi) was published before this branch was — branch
  // order is append-only, so later concurrent inserts only ever land at
  // indices > bi and cannot change what we read here.
  System& sys = w.prefix.sys;
  Branch& b = node->branches[bi];
  const Action action = b.ev.action;
  bool asleep = false;
  for (const ActionFootprint& q : node->inherited_sleep) {
    if (q.action == action) {
      asleep = true;
      break;
    }
  }
  for (std::uint32_t i = 0; i < bi && !asleep; ++i) {
    const Branch& sib = node->branches[i];
    if (!sib.ev.internal && sib.ev.action == action) asleep = true;
  }
  if (asleep || !sys.action_enabled(action)) {
    // A raced duplicate: a concurrent claim committed to a linearization
    // that makes this scheduled branch redundant before it ran. The sleep
    // set kills it here, before it contributes an execution, so the trace
    // counters stay serial-exact; only parallel_duplicates records it.
    ++w.stats.parallel_duplicates;
    retire(b);
    return nullptr;
  }

  // Child sleep set, computed against the pre-step state: inherited sleep
  // plus the earlier siblings' footprints (recomputed here — same state,
  // same values the serial engine stored on completion), filtered by
  // dependence on the arriving event.
  const ActionFootprint fresh = sys.footprint(action);
  std::vector<ActionFootprint> child_sleep;
  if (fresh.internal) {
    child_sleep = node->inherited_sleep;
    for (std::uint32_t i = 0; i < bi; ++i) {
      const Branch& sib = node->branches[i];
      if (!sib.ev.internal) child_sleep.push_back(sys.footprint(sib.ev.action));
    }
  } else {
    for (const ActionFootprint& q : node->inherited_sleep) {
      if (!mcapi::dependent(fresh, q, mode_)) child_sleep.push_back(q);
    }
    for (std::uint32_t i = 0; i < bi; ++i) {
      const Branch& sib = node->branches[i];
      if (sib.ev.internal) continue;
      const ActionFootprint q = sys.footprint(sib.ev.action);
      if (!mcapi::dependent(fresh, q, mode_)) child_sleep.push_back(q);
    }
  }

  // The max_transitions budget counts every fresh apply (honest work
  // bound); stats.transitions is charged arrival-edge-exact at execution
  // completion instead, so raced-duplicate work never inflates it.
  w.prefix.push(fresh);
  transitions_.fetch_add(1, std::memory_order_relaxed);

  if (sys.has_violation()) {
    // Arrival-edge-exact: the violating execution's full path length
    // (the prefix already includes the fresh edge).
    w.stats.transitions += w.prefix.events.size();
    ++w.stats.executions;
    {
      std::lock_guard<std::mutex> g(result_mu_);
      if (!result_->violation_found) {
        result_->violation_found = true;
        result_->violation = sys.violation();
        result_->counterexample = dpor_detail::actions_of(w.prefix.events);
      }
    }
    stop_.store(true, std::memory_order_relaxed);
    abort = true;
    return nullptr;
  }

  sys.enabled(w.enabled);
  const bool maximal = w.enabled.empty();

  // Initial pick, used when the frame has nothing scheduled.
  std::vector<ActionFootprint> pick_fp;
  if (const Action* pick =
          dpor_detail::initial_pick(sys, w.enabled, child_sleep)) {
    pick_fp.push_back(sys.footprint(*pick));
  }

  // Create the child frame and — under the node's own mutex — re-route the
  // branch's scheduled subtree into it: grafts before this instant land in
  // b.subtree and are peeled here; grafts after it descend through
  // b.child. Only this handoff locks; the child's branch list is built
  // while the child is still unpublished.
  Node* cp = new Node;
  cp->parent = node;
  cp->parent_branch = bi;
  cp->depth = node->depth + 1;
  cp->arrival = fresh;
  cp->inherited_sleep = std::move(child_sleep);
  cp->maximal = maximal;
  std::uint32_t child_branches = 0;
  {
    std::lock_guard<std::mutex> g(node->mu);
    if (!maximal) {
      WakeupTree scheduled = std::move(b.subtree);
      while (!scheduled.empty()) {
        auto [ev2, sub2] = scheduled.pop_first();
        cp->branches.append(cp, std::move(ev2), std::move(sub2),
                            /*pick=*/false);
      }
      child_branches = cp->branches.size_acquire();
      if (child_branches == 0 && !pick_fp.empty()) {
        cp->branches.append(cp, std::move(pick_fp.front()), WakeupTree{},
                            /*pick=*/true);
        child_branches = 1;
      }
    }
    b.child.store(cp, std::memory_order_release);
  }
  const bool sleep_blocked = !maximal && child_branches == 0;

  // Expose the new branches to thieves, oldest-last so the deque's TOP
  // (the steal end) holds branch 1 and the bottom pop — were this worker
  // to come back for them — returns them in sibling order. Branch 0 is
  // NOT pushed: this worker claims it directly in the descent loop, so a
  // deque entry for it could only ever be a stale pop.
  for (std::uint32_t i = child_branches; i-- > 1;) {
    publish_work(w, cp->branches[i]);
  }
  if (child_branches > 0) {
    outstanding_.fetch_add(1, std::memory_order_relaxed);  // branch 0
  }

  // Race scan for the fresh event — once per tree edge, by its first (and
  // only) executor; prefix replays skip it.
  scan_and_graft(w);

  if (maximal || sleep_blocked) {
    if (maximal) {
      // Arrival-edge-exact: this completed execution's full path length.
      // Every linearization of its Mazurkiewicz trace has the same length,
      // so the charge is identical to what the serial engine records for
      // the trace's representative, whichever linearization won the claim
      // race.
      w.stats.transitions += w.prefix.events.size();
      ++w.stats.executions;
      if (sys.all_halted()) {
        ++w.stats.terminal_states;
      } else {
        std::lock_guard<std::mutex> g(result_mu_);
        result_->deadlock_found = true;
        if (result_->deadlock_schedule.empty()) {
          result_->deadlock_schedule =
              dpor_detail::actions_of(w.prefix.events);
        }
      }
    } else {
      // Every enabled action asleep: the trace this path was heading for
      // is (or will be) explored via another linearization — a raced
      // duplicate, not an execution, so it charges no transitions.
      ++w.stats.parallel_duplicates;
    }
    retire(b);
    w.prefix.pop();
    return nullptr;
  }

  w.path.push_back(cp);
  return cp;
}

void ParallelExplorer::explore(Worker& w, Node* entry, std::uint32_t entry_branch) {
  Node* node = entry;
  std::uint32_t bi = entry_branch;
  while (true) {
    bool abort = false;
    Node* child = execute_branch(w, node, bi, abort);
    if (abort) return;
    if (child != nullptr) node = child;
    // Claim the next pending branch at the current frame — a lock-free CAS
    // scan in sibling order — ascending (and retiring finished branches)
    // until one is found or the claimed subtree is exhausted. The deque
    // may still hold entries for branches claimed here; their claim CAS
    // fails at the popper/thief and they are skipped.
    while (true) {
      if (stop_.load(std::memory_order_relaxed)) return;
      std::uint32_t next = kNoBranch;
      const std::uint32_t n = node->branches.size_acquire();
      for (std::uint32_t i = 0; i < n; ++i) {
        Branch& c = node->branches[i];
        if (c.state.load(std::memory_order_relaxed) != kStatePending) continue;
        if (try_claim(c)) {
          next = i;
          break;
        }
        ++w.stats.claim_conflicts;  // observed pending, lost the CAS
      }
      if (next != kNoBranch) {
        bi = next;
        break;  // execute it (outer loop)
      }
      if (node == entry) return;  // claimed subtree fully explored
      Node* parent = node->parent;
      retire(parent->branches[node->parent_branch]);
      w.prefix.pop();
      w.path.pop_back();
      node = parent;
    }
  }
}

void ParallelExplorer::navigate(Worker& w, Node* target) {
  w.chain.clear();
  for (Node* n = target; n != nullptr; n = n->parent) w.chain.push_back(n);
  std::reverse(w.chain.begin(), w.chain.end());
  std::size_t common = 0;
  while (common < w.path.size() && common < w.chain.size() &&
         w.path[common] == w.chain[common]) {
    ++common;
  }
  MCSYM_ASSERT(common >= 1);  // the root is always shared
  while (w.path.size() > common) {
    w.prefix.pop();
    w.path.pop_back();
  }
  const std::uint64_t replayed = w.chain.size() - common;
  w.stats.max_replay_depth = std::max(w.stats.max_replay_depth, replayed);
  for (std::size_t d = common; d < w.chain.size(); ++d) {
    Node* n = w.chain[d];
    // The stored arrival footprint was computed at this exact state by the
    // first executor; replaying rebuilds events/hb but never re-scans.
    w.prefix.push(n->arrival);
    w.path.push_back(n);
  }
}

Branch* ParallelExplorer::steal_round(Worker& w) {
  const std::uint32_t n = static_cast<std::uint32_t>(deques_.size());
  if (n <= 1) return nullptr;
  // splitmix-style advance; the high bits pick the starting victim.
  w.rng = w.rng * 6364136223846793005ull + 1442695040888963407ull;
  const std::uint32_t start = static_cast<std::uint32_t>((w.rng >> 33) % n);
  for (std::uint32_t k = 0; k < n; ++k) {
    const std::uint32_t v = (start + k) % n;
    if (v == w.id) continue;
    bool lost = false;
    do {
      if (Branch* b = deques_[v]->steal(lost)) return b;
    } while (lost);  // lost CAS means work exists: retry this victim
  }
  return nullptr;
}

void ParallelExplorer::worker_main(std::uint32_t id) {
  Worker w(program_, mode_, id);
  w.path.push_back(&root_);

  std::uint32_t idle_rounds = 0;
  while (!stop_.load(std::memory_order_relaxed)) {
    Branch* b = deques_[id]->pop();
    const bool stolen = b == nullptr;
    if (stolen) {
      b = steal_round(w);
      if (b == nullptr) {
        ++w.stats.steal_failures;
        // Steal-round quiescence: nothing to pop, nothing to steal — if no
        // branch anywhere is live, the exploration is complete. Otherwise
        // a busy worker may still publish work; back off and retry (yield
        // first, short sleeps once the fleet is clearly draining).
        if (outstanding_.load(std::memory_order_acquire) == 0) break;
        if (idle_rounds < 4) {
          std::this_thread::yield();
        } else {
          const std::uint32_t shift = std::min(idle_rounds - 4u, 5u);
          std::this_thread::sleep_for(
              std::chrono::microseconds(std::uint64_t{25} << shift));
        }
        ++idle_rounds;
        continue;
      }
      ++w.stats.steals;
    }
    idle_rounds = 0;
    if (!try_claim(*b)) {
      // Stale deque entry (the owner claimed it during its own descent) or
      // a genuinely lost race; either way someone else runs it. Own-deque
      // staleness is the common, uncontended case — only a stolen entry
      // that slips away counts as a conflict.
      if (stolen) ++w.stats.claim_conflicts;
      continue;
    }
    navigate(w, b->owner);
    explore(w, b->owner, b->index);
  }

  std::lock_guard<std::mutex> g(result_mu_);
  DporStats& st = result_->stats;
  st.transitions += w.stats.transitions;
  st.executions += w.stats.executions;
  st.terminal_states += w.stats.terminal_states;
  st.sleep_prunes += w.stats.sleep_prunes;
  st.races_detected += w.stats.races_detected;
  st.wakeup_nodes += w.stats.wakeup_nodes;
  st.redundant_explorations += w.stats.redundant_explorations;
  st.parallel_duplicates += w.stats.parallel_duplicates;
  st.steals += w.stats.steals;
  st.steal_failures += w.stats.steal_failures;
  st.claim_conflicts += w.stats.claim_conflicts;
  st.max_replay_depth = std::max(st.max_replay_depth, w.stats.max_replay_depth);
}

void ParallelExplorer::run(DporResult& result) {
  result_ = &result;
  DporStats& st = result.stats;

  // Root arrival checks, mirroring the serial loop's first iteration.
  System sys0(program_, mode_);
  if (sys0.has_violation()) {
    result.violation_found = true;
    result.violation = sys0.violation();
    ++st.executions;
    return;
  }
  std::vector<Action> enabled;
  sys0.enabled(enabled);
  if (enabled.empty()) {
    ++st.executions;
    if (sys0.all_halted()) {
      ++st.terminal_states;
    } else {
      result.deadlock_found = true;  // schedule stays empty: initial state
    }
    return;
  }
  const Action* pick = dpor_detail::initial_pick(sys0, enabled, {});

  const std::uint32_t n = options_.workers;
  deques_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    deques_.push_back(std::make_unique<StealDeque<Branch>>());
  }
  Branch& seed = root_.branches.append(&root_, sys0.footprint(*pick),
                                       WakeupTree{}, /*pick=*/true);
  outstanding_.store(1, std::memory_order_relaxed);
  deques_[0]->push(&seed);

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    threads.emplace_back([this, i] { worker_main(i); });
  }
  for (std::thread& t : threads) t.join();
  if (truncated_.load(std::memory_order_relaxed)) result.truncated = true;
}

}  // namespace

void DporChecker::run_parallel(DporResult& result,
                               const support::Stopwatch& timer) {
  ParallelExplorer explorer(program_, options_, timer);
  explorer.run(result);
}

}  // namespace mcsym::check
