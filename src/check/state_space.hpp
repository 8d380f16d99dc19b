// The search layer the exhaustive engines share (explicit, optimal DPOR,
// sleep-set DPOR): common options and result, and stateful exploration
// over mcapi::System fingerprints. The stateless engines terminate only on
// finite-horizon programs: a select_server-style loop keeps DPOR
// descending forever and lets explicit report a vacuous "safe" after
// pruning the spin states unclassified. StatefulSearch cuts subtrees
// already explored (VisitedStateStore) and cycles on the current path
// (CycleStack). A cycle is NON-PROGRESSIVE when no message matched between
// the two visits (a fired assertion is terminal and part of the
// fingerprint, so it cannot sit inside a cycle): a real infinite behavior
// under an adversarial scheduler (a livelock lasso, à la SimGrid's
// check_non_termination), reported as Verdict::kNonTermination with the
// lasso — stem to the first visit, cycle between the visits — as a
// replayable witness.
#pragma once

#include <cstdint>
#include <cstddef>
#include <functional>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mcapi/system.hpp"

namespace mcsym::check {

/// Telemetry of one stateful exploration, surfaced as mcsym.verify/1
/// counters (visited_states / state_hits / states_dropped / cycles_found).
struct StateSpaceStats {
  std::uint64_t visited_states = 0;  // distinct fingerprints stored
  std::uint64_t state_hits = 0;      // subtrees cut by a store hit
  std::uint64_t states_dropped = 0;  // LRU evictions (capacity pressure)
  std::uint64_t cycles_found = 0;    // on-stack revisits (any kind)
  std::uint64_t nonprogressive_cycles = 0;  // livelock lassos among them
};

/// LRU-bounded set of semantic state fingerprints (System::fingerprint:
/// pcs, locals, queues, requests — match/branch history excluded, so loop
/// iterations that restore the state genuinely repeat). A hit refreshes
/// the entry; an insert at capacity evicts the least-recently-seen
/// fingerprint (the exploration may then revisit that state — wasted work,
/// bounded memory, no soundness impact because cycle cutting is the
/// CycleStack's job, not the store's).
class VisitedStateStore {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 20;

  /// capacity == 0 means unbounded (no eviction).
  explicit VisitedStateStore(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  /// Lookup-and-record: returns true (a hit, entry refreshed) when `fp`
  /// is stored, otherwise inserts it (evicting if at capacity) and
  /// returns false.
  bool visit(std::uint64_t fp);

  /// Pure lookup; no counters, no LRU motion.
  [[nodiscard]] bool contains(std::uint64_t fp) const {
    return map_.find(fp) != map_.end();
  }

  /// Insert without the hit path (caller already knows `fp` is absent).
  void insert(std::uint64_t fp);

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t inserts() const { return inserts_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  void clear();

 private:
  void evict_to_capacity();

  std::size_t capacity_;
  std::list<std::uint64_t> lru_;  // front = most recently seen
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Fingerprints of the states on the current DFS path, each with the depth
/// it was reached at and the progress marker (match count) observed there.
/// Since every engine cuts descent at the first on-stack revisit, the
/// fingerprints on the stack are pairwise distinct and a flat map suffices.
class CycleStack {
 public:
  struct Visit {
    std::size_t depth;     // actions applied when the state was first seen
    std::size_t progress;  // matches().size() at that visit
  };

  /// The previous on-stack visit of `fp`, if any (a closed cycle).
  [[nodiscard]] std::optional<Visit> find(std::uint64_t fp) const {
    const auto it = frames_.find(fp);
    if (it == frames_.end()) return std::nullopt;
    return it->second;
  }

  void push(std::uint64_t fp, std::size_t depth, std::size_t progress) {
    frames_.emplace(fp, Visit{depth, progress});
  }
  void pop(std::uint64_t fp) { frames_.erase(fp); }
  void clear() { frames_.clear(); }
  [[nodiscard]] std::size_t size() const { return frames_.size(); }

 private:
  std::unordered_map<std::uint64_t, Visit> frames_;
};

/// Splits the realized path `script` at `depth` into the lasso witness:
/// stem = script[0, depth), cycle = script[depth, end). Replaying the stem
/// reaches the cycle's entry state; replaying the cycle from there returns
/// to it (same fingerprint), which is what makes the witness checkable.
template <typename ActionT>
void split_lasso(const std::vector<ActionT>& script, std::size_t depth,
                 std::vector<ActionT>& stem, std::vector<ActionT>& cycle) {
  stem.assign(script.begin(),
              script.begin() + static_cast<std::ptrdiff_t>(depth));
  cycle.assign(script.begin() + static_cast<std::ptrdiff_t>(depth),
               script.end());
}

/// Settings every exhaustive engine shares; ExplicitOptions and DporOptions
/// add their own step budget.
struct SearchOptions {
  mcapi::DeliveryMode mode = mcapi::DeliveryMode::kArbitraryDelay;
  /// Wall-clock budget in seconds; 0 = unlimited. Exceeding it abandons the
  /// search with result.truncated set, exactly like the step budget (the
  /// shared Budget of the check::Verifier facade maps here).
  double max_seconds = 0;
  /// Optional cooperative cancellation probe, polled on the same amortized
  /// schedule as the wall clock: returning true abandons the search with
  /// result.truncated set. The Verifier facade routes its
  /// progress/cancellation callback through this hook.
  std::function<bool()> interrupted;
  /// Stateful exploration (StatefulSearch): on-path revisits cut descent
  /// and are classified, a non-progressive cycle is reported as a
  /// non-termination lasso, and store hits prune. Explicit stores every
  /// state and prunes on any hit, so on loop-free programs its verdicts and
  /// witnesses equal the stateless run's. DPOR stores only sleep-free nodes
  /// (a node with a non-empty sleep set skips behaviors covered elsewhere),
  /// and prunes on a hit only when no wakeup subtree is scheduled at the
  /// node, so scheduled race reversals are never discarded. Cut paths count
  /// in the state-space counters, never in executions or transitions.
  /// CAVEAT (DPOR) — a reversal whose target lies beyond a cut revisit is
  /// dropped with the cut, so on cyclic programs stateful DPOR is a
  /// terminating semi-decision procedure for reachability, cross-checked
  /// against stateful explicit by the differential loop battery; on
  /// loop-free programs verdicts and witnesses are unchanged.
  /// Ignored by ExplicitChecker::enumerate_against().
  bool stateful = false;
  /// Visited-store capacity in states for stateful mode; 0 = unbounded.
  /// Eviction trades re-exploration for bounded memory — termination is
  /// preserved by the on-stack cycle cut, which never depends on the store.
  std::size_t state_capacity = VisitedStateStore::kDefaultCapacity;
};

/// What every exhaustive search answers; ExplicitResult and DporResult add
/// their own counters.
struct SearchResult {
  bool violation_found = false;
  std::optional<mcapi::Violation> violation;
  /// Action schedule reaching the violation (replayable via mcapi::replay).
  std::vector<mcapi::Action> counterexample;
  bool deadlock_found = false;
  /// Action schedule reaching the first deadlock found (replayable).
  std::vector<mcapi::Action> deadlock_schedule;
  /// Stateful mode: a non-progressive cycle was realized — the program can
  /// run forever without externally visible progress. The witness is the
  /// lasso: replay `lasso_stem` from the initial state to enter the cycle,
  /// then `lasso_cycle` returns to the same semantic state.
  bool non_termination_found = false;
  std::vector<mcapi::Action> lasso_stem;
  std::vector<mcapi::Action> lasso_cycle;
  bool truncated = false;
  double seconds = 0;
};

/// The visited-state bookkeeping of one stateful search: the store, the
/// states on the current path, and their telemetry. An engine calls
/// enter() when it arrives at a state and leave() when it backtracks out
/// of a state enter() accepted; engines differ only in the Store policy
/// they pass (see SearchOptions::stateful).
class StatefulSearch {
 public:
  /// What enter() does with the store at a state that is not on the path.
  enum class Store : std::uint8_t {
    kPrune,   // lookup-and-record: a hit cuts the subtree
    kRecord,  // record the state, never cut
    kSkip,    // leave the store alone
  };

  /// A search with a store of `capacity` states (0 = unbounded).
  explicit StatefulSearch(std::size_t capacity = 0) : store_(capacity) {}

  /// Arrival at the current state of `sys`, reached by the `depth` actions
  /// of the path; false means do not descend. An on-path revisit closes a
  /// cycle and is counted; the first non-progressive one's lasso goes into
  /// `result`, splitting `path()` (the schedule of those actions) at the
  /// first visit. A store hit under Store::kPrune also returns false.
  /// Otherwise the state joins the path.
  template <class Path>
  bool enter(const mcapi::System& sys, std::size_t depth, Store store,
             SearchResult& result, Path&& path) {
    const std::uint64_t fp = sys.fingerprint();
    const std::size_t progress = sys.matches().size();
    if (const auto prev = path_.find(fp)) {
      ++stats_.cycles_found;
      if (progress <= prev->progress) {
        ++stats_.nonprogressive_cycles;
        if (!result.non_termination_found) {
          result.non_termination_found = true;
          split_lasso(path(), prev->depth, result.lasso_stem,
                      result.lasso_cycle);
        }
      }
      return false;
    }
    if (store == Store::kPrune) {
      if (store_.visit(fp)) return false;
    } else if (store == Store::kRecord && !store_.contains(fp)) {
      store_.insert(fp);
    }
    path_.push(fp, depth, progress);
    entered_.push_back(fp);
    return true;
  }

  /// enter() for an engine that keeps its path as a schedule.
  bool enter(const mcapi::System& sys, Store store, SearchResult& result,
             const std::vector<mcapi::Action>& path) {
    return enter(sys, path.size(), store, result,
                 [&]() -> const std::vector<mcapi::Action>& { return path; });
  }

  /// Backtracks out of the last state enter() accepted.
  void leave() {
    path_.pop(entered_.back());
    entered_.pop_back();
  }

  /// The telemetry so far: the store's inserts, hits and evictions, and
  /// the cycles enter() found.
  [[nodiscard]] StateSpaceStats stats() const;

 private:
  VisitedStateStore store_;
  CycleStack path_;
  std::vector<std::uint64_t> entered_;  // the path's fingerprints, in order
  StateSpaceStats stats_;               // cycle counts only
};

}  // namespace mcsym::check
