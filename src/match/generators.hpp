// Match-pair generators.
//
// Two producers, matching the paper's §3:
//
//  * generate_overapprox — cheap, sound: every send targeting the receive's
//    endpoint is a candidate, minus same-thread sends that program order
//    already places after the receive's completion. This is the "reasonable
//    over-approximation" the paper names as future work; the encoding's
//    order/uniqueness constraints then exclude the infeasible pairs.
//
//  * enumerate_feasible — the paper's precise method: a depth-first abstract
//    execution of the trace skeleton (per-thread event sequences fixed, all
//    interleavings and delivery delays explored). Yields both the precise
//    per-receive candidate sets and the full set of complete matchings — the
//    ground truth the symbolic engine is validated against. Worst-case
//    exponential, which is exactly the cost the paper calls "prohibitively
//    expensive" (bench E4 measures it).
//
// DeliverySemantics::kGlobalFifo restricts the abstract network to deliver
// messages in global send order — the MCC baseline's world — so the missing
// Figure-4b behaviors can be demonstrated by diffing the two matchings sets.
#pragma once

#include <cstdint>
#include <set>

#include "match/match_set.hpp"
#include "trace/trace.hpp"

namespace mcsym::match {

[[nodiscard]] MatchSet generate_overapprox(const trace::Trace& trace);

enum class DeliverySemantics : std::uint8_t {
  kArbitraryDelay,  // paper semantics
  kGlobalFifo,      // MCC baseline: no cross-channel reordering
};

struct FeasibleOptions {
  DeliverySemantics semantics = DeliverySemantics::kArbitraryDelay;
  /// Budget on complete executions explored before giving up (the result is
  /// then marked truncated and `precise` may be incomplete).
  std::uint64_t max_paths = 1'000'000;
  /// Memoize visited (abstract state, accumulated matching) pairs: two paths
  /// converging on the same pair have identical suffix enumerations, so the
  /// second is pruned without losing any matching. Off = the paper's naive
  /// depth-first abstract execution (the "prohibitively expensive" baseline,
  /// ablated in bench E4).
  bool dedup_states = true;
  /// Budget on distinct memoized states (dedup_states only); exceeding it
  /// marks the result truncated.
  std::uint64_t max_states = 8'000'000;
};

struct FeasibleResult {
  MatchSet precise;              // pairs witnessed by a complete execution
  std::set<Matching> matchings;  // all distinct complete matchings
  bool truncated = false;
  std::uint64_t paths_explored = 0;   // complete executions (pre-dedup)
  std::uint64_t states_expanded = 0;  // DFS nodes
  std::uint64_t dedup_hits = 0;       // subtrees pruned by memoization
};

[[nodiscard]] FeasibleResult enumerate_feasible(const trace::Trace& trace,
                                                FeasibleOptions options = {});

}  // namespace mcsym::match
