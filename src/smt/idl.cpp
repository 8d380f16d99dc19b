#include "smt/idl.hpp"

#include <algorithm>

namespace mcsym::smt {

IdlTheory::IdlTheory(SatSolver& sat) : sat_(sat) {
  sat_.set_theory(this);
  new_int_var();  // node 0: the origin (constant 0)
}

IntVarId IdlTheory::new_int_var() {
  const IntVarId v = static_cast<IntVarId>(pi_.size());
  pi_.push_back(0);
  gamma_.push_back(0);
  stamp_.push_back(0);
  scanned_.push_back(0);
  parent_edge_.push_back(0);
  adjacency_.emplace_back();
  return v;
}

Lit IdlTheory::atom(IntVarId x, IntVarId y, std::int64_t k) {
  MCSYM_ASSERT(x < pi_.size() && y < pi_.size());
  const Var v = sat_.new_var(/*theory_relevant=*/true);
  if (v >= var_atoms_.size()) var_atoms_.resize(v + 1, kNoAtom);
  var_atoms_[v] = Atom{x, y, k};
  ++num_atoms_;
  return Lit::make(v, false);
}

bool IdlTheory::theory_assign(Lit lit) {
  MCSYM_ASSERT_MSG(lit.var() < var_atoms_.size() && var_atoms_[lit.var()] != kNoAtom,
                   "unknown theory atom");
  const Atom& a = var_atoms_[lit.var()];
  // Atom: x - y <= k, i.e. edge (y -> x, k).
  // Negation: y - x <= -k-1, i.e. edge (x -> y, -k-1).
  if (!lit.negated()) {
    return add_edge(a.y, a.x, a.k, lit);
  }
  return add_edge(a.x, a.y, -a.k - 1, lit);
}

bool IdlTheory::add_edge(IntVarId u, IntVarId v, std::int64_t w, Lit lit) {
  ++stats_.edges_asserted;
  auto record = [&] {
    adjacency_[u].push_back(static_cast<std::uint32_t>(edges_.size()));
    edges_.push_back(Edge{u, v, w, lit});
  };

  if (u == v) {
    if (w >= 0) {  // x - x <= k with k >= 0: vacuous, keep for bookkeeping
      record();
      return true;
    }
    ++stats_.conflicts;
    conflict_.assign(1, lit);
    return false;
  }
  if (pi_[u] + w - pi_[v] >= 0) {  // reduced cost nonnegative: still feasible
    record();
    return true;
  }

  // Repair pi with a Dijkstra-like pass over reduced costs, starting from the
  // violated head v. All pi changes go through `commit` so a detected cycle
  // can roll them back, keeping pi feasible for the accepted edges.
  ++stats_.repairs;
  ++repair_stamp_;
  pi_undo_.clear();
  using QEntry = std::pair<std::int64_t, IntVarId>;  // (slack, node), min first
  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> queue;

  gamma_[v] = pi_[u] + w;
  stamp_[v] = repair_stamp_;
  // parent_edge_ holds the edge used to improve the node; the new edge is not
  // in edges_ yet, so the sentinel 0xffffffff marks "improved by new edge".
  parent_edge_[v] = 0xffffffffu;
  queue.emplace(gamma_[v] - pi_[v], v);

  auto rollback = [&] {
    for (auto rit = pi_undo_.rbegin(); rit != pi_undo_.rend(); ++rit) {
      pi_[rit->first] = rit->second;
    }
  };

  while (!queue.empty()) {
    const auto [slack, t] = queue.top();
    queue.pop();
    if (scanned_[t] == repair_stamp_) continue;                    // already committed
    if (stamp_[t] != repair_stamp_ || gamma_[t] - pi_[t] != slack) continue;  // stale
    if (slack >= 0) continue;  // no violation left on this node

    if (t == u) {
      // Improving the source of the new edge closes a negative cycle:
      // u -(new)-> v -> ... -> u. Walk the parent chain for the explanation.
      ++stats_.conflicts;
      conflict_.clear();
      conflict_.push_back(lit);
      IntVarId walk = u;
      while (parent_edge_[walk] != 0xffffffffu) {
        const Edge& e = edges_[parent_edge_[walk]];
        conflict_.push_back(e.lit);
        walk = e.from;
      }
      MCSYM_ASSERT_MSG(walk == v, "explanation chain must end at the new edge head");
      rollback();
      return false;
    }

    pi_undo_.emplace_back(t, pi_[t]);
    pi_[t] = gamma_[t];
    scanned_[t] = repair_stamp_;
    for (const std::uint32_t ei : adjacency_[t]) {
      const Edge& e = edges_[ei];
      if (scanned_[e.to] == repair_stamp_) continue;
      ++stats_.relaxations;
      const std::int64_t candidate = pi_[t] + e.weight;
      const std::int64_t current =
          stamp_[e.to] == repair_stamp_ ? gamma_[e.to] : pi_[e.to];
      if (candidate < current) {
        gamma_[e.to] = candidate;
        stamp_[e.to] = repair_stamp_;
        parent_edge_[e.to] = ei;
        queue.emplace(candidate - pi_[e.to], e.to);
      }
    }
  }

  MCSYM_ASSERT_MSG(pi_[u] + w - pi_[v] >= 0, "repair must restore feasibility");
  record();
  return true;
}

void IdlTheory::theory_backtrack(std::size_t kept) {
  // Every accepted assignment pushed exactly one edge, so the edge stack and
  // the theory trail stay in lockstep. Pop suffixes; pi stays feasible.
  MCSYM_ASSERT(kept <= edges_.size());
  while (edges_.size() > kept) {
    const Edge& e = edges_.back();
    MCSYM_ASSERT(!adjacency_[e.from].empty() &&
                 adjacency_[e.from].back() == edges_.size() - 1);
    adjacency_[e.from].pop_back();
    edges_.pop_back();
  }
}

bool IdlTheory::theory_final_check() {
  // Eager per-assignment checking keeps the graph feasible at all times, so
  // the final check only snapshots the arithmetic model.
  model_pi_ = pi_;
  return true;
}

void IdlTheory::theory_explain(std::vector<Lit>& out) { out = conflict_; }

std::int64_t IdlTheory::model_value(IntVarId v) const {
  MCSYM_ASSERT_MSG(v < model_pi_.size(), "no model snapshot for this variable");
  // pi satisfies pi(x) - pi(y) <= k for every asserted atom; shift so the
  // origin (constant 0) really evaluates to 0.
  return model_pi_[v] - model_pi_[origin()];
}

}  // namespace mcsym::smt
