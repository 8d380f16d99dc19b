// Integer difference logic theory solver (DPLL(T) plugin).
//
// Atoms have the canonical form `x - y <= k`. Asserting one adds the edge
// (y -> x, k) to a constraint graph; the conjunction of asserted atoms is
// satisfiable iff the graph has no negative cycle. We maintain a feasible
// potential function pi (Cotton & Maler, "Fast and flexible difference
// constraint propagation", SAT'06): every accepted edge (u -> v, w) keeps the
// reduced cost pi(u) + w - pi(v) >= 0. A new violating edge triggers a
// Dijkstra-style repair over reduced costs; if the repair would improve the
// potential of the new edge's source, the relaxation path plus the new edge
// form a negative cycle, which we report as the conflict explanation.
// Potential updates are buffered and rolled back on conflict so pi always
// stays feasible for the accepted edge set. Backtracking just pops edges;
// a feasible potential for a superset is feasible for any subset, so pi
// survives backjumps untouched (that asymmetry is what makes this solver
// cheap inside CDCL search).
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "smt/sat_solver.hpp"
#include "smt/types.hpp"

namespace mcsym::smt {

/// Dense index of an integer theory variable (a graph node).
using IntVarId = std::uint32_t;

struct IdlStats {
  std::uint64_t edges_asserted = 0;
  std::uint64_t repairs = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t relaxations = 0;
};

class IdlTheory final : public TheoryClient {
 public:
  explicit IdlTheory(SatSolver& sat);

  /// Creates a theory variable (graph node). Index 0 is pre-created as the
  /// distinguished origin that stands for the constant 0 in atoms.
  IntVarId new_int_var();
  [[nodiscard]] IntVarId origin() const { return 0; }
  [[nodiscard]] std::uint32_t num_int_vars() const {
    return static_cast<std::uint32_t>(pi_.size());
  }

  /// Returns the positive literal of a fresh SAT variable that stands for
  /// the atom `x - y <= k`, registered as theory-relevant with the SAT
  /// solver. Callers deduplicate: CnfBuilder converts each hash-consed
  /// kLeAtom term once, and distinct terms give distinct (x, y, k).
  Lit atom(IntVarId x, IntVarId y, std::int64_t k);

  // TheoryClient interface -----------------------------------------------
  bool theory_assign(Lit lit) override;
  void theory_backtrack(std::size_t kept) override;
  bool theory_final_check() override;
  void theory_explain(std::vector<Lit>& out) override;

  /// Integer model, valid after the owning solve() returned SAT (snapshotted
  /// by theory_final_check, normalized so the origin maps to 0).
  [[nodiscard]] std::int64_t model_value(IntVarId v) const;

  [[nodiscard]] const IdlStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t num_atoms() const { return num_atoms_; }

 private:
  struct Edge {
    IntVarId from;
    IntVarId to;
    std::int64_t weight;
    Lit lit;  // the true literal this edge came from
  };

  /// Adds edge (u -> v, w) for `lit`; returns false on negative cycle, in
  /// which case the edge is not recorded and conflict_ holds the explanation.
  bool add_edge(IntVarId u, IntVarId v, std::int64_t w, Lit lit);

  SatSolver& sat_;

  // Atom of every SAT variable, indexed by Var (read on every theory
  // assignment); variables that stand for no atom hold kNoAtom.
  struct Atom {
    IntVarId x;
    IntVarId y;
    std::int64_t k;
    bool operator==(const Atom&) const = default;
  };
  static constexpr Atom kNoAtom{0xffffffffu, 0xffffffffu, 0};
  std::vector<Atom> var_atoms_;
  std::size_t num_atoms_ = 0;

  // Constraint graph. adjacency_[node] holds indices into edges_; edges are
  // pushed/popped in assignment order, so adjacency tails pop in lockstep.
  std::vector<Edge> edges_;
  std::vector<std::vector<std::uint32_t>> adjacency_;

  // Feasible potential and repair scratch (stamped to avoid clearing).
  std::vector<std::int64_t> pi_;
  std::vector<std::int64_t> gamma_;
  std::vector<std::uint32_t> stamp_;      // gamma/parent validity stamp
  std::vector<std::uint32_t> scanned_;    // committed-this-repair stamp
  std::vector<std::uint32_t> parent_edge_;
  std::uint32_t repair_stamp_ = 0;
  std::vector<std::pair<IntVarId, std::int64_t>> pi_undo_;

  std::vector<Lit> conflict_;

  // Model snapshot taken at final check.
  std::vector<std::int64_t> model_pi_;

  IdlStats stats_;
};

}  // namespace mcsym::smt
