// CDCL SAT solver with a theory hook (the boolean engine of the DPLL(T)
// solver used to decide the paper's SMT problems).
//
// Feature set: two-literal watching with blockers, 1UIP conflict analysis
// with recursive clause minimization, EVSIDS branching, phase saving, Luby
// restarts, LBD-aware learnt-clause reduction, arena GC, assumptions, and a
// lazy-theory interface (the IDL solver plugs in via TheoryClient).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "smt/clause.hpp"
#include "smt/heap.hpp"
#include "smt/types.hpp"

namespace mcsym::smt {

/// Lazy SMT theory interface.
///
/// Protocol: after every propagation fixpoint the solver feeds newly assigned
/// theory-relevant literals, in trail order, to `theory_assign`. A `false`
/// return signals a theory conflict; the offending assignment must NOT have
/// been recorded by the theory, and `theory_explain` must yield the set of
/// *currently true* literals whose conjunction is theory-inconsistent
/// (including the literal that was just rejected). On backjumps the solver
/// calls `theory_backtrack(kept)` where `kept` is the number of accepted
/// assignments that remain valid (they form a prefix, since assignments are
/// fed in trail order and backjumps remove trail suffixes).
class TheoryClient {
 public:
  virtual ~TheoryClient() = default;

  virtual bool theory_assign(Lit lit) = 0;
  virtual void theory_backtrack(std::size_t kept) = 0;

  /// Called on a full boolean assignment with no pending conflicts. Returning
  /// false (with an explanation) vetoes the model. Exhaustive eager checking
  /// in `theory_assign` may make this a no-op, which is the IDL case.
  virtual bool theory_final_check() = 0;

  virtual void theory_explain(std::vector<Lit>& out) = 0;
};

enum class SolveResult : std::uint8_t { kSat, kUnsat, kUnknown };

struct SatStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t theory_conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learnt_literals = 0;
  std::uint64_t minimized_literals = 0;
  std::uint64_t reductions = 0;
};

class SatSolver {
 public:
  SatSolver();

  SatSolver(const SatSolver&) = delete;
  SatSolver& operator=(const SatSolver&) = delete;

  /// Creates a fresh variable. `theory_relevant` marks atoms the theory wants
  /// to hear about; `preferred_phase` seeds phase saving.
  Var new_var(bool theory_relevant = false, bool preferred_phase = false);

  [[nodiscard]] std::uint32_t num_vars() const {
    return static_cast<std::uint32_t>(assigns_.size());
  }
  /// Stored problem clauses: level-0 units, satisfied clauses and
  /// tautologies never reach the database.
  [[nodiscard]] std::size_t num_problem_clauses() const {
    return problem_clauses_.size();
  }

  /// Adds a problem clause. Returns false if the formula is now trivially
  /// unsatisfiable (empty clause after level-0 simplification).
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  void set_theory(TheoryClient* theory) { theory_ = theory; }

  /// Overwrites the saved phase of `lit`'s variable so that the next
  /// decision on it (if any) assigns `lit` true. Search stays complete:
  /// only the branching polarity changes, never the clause set.
  void set_phase(Lit lit) { saved_phase_[lit.var()] = lit.negated() ? 0 : 1; }

  /// Solves under the given assumptions. Leaves the solver at decision level
  /// zero afterwards; the model (if SAT) is retained until the next solve.
  SolveResult solve(std::span<const Lit> assumptions = {});

  /// After solve(assumptions) returned kUnsat: the subset of the assumption
  /// literals that participated in the refutation (an unsat core over the
  /// assumptions; empty when the formula is unsatisfiable on its own).
  [[nodiscard]] const std::vector<Lit>& failed_assumptions() const {
    return failed_assumptions_;
  }

  /// Bounds the next solve call; 0 means no bound. When the bound trips,
  /// solve returns kUnknown.
  void set_conflict_budget(std::uint64_t max_conflicts) {
    conflict_budget_ = max_conflicts;
  }

  /// Model access, valid after solve() returned kSat.
  [[nodiscard]] LBool model_value(Var v) const;
  [[nodiscard]] bool model_is_true(Lit l) const {
    return lit_value(model_value(l.var()), l.negated()) == LBool::kTrue;
  }

  /// Current (partial) assignment; used by the theory for explanations.
  [[nodiscard]] LBool value(Var v) const { return assigns_[v]; }
  [[nodiscard]] LBool value(Lit l) const {
    return lit_value(assigns_[l.var()], l.negated());
  }

  [[nodiscard]] const SatStats& stats() const { return stats_; }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  struct Watcher {
    ClauseRef cref;
    Lit blocker;
  };

  struct VarInfo {
    ClauseRef reason = kNoClause;
    std::uint32_t level = 0;
  };

  [[nodiscard]] std::uint32_t decision_level() const {
    return static_cast<std::uint32_t>(trail_lim_.size());
  }

  void attach_clause(ClauseRef ref);
  void detach_clause(ClauseRef ref);
  void enqueue(Lit l, ClauseRef reason);
  ClauseRef propagate();
  bool theory_propagate(std::vector<Lit>& conflict_out);
  void cancel_until(std::uint32_t level);
  void analyze(std::span<const Lit> conflict, std::vector<Lit>& learnt,
               std::uint32_t& backtrack_level, std::uint32_t& lbd);
  void analyze_final(Lit p);
  bool lit_redundant(Lit l, std::uint32_t abstract_levels);
  Lit pick_branch_lit();
  void bump_var(Var v);
  void decay_var_activity();
  void bump_clause(Clause& c);
  void decay_clause_activity();
  void reduce_learnts();
  void garbage_collect_if_needed();
  [[nodiscard]] std::uint32_t compute_lbd(std::span<const Lit> lits);
  SolveResult search();

  // Problem / learnt clause database.
  ClauseArena arena_;
  std::vector<ClauseRef> problem_clauses_;
  std::vector<ClauseRef> learnt_clauses_;

  // Assignment state.
  std::vector<LBool> assigns_;
  std::vector<VarInfo> var_info_;
  std::vector<std::uint8_t> saved_phase_;
  std::vector<std::uint8_t> theory_relevant_;
  std::vector<Lit> trail_;
  std::vector<std::uint32_t> trail_lim_;
  std::size_t qhead_ = 0;

  // Theory integration.
  TheoryClient* theory_ = nullptr;
  std::vector<Lit> theory_trail_;  // accepted theory assignments, trail order
  std::size_t theory_head_ = 0;    // next trail index to feed to the theory

  // Watchers, indexed by literal code.
  std::vector<std::vector<Watcher>> watches_;

  // Branching.
  std::vector<double> activity_;
  ActivityHeap order_heap_;
  double var_inc_ = 1.0;

  // Clause activity.
  double cla_inc_ = 1.0;

  // add_clause scratch: the normalized literals.
  std::vector<Lit> add_scratch_;

  // Analyze scratch.
  std::vector<std::uint8_t> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> analyze_toclear_;
  std::vector<std::uint32_t> lbd_seen_;
  std::uint32_t lbd_stamp_ = 0;

  // Search control.
  bool ok_ = true;
  std::uint64_t conflict_budget_ = 0;
  std::uint64_t conflicts_this_solve_ = 0;
  double max_learnts_ = 0.0;
  std::vector<Lit> assumptions_;
  std::vector<Lit> failed_assumptions_;

  std::vector<LBool> model_;
  SatStats stats_;
};

}  // namespace mcsym::smt
