// SMT solver facade: term construction + assertion + check + model access.
//
// This is the interface the paper's encoder talks to (the role Yices played
// for the authors). It owns the term table, the CDCL core, the IDL theory,
// and the CNF bridge, and adds the two services the reproduction needs on
// top of plain check-sat: model evaluation of arbitrary terms in the
// difference-logic fragment, and all-solutions enumeration over a projection
// (used to enumerate the distinct send/receive pairings of a trace).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "smt/cnf.hpp"
#include "smt/idl.hpp"
#include "smt/sat_solver.hpp"
#include "smt/term.hpp"

namespace mcsym::smt {

/// One variable's value in a known assignment: an int var's value, or a
/// bool var's as 0 / 1.
struct VarValue {
  TermId var;
  std::int64_t value;
};

class Solver {
 public:
  Solver();

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  [[nodiscard]] TermTable& terms() { return terms_; }
  [[nodiscard]] const TermTable& terms() const { return terms_; }

  /// Asserts a boolean term. Terms may be asserted at any point between
  /// check() calls (the solver is incremental in the adding direction).
  void assert_term(TermId t);

  SolveResult check();

  /// Outcome of check_assuming: on kUnsat, `core` is the subset of the
  /// passed assumption terms that participated in the refutation (empty when
  /// the asserted formula is unsatisfiable by itself).
  struct AssumingResult {
    SolveResult result = SolveResult::kUnknown;
    std::vector<TermId> core;
  };

  /// Solves the asserted formula under additional boolean assumptions,
  /// without committing them: later checks are unaffected. The workhorse of
  /// the pairing diagnosis feature (check::diagnose_pairing).
  [[nodiscard]] AssumingResult check_assuming(std::span<const TermId> assumptions);

  /// Warm start: evaluates every term under `values` (variables left out
  /// count as 0 / false) and sets the saved phase of every literal converted
  /// so far to that term's value, so the search tries this assignment
  /// first. Nothing is asserted or assumed; verdicts are unchanged. When
  /// `values` satisfy the asserted formula, a check without assumptions
  /// finds a model without a conflict.
  void hint_phases(std::span<const VarValue> values);

  /// Bounds the conflict count of subsequent check() calls (0 = unbounded).
  void set_conflict_budget(std::uint64_t budget) { sat_.set_conflict_budget(budget); }

  // --- Model access (valid after check() returned kSat) -------------------
  [[nodiscard]] std::int64_t model_int(TermId t) const;
  [[nodiscard]] bool model_bool(TermId t) const;

  /// Adds a clause excluding the current model's values of `int_terms`,
  /// so the next check() yields a different projection (all-SAT step).
  void block_current_ints(std::span<const TermId> int_terms);

  /// Guarded all-SAT step for shared solver sessions: the blocking clause is
  /// `¬activation ∨ (some value differs)`, so it only bites while the caller
  /// assumes `activation`. Checks that don't pass the activation literal are
  /// free to satisfy the clause by setting it false, leaving them unaffected
  /// by any enumeration that ran on the same session.
  void block_current_ints(std::span<const TermId> int_terms, TermId activation);

  /// Every term passed to assert_term, in order (for SMT-LIB export and the
  /// Z3 cross-check backend).
  [[nodiscard]] std::span<const TermId> assertions() const { return assertions_; }

  [[nodiscard]] const SatStats& sat_stats() const { return sat_.stats(); }
  [[nodiscard]] const IdlStats& idl_stats() const { return idl_.stats(); }
  [[nodiscard]] std::uint32_t num_sat_vars() const { return sat_.num_vars(); }
  [[nodiscard]] std::size_t num_problem_clauses() const {
    return sat_.num_problem_clauses();
  }
  [[nodiscard]] std::size_t num_idl_atoms() const { return idl_.num_atoms(); }

 private:
  TermTable terms_;
  SatSolver sat_;
  IdlTheory idl_;
  CnfBuilder cnf_;
  std::vector<TermId> assertions_;
};

}  // namespace mcsym::smt
