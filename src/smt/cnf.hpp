// Tseitin conversion from the term DAG onto the SAT core + IDL theory.
//
// Boolean structure becomes fresh SAT variables with defining clauses;
// kLeAtom leaves become theory-relevant SAT variables registered with the
// IdlTheory; integer variables get dense theory indices. Conversion is
// memoized on TermId, so shared subformulas are encoded once. Both memo
// tables are vectors indexed by TermId (TermIds are dense).
#pragma once

#include <optional>
#include <vector>

#include "smt/idl.hpp"
#include "smt/sat_solver.hpp"
#include "smt/term.hpp"

namespace mcsym::smt {

class CnfBuilder {
 public:
  CnfBuilder(TermTable& terms, SatSolver& sat, IdlTheory& idl);

  /// Asserts `t` at top level. Top-level conjunctions are split and
  /// top-level disjunctions become a single clause, so the common encoder
  /// shapes (big AND of ORs) produce no auxiliary variables at the root.
  void assert_term(TermId t);

  /// Literal equisatisfiably representing `t` (for assumptions).
  Lit literal(TermId t) { return convert(t); }

  /// Theory index for an integer variable term (created on demand).
  IntVarId int_var_of(TermId t);

  /// Lookup without creating; nullopt if the term was never converted.
  [[nodiscard]] std::optional<Lit> find_literal(TermId t) const;
  [[nodiscard]] std::optional<IntVarId> find_int_var(TermId t) const;

  /// Literal of every term converted so far, indexed by TermId; kNoLit for
  /// terms never converted and for kNot terms, which have no entry of their
  /// own (they are the negation of their child's literal).
  [[nodiscard]] const std::vector<Lit>& converted() const { return cache_; }

 private:
  static constexpr IntVarId kNoIntVar = 0xffffffffu;

  Lit convert(TermId t);
  Lit atom_literal(const TermNode& n);

  TermTable& terms_;
  SatSolver& sat_;
  IdlTheory& idl_;
  std::vector<Lit> cache_;
  std::vector<IntVarId> int_ids_;
  Lit true_lit_;
};

}  // namespace mcsym::smt
