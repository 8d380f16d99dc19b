#include "smt/solver.hpp"

#include <algorithm>

namespace mcsym::smt {

Solver::Solver() : idl_(sat_), cnf_(terms_, sat_, idl_) {}

void Solver::assert_term(TermId t) {
  assertions_.push_back(t);
  cnf_.assert_term(t);
}

SolveResult Solver::check() { return sat_.solve(); }

Solver::AssumingResult Solver::check_assuming(std::span<const TermId> assumptions) {
  std::vector<Lit> lits;
  lits.reserve(assumptions.size());
  for (const TermId t : assumptions) lits.push_back(cnf_.literal(t));

  AssumingResult out;
  out.result = sat_.solve(lits);
  if (out.result == SolveResult::kUnsat) {
    const std::vector<Lit>& failed = sat_.failed_assumptions();
    for (std::size_t i = 0; i < assumptions.size(); ++i) {
      if (std::find(failed.begin(), failed.end(), lits[i]) != failed.end()) {
        out.core.push_back(assumptions[i]);
      }
    }
  }
  return out;
}

void Solver::hint_phases(std::span<const VarValue> values) {
  // One pass in TermId order: hash-consing creates children before their
  // parents, so every operand is evaluated by the time it is read.
  std::vector<std::int64_t> val(terms_.size(), 0);
  for (const VarValue& v : values) val[v.var] = v.value;
  const auto holds = [&val](TermId c) { return val[c] != 0; };
  for (TermId t = 0; t < val.size(); ++t) {
    const TermNode& n = terms_.node(t);
    switch (n.op) {
      case Op::kTrue: val[t] = 1; break;
      case Op::kNot: val[t] = !holds(n.child0); break;
      case Op::kAnd: val[t] = std::ranges::all_of(terms_.children(t), holds); break;
      case Op::kOr: val[t] = std::ranges::any_of(terms_.children(t), holds); break;
      case Op::kLeAtom: {
        // Atom slots hold IntVar terms or kNoTerm (the constant 0).
        const std::int64_t x = n.child0 == kNoTerm ? 0 : val[n.child0];
        const std::int64_t y = n.child1 == kNoTerm ? 0 : val[n.child1];
        val[t] = x - y <= n.value;
        break;
      }
      case Op::kFalse:
      case Op::kBoolVar:
      case Op::kIntVar:
      case Op::kIntConst:  // constants and offsets never reach an atom slot
      case Op::kAddConst:
        break;
    }
  }
  const std::vector<Lit>& lits = cnf_.converted();
  for (TermId t = 0; t < lits.size(); ++t) {
    if (lits[t].valid()) sat_.set_phase(holds(t) ? lits[t] : ~lits[t]);
  }
}

std::int64_t Solver::model_int(TermId t) const {
  const TermTable::IntDecomp d = terms_.decompose_int(t);
  if (d.var == kNoTerm) return d.offset;
  // Int vars that never reached an asserted atom are unconstrained; the
  // origin's value (0) is as good as any.
  const auto id = cnf_.find_int_var(d.var);
  const std::int64_t base = id ? idl_.model_value(*id) : 0;
  return base + d.offset;
}

bool Solver::model_bool(TermId t) const {
  const TermNode& n = terms_.node(t);
  switch (n.op) {
    case Op::kTrue: return true;
    case Op::kFalse: return false;
    case Op::kNot: return !model_bool(n.child0);
    case Op::kAnd:
      for (const TermId c : terms_.children(t)) {
        if (!model_bool(c)) return false;
      }
      return true;
    case Op::kOr:
      for (const TermId c : terms_.children(t)) {
        if (model_bool(c)) return true;
      }
      return false;
    case Op::kLeAtom: {
      // Evaluate arithmetically: sound even if the atom's SAT variable was
      // left unassigned or the atom never reached the solver.
      const std::int64_t x = n.child0 == kNoTerm ? 0 : model_int(n.child0);
      const std::int64_t y = n.child1 == kNoTerm ? 0 : model_int(n.child1);
      return x - y <= n.value;
    }
    case Op::kBoolVar: {
      const auto lit = cnf_.find_literal(t);
      if (!lit) return false;  // unconstrained boolean: pick false
      return sat_.model_is_true(*lit);
    }
    case Op::kIntConst:
    case Op::kIntVar:
    case Op::kAddConst:
      MCSYM_UNREACHABLE("int term evaluated as bool");
  }
  return false;
}

void Solver::block_current_ints(std::span<const TermId> int_terms) {
  block_current_ints(int_terms, kNoTerm);
}

void Solver::block_current_ints(std::span<const TermId> int_terms,
                                TermId activation) {
  std::vector<TermId> disjuncts;
  disjuncts.reserve(int_terms.size() + 1);
  if (activation != kNoTerm) disjuncts.push_back(terms_.not_(activation));
  for (const TermId t : int_terms) {
    disjuncts.push_back(terms_.ne(t, terms_.int_const(model_int(t))));
  }
  assert_term(terms_.or_(disjuncts));
}

}  // namespace mcsym::smt
