#include "smt/cnf.hpp"

#include <vector>

namespace mcsym::smt {

CnfBuilder::CnfBuilder(TermTable& terms, SatSolver& sat, IdlTheory& idl)
    : terms_(terms), sat_(sat), idl_(idl) {
  const Var t = sat_.new_var();
  true_lit_ = Lit::make(t, false);
  sat_.add_clause({true_lit_});
}

IntVarId CnfBuilder::int_var_of(TermId t) {
  MCSYM_ASSERT(terms_.node(t).op == Op::kIntVar);
  if (t >= int_ids_.size()) int_ids_.resize(terms_.size(), kNoIntVar);
  if (int_ids_[t] == kNoIntVar) int_ids_[t] = idl_.new_int_var();
  return int_ids_[t];
}

std::optional<Lit> CnfBuilder::find_literal(TermId t) const {
  const TermNode& n = terms_.node(t);
  if (n.op == Op::kNot) {
    if (auto inner = find_literal(n.child0)) return ~*inner;
    return std::nullopt;
  }
  if (t >= cache_.size() || !cache_[t].valid()) return std::nullopt;
  return cache_[t];
}

std::optional<IntVarId> CnfBuilder::find_int_var(TermId t) const {
  if (t >= int_ids_.size() || int_ids_[t] == kNoIntVar) return std::nullopt;
  return int_ids_[t];
}

Lit CnfBuilder::atom_literal(const TermNode& n) {
  // kLeAtom child slots hold IntVar terms or kNoTerm (the constant 0, mapped
  // to the theory's origin node).
  const IntVarId x = n.child0 == kNoTerm ? idl_.origin() : int_var_of(n.child0);
  const IntVarId y = n.child1 == kNoTerm ? idl_.origin() : int_var_of(n.child1);
  return idl_.atom(x, y, n.value);
}

Lit CnfBuilder::convert(TermId t) {
  if (t >= cache_.size()) cache_.resize(terms_.size(), kNoLit);
  if (cache_[t].valid()) return cache_[t];
  const TermNode& n = terms_.node(t);
  Lit result;
  switch (n.op) {
    case Op::kTrue: result = true_lit_; break;
    case Op::kFalse: result = ~true_lit_; break;
    case Op::kBoolVar: result = Lit::make(sat_.new_var(), false); break;
    case Op::kNot: return ~convert(n.child0);  // no cache entry of its own
    case Op::kLeAtom: result = atom_literal(n); break;
    case Op::kAnd:
    case Op::kOr: {
      // x <-> (and k_i): clauses x -> k_i, then (and k_i) -> x.
      // x <-> (or k_i):  clauses k_i -> x, then x -> (or k_i).
      // The children convert first, into slots 1.., so their variables
      // precede x; slot 0 then takes x's literal in the long clause.
      const bool is_and = n.op == Op::kAnd;
      const auto kids = terms_.children(t);
      std::vector<Lit> lits(kids.size() + 1);
      for (std::size_t i = 0; i < kids.size(); ++i) lits[i + 1] = convert(kids[i]);
      const Lit x = Lit::make(sat_.new_var(), false);
      for (std::size_t i = 1; i < lits.size(); ++i) {
        if (is_and) {
          sat_.add_clause({~x, lits[i]});
          lits[i] = ~lits[i];
        } else {
          sat_.add_clause({x, ~lits[i]});
        }
      }
      lits[0] = is_and ? x : ~x;
      sat_.add_clause(lits);
      result = x;
      break;
    }
    case Op::kIntConst:
    case Op::kIntVar:
    case Op::kAddConst:
      MCSYM_UNREACHABLE("int-sorted term used in boolean position");
  }
  cache_[t] = result;
  return result;
}

void CnfBuilder::assert_term(TermId t) {
  const TermNode& n = terms_.node(t);
  switch (n.op) {
    case Op::kTrue:
      return;
    case Op::kFalse:
      sat_.add_clause(std::span<const Lit>{});
      return;
    case Op::kAnd:
      for (const TermId c : terms_.children(t)) assert_term(c);
      return;
    case Op::kOr: {
      std::vector<Lit> clause;
      const auto kids = terms_.children(t);
      clause.reserve(kids.size());
      for (const TermId c : kids) clause.push_back(convert(c));
      sat_.add_clause(clause);
      return;
    }
    default:
      sat_.add_clause({convert(t)});
      return;
  }
}

}  // namespace mcsym::smt
