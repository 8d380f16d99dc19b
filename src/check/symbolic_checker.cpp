#include "check/symbolic_checker.hpp"

#include <string>

#include "support/assert.hpp"
#include "support/stats.hpp"

namespace mcsym::check {

SymbolicChecker::SymbolicChecker(const trace::Trace& trace, SymbolicOptions options)
    : trace_(trace), options_(options) {
  const support::Stopwatch timer;
  if (options_.match_gen == MatchGen::kOverapprox) {
    matches_ = match::generate_overapprox(trace_, options_.overapprox);
  } else {
    // The paper's precise method: candidates witnessed by the depth-first
    // abstract execution. Expensive by design (bench E4).
    matches_ = match::enumerate_feasible(trace_).precise;
  }
  matchgen_seconds_ = timer.seconds();
}

// Out of line: the members only forward-declared in the header (Encoder via
// unique_ptr) must be complete where the destructor instantiates.
SymbolicChecker::~SymbolicChecker() = default;

void SymbolicChecker::ensure_session() {
  if (solver_ != nullptr) return;
  const support::Stopwatch timer;
  solver_ = std::make_unique<smt::Solver>();
  // Base groups only: PProp is built (the trace's assert events land in
  // prop_terms) but never asserted — check() selects the property polarity
  // per query via assumptions, so one session serves every PropertyMode.
  encode::EncodeOptions eo = options_.encode;
  eo.property_mode = encode::PropertyMode::kIgnore;
  encoder_ = std::make_unique<encode::Encoder>(*solver_, trace_, matches_, eo);
  enc_.emplace(encoder_->encode());
  // Warm start: the recorded run satisfies every asserted group, so the
  // search tries it first. Only phases change; verdicts cannot.
  solver_->hint_phases(enc_->recorded_run);
  projection_ = enc_->id_projection();
  encode_seconds_ = timer.seconds();
  ++encode_count_;
}

SymbolicVerdict SymbolicChecker::check(std::span<const encode::Property> properties) {
  SymbolicVerdict verdict;
  verdict.matchgen_seconds = matchgen_seconds_;

  const bool builds_session = solver_ == nullptr;
  ensure_session();
  verdict.encode_seconds = builds_session ? encode_seconds_ : 0;

  if (!properties.empty() && extra_props_ == 0) {
    for (const encode::Property& p : properties) {
      enc_->prop_terms.emplace_back(p.label, encoder_->property_term(p));
    }
    extra_props_ = properties.size();
    enc_->stats.property_terms = enc_->prop_terms.size();
    std::vector<smt::TermId> conds;
    conds.reserve(enc_->prop_terms.size());
    for (const auto& [label, term] : enc_->prop_terms) conds.push_back(term);
    enc_->p_prop = solver_->terms().and_(conds);
  }
  MCSYM_ASSERT_MSG(properties.empty() || properties.size() == extra_props_,
                   "a session checker encodes one extra-property set; pass the "
                   "same properties to every check()");
  verdict.encode_stats = enc_->stats;

  solver_->set_conflict_budget(options_.conflict_budget);
  const support::Stopwatch timer;
  const std::uint64_t conflicts_before = solver_->sat_stats().conflicts;
  const std::uint64_t decisions_before = solver_->sat_stats().decisions;

  // The property constraint rides as an assumption, never an assert: the
  // session stays reusable for enumeration and for the opposite polarity.
  std::vector<smt::TermId> assumptions;
  switch (options_.encode.property_mode) {
    case encode::PropertyMode::kNegate:
      // No properties means PProp = true and ¬PProp = false, which would
      // poison the query; only assume when something was stated (the check
      // then degrades to the trace-feasibility question, as before).
      if (!enc_->prop_terms.empty()) {
        assumptions.push_back(solver_->terms().not_(enc_->p_prop));
      }
      break;
    case encode::PropertyMode::kAssert:
      assumptions.push_back(enc_->p_prop);
      break;
    case encode::PropertyMode::kIgnore:
      break;
  }

  ++solver_calls_;
  verdict.result = assumptions.empty()
                       ? solver_->check()
                       : solver_->check_assuming(assumptions).result;
  verdict.solve_seconds = timer.seconds();
  verdict.sat_conflicts = solver_->sat_stats().conflicts - conflicts_before;
  verdict.sat_decisions = solver_->sat_stats().decisions - decisions_before;
  verdict.sat_vars = solver_->num_sat_vars();
  if (verdict.result == smt::SolveResult::kSat) {
    verdict.witness = encode::decode_witness(*solver_, *enc_, trace_);
  }
  return verdict;
}

SymbolicEnumeration SymbolicChecker::enumerate_matchings() {
  SymbolicEnumeration out;
  const support::Stopwatch timer;
  ensure_session();

  // Enumeration always runs unbounded (a budget-tripped kUnknown would tear
  // a hole in the all-SAT set); check() restores its own budget per call.
  solver_->set_conflict_budget(0);

  // Fresh activation literal per round: this round's blocking clauses are
  // `¬guard ∨ …`, assumed only here, so property checks on the same session
  // — and any later re-enumeration — see an unblocked formula.
  const smt::TermId guard =
      solver_->terms().bool_var("enum_round_" + std::to_string(enum_rounds_++));
  const smt::TermId assumptions[] = {guard};

  for (;;) {
    ++out.solver_calls;
    ++solver_calls_;
    const smt::SolveResult r = solver_->check_assuming(assumptions).result;
    if (r == smt::SolveResult::kUnsat) break;
    MCSYM_ASSERT_MSG(r == smt::SolveResult::kSat,
                     "enumeration must run without a conflict budget");
    const encode::Witness w = encode::decode_witness(*solver_, *enc_, trace_);
    out.matchings.insert(w.matching);
    if (out.matchings.size() >= options_.max_matchings) {
      out.truncated = true;
      break;
    }
    solver_->block_current_ints(projection_, guard);
  }
  out.seconds = timer.seconds();
  return out;
}

}  // namespace mcsym::check
