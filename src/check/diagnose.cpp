#include "check/diagnose.hpp"

#include <string>

#include "encode/witness.hpp"
#include "match/generators.hpp"
#include "smt/solver.hpp"
#include "support/assert.hpp"

namespace mcsym::check {

using smt::TermId;

Diagnosis diagnose_pairing(const trace::Trace& trace,
                           std::span<const PairProposal> pairs,
                           encode::EncodeOptions options) {
  const match::MatchSet matches = match::generate_overapprox(trace);

  smt::Solver solver;
  options.property_mode = encode::PropertyMode::kIgnore;
  options.defer_assertions = true;
  encode::Encoder encoder(solver, trace, matches, options);
  const encode::Encoding enc = encoder.encode();
  smt::TermTable& tt = solver.terms();

  // One named guard per constraint group: `guard => group` is asserted, the
  // guard itself is assumed, so the group can land in the unsat core.
  std::vector<std::pair<std::string, TermId>> groups = {
      {"program order", enc.p_order},
      {"match pairs", enc.p_match},
      {"uniqueness", enc.p_unique},
      {"events", enc.p_events},
  };
  if (enc.p_fifo != smt::kNoTerm) groups.emplace_back("fifo", enc.p_fifo);
  if (enc.p_delay != smt::kNoTerm) {
    groups.emplace_back("delay-ignorant", enc.p_delay);
  }

  std::vector<TermId> assumptions;
  assumptions.reserve(groups.size() + pairs.size());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const TermId guard = tt.bool_var("diag_guard_" + std::to_string(i));
    solver.assert_term(tt.implies(guard, groups[i].second));
    assumptions.push_back(guard);
  }
  for (const PairProposal& p : pairs) {
    MCSYM_ASSERT_MSG(enc.match_id.contains(p.recv),
                     "proposal's recv is not a receive anchor of the trace");
    const auto& send_ev = trace.event(p.send).ev;
    MCSYM_ASSERT_MSG(send_ev.kind == mcapi::ExecEvent::Kind::kSend,
                     "proposal's send is not a send event of the trace");
    assumptions.push_back(
        tt.eq(enc.match_id.at(p.recv),
              tt.int_const(static_cast<std::int64_t>(send_ev.uid))));
  }

  const smt::Solver::AssumingResult result = solver.check_assuming(assumptions);

  Diagnosis d;
  if (result.result == smt::SolveResult::kSat) {
    d.feasible = true;
    d.witness = encode::decode_witness(solver, enc, trace);
    return d;
  }

  for (const TermId t : result.core) {
    bool is_group = false;
    for (std::size_t i = 0; i < groups.size(); ++i) {
      if (assumptions[i] == t) {
        d.blamed_groups.push_back(groups[i].first);
        is_group = true;
        break;
      }
    }
    if (is_group) continue;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (assumptions[groups.size() + i] == t) {
        d.blamed_pairs.push_back(pairs[i]);
        // No break: duplicate proposals share one term; blame every copy.
      }
    }
  }
  return d;
}

}  // namespace mcsym::check
