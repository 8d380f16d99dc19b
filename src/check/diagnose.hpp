// Pairing diagnosis: decide whether a *proposed* send/receive pairing is
// feasible for a trace, and when it is not, say why.
//
// The feasibility question is the paper's SMT problem with extra equalities
// `id_recv = uid_send` for each proposed pair. Instead of asserting those
// equalities (and the constraint groups) outright, everything is solved
// under assumptions: each of the paper's constraint groups (POrder,
// PMatchPairs, PUnique, PEvents, plus the MCAPI FIFO side constraints) gets
// a named guard, and each proposed pair becomes one assumption. On UNSAT the
// solver's failed-assumption core then names exactly which groups and which
// proposed pairs cannot coexist — "recv#1 cannot take send#2 because of
// per-channel FIFO", mechanically.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "encode/encoder.hpp"
#include "encode/witness.hpp"
#include "trace/trace.hpp"

namespace mcsym::check {

struct PairProposal {
  trace::EventIndex recv = trace::kNoEvent;  // receive anchor in the trace
  trace::EventIndex send = trace::kNoEvent;  // send event in the trace

  friend bool operator==(const PairProposal&, const PairProposal&) = default;
};

struct Diagnosis {
  bool feasible = false;

  /// Infeasible only: names of the constraint groups in the unsat core
  /// ("program order", "match pairs", "uniqueness", "events", "fifo",
  /// "delay-ignorant"). Empty together with blamed_pairs would mean the
  /// encoding itself is inconsistent (never the case for recorded traces).
  std::vector<std::string> blamed_groups;
  /// Infeasible only: the proposed pairs that participated in the core —
  /// the subset that cannot jointly hold.
  std::vector<PairProposal> blamed_pairs;

  /// Feasible only: a concrete execution realizing every proposed pair.
  std::optional<encode::Witness> witness;
};

/// Diagnoses the proposal against all executions consistent with `trace`.
/// Pairs must reference receive anchors and send events of the trace;
/// receives not mentioned are left free. Matches come from the
/// over-approximation; `options.property_mode` is forced to kIgnore.
[[nodiscard]] Diagnosis diagnose_pairing(const trace::Trace& trace,
                                         std::span<const PairProposal> pairs,
                                         encode::EncodeOptions options = {});

}  // namespace mcsym::check
