// The paper's encoding: trace + match pairs -> SMT problem.
//
//   P = POrder ∧ PMatchPairs ∧ PUnique ∧ ¬PProp ∧ PEvents
//
// Variables:
//   * one integer clock per communication event (send / recv / recv_i /
//     wait) — POrder chains them in per-thread program order;
//   * one unbound integer match-id per receive — PMatchPairs forces it to
//     equal the unique identifier of exactly one candidate send (Fig. 2 of
//     the paper), PUnique keeps ids pairwise distinct (Fig. 3);
//   * SSA versions of thread locals — PEvents re-plays assignments and pins
//     every traced branch to its observed outcome; receives define fresh
//     versions whose values the chosen send's payload expression supplies.
//
// match(recv, send) asserts the send is issued before the receive completes
// (before the wait for non-blocking receives — the paper's §2 refinement),
// payload equality, and id equality. All atoms stay in integer difference
// logic by construction.
//
// Warm start: the recorded run is itself one execution consistent with the
// trace, so it satisfies every asserted group (all but ¬PProp). While it
// emits, the encoder records each variable's value in that run
// (Encoding::recorded_run): clocks spread out by trace position, match ids
// and received values from the completion events, bind times just above
// their latest lower bound, FIFO marks and ladder bits as running max / OR.
// smt::Solver::hint_phases turns these into the solver's first guess.
//
// PUnique and the FIFO side each have one emission, linear in the candidate
// count: an at-most-one ladder per send, and a high-water chain per channel
// (which also subsumes the ladders of the channel's sends).
//
// Options toggle the semantics knobs the reproduction studies: MCAPI
// per-channel FIFO (non-overtaking), the delay-ignorant baseline encoding
// (Elwakil–Yang-style: network delivery order = send issue order, the
// behavior gap of Figure 4b), and where non-blocking receives anchor their
// match window.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "encode/property.hpp"
#include "match/match_set.hpp"
#include "smt/solver.hpp"
#include "trace/trace.hpp"

namespace mcsym::encode {

using trace::EventIndex;

enum class PropertyMode : std::uint8_t {
  kNegate,  // assert ¬PProp: SAT = a property can be violated (bug hunting)
  kAssert,  // assert PProp: SAT = a fully correct execution exists
  kIgnore,  // no property constraint (matching enumeration)
};

struct EncodeOptions {
  bool fifo_non_overtaking = true;  // MCAPI per-channel message ordering
  bool delay_ignorant = false;      // baseline [2]: arrival order = issue order
  bool anchor_nb_at_wait = true;    // paper semantics; false = ablation
  /// Model MCAPI's "receives on an endpoint complete in issue order" with
  /// explicit bind-time variables (issue < bind <= completion, binds ordered
  /// per endpoint). The paper's bare send<wait window over-approximates when
  /// waits are issued out of order; this restores exactness. Off = the
  /// 2-page paper's literal encoding.
  bool order_endpoint_completions = true;
  PropertyMode property_mode = PropertyMode::kNegate;
  /// Build all constraint groups but do not assert them into the solver; the
  /// caller asserts (or guards) each group itself. Used by the pairing
  /// diagnosis to attribute an unsat core to named groups.
  bool defer_assertions = false;
};

struct EncodeStats {
  std::size_t clock_vars = 0;
  std::size_t id_vars = 0;
  std::size_t value_vars = 0;
  std::size_t order_constraints = 0;
  std::size_t match_disjuncts = 0;   // total match(r,s) terms (Fig. 2 inner loop)
  std::size_t unique_constraints = 0;
  std::size_t fifo_constraints = 0;
  std::size_t delay_constraints = 0;
  std::size_t completion_order_constraints = 0;
  std::size_t test_constraints = 0;  // mcapi_test / wait_any outcome pinnings
  std::size_t event_constraints = 0;
  std::size_t property_terms = 0;
};

struct Encoding {
  // The paper's constraint groups (asserted into the solver unless
  // defer_assertions was set; kept for inspection, SMT-LIB export, pairing
  // diagnosis and the ablation benches). p_match folds in the bind-window
  // refinements; the MCAPI FIFO side constraints and the delay-ignorant
  // baseline restriction are separate groups (kNoTerm when disabled).
  smt::TermId p_order;
  smt::TermId p_match;
  smt::TermId p_unique;
  smt::TermId p_events;
  smt::TermId p_prop;
  smt::TermId p_fifo = smt::kNoTerm;
  smt::TermId p_delay = smt::kNoTerm;

  std::unordered_map<EventIndex, smt::TermId> clock;     // comm events
  std::unordered_map<EventIndex, smt::TermId> match_id;  // receive anchors
  std::unordered_map<EventIndex, smt::TermId> recv_value;
  // Bind time of each receive anchor: when the runtime pairs the message
  // with the receive. Equals the receive's clock for blocking receives; a
  // fresh variable in (issue, wait] for non-blocking ones.
  std::unordered_map<EventIndex, smt::TermId> bind_time;
  std::vector<EventIndex> recv_order;  // receive anchors, ascending
  std::unordered_map<std::int64_t, EventIndex> send_of_uid;
  std::vector<std::pair<std::string, smt::TermId>> prop_terms;
  // Every variable the encoder created, with its value in the recorded run
  // (booleans as 0 / 1). Satisfies every group but p_prop and p_delay (the
  // delay-ignorant baseline, which the runtime need not obey).
  std::vector<smt::VarValue> recorded_run;
  // Final SSA version of every (thread, local symbol raw) pair.
  std::map<std::pair<std::uint32_t, std::uint32_t>, smt::TermId> final_ssa;

  EncodeStats stats;

  /// Terms of all receive match-ids in recv_order (the all-SAT projection).
  [[nodiscard]] std::vector<smt::TermId> id_projection() const;
};

class Encoder {
 public:
  Encoder(smt::Solver& solver, const trace::Trace& trace,
          const match::MatchSet& matches, EncodeOptions options = {});

  /// Builds and asserts the full problem; `properties` are conjoined into
  /// PProp alongside the trace's assert events.
  Encoding encode(std::span<const Property> properties = {});

  /// Term of one extra end-of-run property over the final SSA state. Only
  /// valid after encode(); used by incremental sessions that keep PProp out
  /// of the asserted formula and check properties via solver assumptions.
  [[nodiscard]] smt::TermId property_term(const Property& p);

 private:
  smt::TermId expr_term(mcapi::ThreadRef t, const mcapi::ValueExpr& e);
  smt::TermId cond_term(mcapi::ThreadRef t, const mcapi::Cond& c);
  smt::TermId local_term(mcapi::ThreadRef t, support::Symbol var);
  // Fresh variables, each recorded with its value in the traced run.
  smt::TermId int_var(const std::string& name, std::int64_t recorded);
  smt::TermId bool_var(const std::string& name, bool recorded);
  // Recorded clock of an event: trace positions spread by stride_, which
  // leaves room for every bind time between two consecutive events.
  [[nodiscard]] std::int64_t clock_at(EventIndex idx) const {
    return stride_ * static_cast<std::int64_t>(idx);
  }
  // Uid of the send a receive anchor consumed in the recorded run.
  [[nodiscard]] std::int64_t recorded_uid(EventIndex recv) const;
  void build_events_and_ssa(Encoding& enc);
  void build_order(Encoding& enc);
  void build_matches(Encoding& enc);
  void build_unique(Encoding& enc);
  void build_fifo(Encoding& enc);
  void build_delay_ignorant(Encoding& enc);
  void build_properties(Encoding& enc, std::span<const Property> properties);

  smt::Solver& solver_;
  smt::TermTable& tt_;
  const trace::Trace& trace_;
  const match::MatchSet& matches_;
  EncodeOptions options_;
  std::int64_t stride_;
  std::vector<smt::VarValue> recorded_;

  // SSA environment: (thread, symbol raw) -> current version term.
  std::map<std::pair<std::uint32_t, std::uint32_t>, smt::TermId> ssa_;
  std::unordered_map<EventIndex, smt::TermId> send_payload_;
  std::vector<smt::TermId> event_constraints_;
  // mcapi_test / mcapi_wait_any events and the receive anchors they observe
  // (these anchors always get a real bind-time variable), each mapped to the
  // last event that saw it still pending (kNoEvent if none did).
  std::vector<EventIndex> tests_;
  std::vector<EventIndex> wait_anys_;
  std::unordered_map<EventIndex, EventIndex> tested_anchors_;
  // Bind-time window and endpoint completion-order constraints (folded into
  // p_match because they refine the match relation).
  std::vector<smt::TermId> event_like_constraints_;
};

}  // namespace mcsym::encode
