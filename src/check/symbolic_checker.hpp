// End-to-end symbolic checker: the tool the paper describes.
//
// Pipeline: trace -> match-pair generation (over-approximation by default,
// precise DFS on request) -> SMT encoding -> CDCL+IDL solving ->
// witness / enumeration. Construct one checker per trace; the checker owns
// one solver session per trace: the encoding is built exactly once (lazily,
// on the first query) and every check() / enumerate_matchings() call runs
// against it via solver assumptions, so learned clauses and IDL edge state
// persist across queries. Properties are never asserted — PProp rides as an
// activation-literal assumption — and enumeration blocking clauses are
// guarded by a per-round activation literal, so queries stay independent.
// Every session is warm-started from the recorded run (the encoding's
// recorded_run values become the solver's saved phases): that run satisfies
// all asserted groups, so a feasibility query (no property to refute) finds
// its model without a conflict.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <span>

#include "encode/encoder.hpp"
#include "encode/witness.hpp"
#include "match/generators.hpp"
#include "smt/solver.hpp"
#include "trace/trace.hpp"

namespace mcsym::check {

enum class MatchGen : std::uint8_t { kOverapprox, kPrecise };

struct SymbolicOptions {
  encode::EncodeOptions encode;
  MatchGen match_gen = MatchGen::kOverapprox;
  std::uint64_t conflict_budget = 0;   // 0 = unbounded
  std::uint64_t max_matchings = 1u << 20;
};

struct SymbolicVerdict {
  smt::SolveResult result = smt::SolveResult::kUnknown;
  std::optional<encode::Witness> witness;  // present when result == kSat
  encode::EncodeStats encode_stats;
  std::uint64_t sat_conflicts = 0;   // conflicts spent by this query alone
  std::uint64_t sat_decisions = 0;   // decisions spent by this query alone
  std::uint32_t sat_vars = 0;
  double matchgen_seconds = 0;
  /// Encoding time, charged to the query that built the session (0 after).
  double encode_seconds = 0;
  double solve_seconds = 0;

  /// Bug hunting reading: SAT means some execution consistent with the trace
  /// violates a property.
  [[nodiscard]] bool violation_possible() const {
    return result == smt::SolveResult::kSat;
  }
};

struct SymbolicEnumeration {
  std::set<match::Matching> matchings;
  bool truncated = false;
  std::uint64_t solver_calls = 0;
  double seconds = 0;
};

class SymbolicChecker {
 public:
  explicit SymbolicChecker(const trace::Trace& trace, SymbolicOptions options = {});
  ~SymbolicChecker();

  // The session's Encoder borrows matches_ by reference; moving the checker
  // out from under it would dangle, so the checker is pinned in place.
  SymbolicChecker(const SymbolicChecker&) = delete;
  SymbolicChecker& operator=(const SymbolicChecker&) = delete;

  /// Decides whether any execution consistent with the trace violates the
  /// given properties (plus all in-trace assertions). A session encodes one
  /// extra-property set: every call must pass the same span (or none).
  [[nodiscard]] SymbolicVerdict check(
      std::span<const encode::Property> properties = {});

  /// Enumerates every distinct send/receive pairing feasible for the trace
  /// (the Figure-4 experiment). Ignores properties. Shares the session with
  /// check(): blocking clauses are guarded per enumeration round, so a later
  /// check() (or a repeated enumeration) is unaffected by them.
  [[nodiscard]] SymbolicEnumeration enumerate_matchings();

  /// The match set the checker feeds the encoder (for diagnostics/benches).
  [[nodiscard]] const match::MatchSet& match_set() const { return matches_; }
  [[nodiscard]] double matchgen_seconds() const { return matchgen_seconds_; }

  // Session observability: how often the trace was encoded (always 0 or 1 —
  // the double-encode of the pre-session design is structurally gone) and
  // how many solver queries ran against the shared session.
  [[nodiscard]] std::uint64_t encode_count() const { return encode_count_; }
  [[nodiscard]] std::uint64_t solver_calls() const { return solver_calls_; }

 private:
  void ensure_session();

  const trace::Trace& trace_;
  SymbolicOptions options_;
  match::MatchSet matches_;
  double matchgen_seconds_ = 0;

  // The per-trace solver session (lazily built by the first query).
  std::unique_ptr<smt::Solver> solver_;
  std::unique_ptr<encode::Encoder> encoder_;
  std::optional<encode::Encoding> enc_;
  std::vector<smt::TermId> projection_;  // match-id all-SAT projection
  std::size_t extra_props_ = 0;          // extra property terms appended
  std::uint32_t enum_rounds_ = 0;        // activation literals handed out
  std::uint64_t encode_count_ = 0;
  std::uint64_t solver_calls_ = 0;
  double encode_seconds_ = 0;
};

}  // namespace mcsym::check
