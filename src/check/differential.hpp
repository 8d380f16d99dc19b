// Differential cross-checking of the three verification engines.
//
// For each seeded random program the harness runs the symbolic checker
// (trace -> match generation -> SMT encoding -> CDCL+IDL), the exhaustive
// explicit-state checker, and the DPOR checker in both its optimal and its
// sleep-set mode, then asserts that they tell one consistent story:
//
//  * explicit and DPOR (optimal source-set/wakeup-tree mode and the
//    sleep-set baseline alike) explore the same whole-program transition
//    system, so their violation/deadlock verdicts must be identical — and
//    optimal mode must report zero redundant explorations on programs
//    without observer ops (test polls, wait_any); on programs with them a
//    few sleep-blocked paths are tolerated and counted in
//    optimal_redundant_paths;
//  * with allow_deadlocks, generated programs may hang (cyclic waits,
//    missing sends, conditional handshakes): a deadlocked concrete run
//    forces the whole-program deadlock verdict, and the explicit checker's
//    deadlock schedule must replay to a real deadlock;
//  * a symbolic SAT on any recorded trace exhibits a real execution, so the
//    explicit checker must also report a violation, and the decoded witness
//    must replay concretely (schedule_from_witness) and re-fire the
//    assertion;
//  * the recorded run itself is an execution consistent with its own trace,
//    so a concretely observed violation forces a symbolic SAT;
//  * a program the explicit checker proves safe forces symbolic UNSAT on
//    every trace;
//  * on assertion-free programs, the symbolic matching enumeration, the
//    precise abstract execution, and the explicit trace-filtered
//    enumeration must produce the same set of matchings (the Figure-4
//    experiment, fuzzed).
//
// The harness is deterministic: a fixed (base_seed, options) pair replays
// bit-for-bit, and every mismatch records the seed that produced it so a
// failure shrinks to a one-liner reproduction.
//
// Since the Verifier facade landed, the engine plumbing behind these
// checks lives in check::Verifier's portfolio mode (verifier.hpp): this
// harness generates the random programs, maps its budgets onto the shared
// Budget, forwards the portfolio's disagreements, and layers on the
// generator-invariant checks only it can know (a deadlock in a program
// the generator promised deadlock-free is a bug even when every engine
// agrees about it).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mcsym::check {

struct DifferentialOptions {
  std::uint64_t iterations = 200;     // programs per run (CI default)
  std::uint32_t traces_per_program = 2;
  /// Let the generator emit deadlock-capable shapes (cyclic channel waits,
  /// missing sends, conditional handshakes): the battery then cross-checks
  /// deadlocked() verdicts across the engines — explicit and both DPOR
  /// modes must agree on reachability, a deadlocked concrete run forces the
  /// whole-program verdict, and the explicit deadlock schedule must replay
  /// to a real deadlock.
  bool allow_deadlocks = false;
  /// Forwarded to VerifyRequest::workers: >1 runs the portfolio's
  /// producers (explicit, both DPOR modes, sharded symbolic) concurrently.
  std::uint32_t workers = 1;
  // Exploration budgets are deliberately modest: a rare blowup program is
  // worth seconds of wall clock at most — it gets counted as skipped and
  // the harness moves on to the next seed.
  std::uint64_t explicit_max_states = 150'000;
  std::uint64_t feasible_max_paths = 100'000;
  std::uint64_t dpor_max_transitions = 1'000'000;
  std::uint64_t run_max_steps = 1u << 16;
};

struct DifferentialMismatch {
  std::uint64_t seed = 0;
  std::string detail;
};

struct DifferentialReport {
  std::uint64_t programs = 0;          // programs fully cross-checked
  std::uint64_t traces = 0;            // traces symbolically checked
  std::uint64_t sat_verdicts = 0;
  std::uint64_t unsat_verdicts = 0;
  std::uint64_t witnesses_replayed = 0;
  std::uint64_t enumerations_checked = 0;
  std::uint64_t skipped_truncated = 0;  // budget-exceeded programs/traces
  std::uint64_t dpor_skipped = 0;       // programs whose DPOR run truncated
  std::uint64_t deadlock_programs = 0;  // programs with a reachable deadlock
  std::uint64_t deadlock_schedules_replayed = 0;
  std::uint64_t deadlocked_runs = 0;    // concrete runs that deadlocked
  /// Sleep-blocked paths optimal DPOR started on programs with observer
  /// ops (test polls / wait_any scans, which see a request still pending).
  /// Observation outcomes are observer-style dependence: a scheduled
  /// revisit can legitimately meet a flipped observation and block, so a
  /// small count here is expected — on programs without observer ops any
  /// redundancy is a hard mismatch.
  std::uint64_t optimal_redundant_paths = 0;
  std::vector<DifferentialMismatch> mismatches;

  [[nodiscard]] bool agreed() const { return mismatches.empty(); }
  [[nodiscard]] std::string summary() const;
};

/// Cross-checks `options.iterations` random programs derived from
/// `base_seed`. Deterministic for fixed inputs.
[[nodiscard]] DifferentialReport run_differential(std::uint64_t base_seed,
                                                  const DifferentialOptions& options = {});

/// One program's worth of cross-checking (exposed so a failing seed from a
/// fuzz report can be replayed in isolation, e.g. under a debugger).
void differential_iteration(std::uint64_t seed, const DifferentialOptions& options,
                            DifferentialReport& report);

}  // namespace mcsym::check
