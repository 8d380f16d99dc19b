// Differential fuzzing: symbolic vs explicit-state vs DPOR (optimal and
// sleep-set modes) on randomized MCAPI programs, with witness replay. See
// src/check/differential.hpp for what "agreement" means precisely.
//
// Iteration count scales with MCSYM_TEST_ITERS (programs to generate):
// the default suits CI; nightly runs export e.g. MCSYM_TEST_ITERS=5000.
// Any mismatch prints the RNG seed that produced it; replay with
// differential_iteration(seed, ...) under a debugger. When
// MCSYM_FAIL_SEED_FILE is set, mismatching seeds are appended there too so
// scheduled CI runs can upload them as artifacts.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "check/differential.hpp"
#include "support/env.hpp"

namespace mcsym::check {
namespace {

void report_mismatches(const DifferentialReport& report, const char* battery) {
  for (const DifferentialMismatch& m : report.mismatches) {
    ADD_FAILURE() << battery << " seed=" << m.seed
                  << " (replay: differential_iteration(" << m.seed
                  << "ULL, opts, report)): " << m.detail;
  }
  const char* path = std::getenv("MCSYM_FAIL_SEED_FILE");
  if (path != nullptr && !report.mismatches.empty()) {
    // Sharded suites append concurrently: one buffered write per batch
    // keeps lines from interleaving mid-entry in the shared artifact.
    std::ostringstream batch;
    for (const DifferentialMismatch& m : report.mismatches) {
      batch << battery << " " << m.seed << " " << m.detail << "\n";
    }
    std::ofstream(path, std::ios::app) << batch.str() << std::flush;
  }
}

TEST(DifferentialFuzz, EnginesAgreeOnRandomizedPrograms) {
  DifferentialOptions opts;
  opts.iterations = support::env_u64("MCSYM_TEST_ITERS", 150);

  const DifferentialReport report = run_differential(0x4d435359u /*"MCSY"*/, opts);
  std::cerr << "[differential] " << report.summary() << "\n";
  report_mismatches(report, "default");

  // The corpus must actually exercise both verdicts and the replayer; a
  // harness that silently skips everything would otherwise pass vacuously.
  // Tiny MCSYM_TEST_ITERS runs (quick local smokes) can legitimately miss a
  // verdict class, so the coverage gates only apply at realistic depth.
  EXPECT_GT(report.programs, opts.iterations / 2) << report.summary();
  if (opts.iterations >= 50) {
    EXPECT_GT(report.sat_verdicts, 0u) << report.summary();
    EXPECT_GT(report.unsat_verdicts, 0u) << report.summary();
    EXPECT_GT(report.witnesses_replayed, 0u) << report.summary();
    EXPECT_GT(report.enumerations_checked, 0u) << report.summary();
  }
}

TEST(DifferentialFuzz, DeadlockVerdictsAgreeAcrossEngines) {
  DifferentialOptions opts;
  opts.allow_deadlocks = true;
  opts.iterations = support::env_u64("MCSYM_TEST_ITERS", 150);

  const DifferentialReport report = run_differential(0xdead10c5ULL, opts);
  std::cerr << "[differential/deadlock] " << report.summary() << "\n";
  report_mismatches(report, "deadlock");

  EXPECT_GT(report.programs, opts.iterations / 2) << report.summary();
  if (opts.iterations >= 50) {
    // The battery must actually reach deadlocks — whole-program verdicts,
    // replayed schedules, and concrete deadlocked runs — or the deadlock
    // cross-checks would pass vacuously.
    EXPECT_GT(report.deadlock_programs, 0u) << report.summary();
    EXPECT_GT(report.deadlock_schedules_replayed, 0u) << report.summary();
    EXPECT_GT(report.deadlocked_runs, 0u) << report.summary();
    // Clean verdicts must appear too (not every mutated program hangs).
    EXPECT_LT(report.deadlock_programs, report.programs) << report.summary();
  }
}

TEST(DifferentialFuzz, ThreadedPortfolioAgreesAcrossEngines) {
  // workers > 1 runs the portfolio's producers (explicit, both DPOR modes,
  // the sharded symbolic stage) on their own threads under one joint wall
  // clock. Zero mismatches means concurrency never changed a verdict or a
  // cross-check across the whole battery.
  DifferentialOptions opts;
  opts.workers = 4;
  opts.allow_deadlocks = true;
  opts.iterations = support::env_u64("MCSYM_TEST_ITERS", 150);

  const DifferentialReport report =
      run_differential(0x70617261ULL /*"para"*/, opts);
  std::cerr << "[differential/threaded] " << report.summary() << "\n";
  report_mismatches(report, "threaded");
  EXPECT_GT(report.programs, opts.iterations / 2) << report.summary();
}

TEST(DifferentialFuzz, DeterministicForFixedSeed) {
  DifferentialOptions opts;
  opts.iterations = 20;
  const DifferentialReport a = run_differential(0xfeedULL, opts);
  const DifferentialReport b = run_differential(0xfeedULL, opts);
  EXPECT_EQ(a.summary(), b.summary());
  EXPECT_EQ(a.mismatches.size(), b.mismatches.size());
}

TEST(DifferentialFuzz, SingleIterationIsReplayable) {
  DifferentialOptions opts;
  DifferentialReport r1, r2;
  differential_iteration(42, opts, r1);
  differential_iteration(42, opts, r2);
  EXPECT_EQ(r1.summary(), r2.summary());
}

}  // namespace
}  // namespace mcsym::check
