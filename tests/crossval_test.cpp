// Cross-validation property tests: on randomized programs, the symbolic
// engine's enumeration must coincide exactly with the precise abstract
// execution and with the explicit-state checker's trace-filtered
// enumeration, and (when Z3 is built in) our solver and Z3 must agree on
// every generated encoding.
#include <gtest/gtest.h>

#include "check/explicit_checker.hpp"
#include "check/random_program.hpp"
#include "check/symbolic_checker.hpp"
#include "encode/encoder.hpp"
#include "match/generators.hpp"
#include "mcapi/executor.hpp"
#include "smt/solver.hpp"
#include "smt/z3_backend.hpp"
#include "support/env.hpp"
#include "trace/trace.hpp"

namespace mcsym::check {
namespace {

trace::Trace record(const mcapi::Program& p, std::uint64_t seed) {
  mcapi::System sys(p);
  trace::Trace tr(p);
  trace::Recorder rec(tr);
  mcapi::RandomScheduler sched(seed);
  const auto r = mcapi::run(sys, sched, &rec);
  EXPECT_TRUE(r.completed()) << "random programs are deadlock-free by shape";
  return tr;
}

class CrossValidationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossValidationTest, SymbolicEqualsSkeletonDfs) {
  const std::uint64_t seed = GetParam();
  // Two inputs per seed: a blocking-only program, and one that mixes
  // recv_i/wait pairs in on even seeds with the default message counts
  // (three sends per thread, so the FIFO high-water chains get long).
  RandomProgramOptions mixed;
  mixed.allow_nonblocking = (seed % 2) == 0;
  const std::pair<mcapi::Program, std::uint64_t> inputs[] = {
      {random_program(seed), seed ^ 0xabcdef},
      {random_program(seed, mixed), seed ^ 0x5eed},
  };
  std::size_t compared = 0;
  for (std::size_t k = 0; k < std::size(inputs); ++k) {
    const trace::Trace tr = record(inputs[k].first, inputs[k].second);
    const auto truth = match::enumerate_feasible(tr);
    // Without a complete reference there is no ground truth to compare
    // against. With state memoization this should essentially never fire.
    if (truth.truncated) continue;
    ++compared;
    SymbolicChecker checker(tr);
    const SymbolicEnumeration sym = checker.enumerate_matchings();
    EXPECT_EQ(sym.matchings, truth.matchings) << "seed=" << seed << " input=" << k;
  }
  if (compared == 0) {
    GTEST_SKIP() << "reference enumeration truncated for seed " << seed;
  }
}

TEST_P(CrossValidationTest, SymbolicEqualsExplicitStateEnumeration) {
  const std::uint64_t seed = GetParam();
  const mcapi::Program p = random_program(seed);
  const trace::Trace tr = record(p, seed ^ 0xabcdef);

  ExplicitChecker explicit_checker(p);
  const auto exp = explicit_checker.enumerate_against(tr);
  if (exp.truncated) {
    GTEST_SKIP() << "explicit reference truncated for seed " << seed;
  }

  SymbolicChecker checker(tr);
  const SymbolicEnumeration sym = checker.enumerate_matchings();
  EXPECT_EQ(sym.matchings, exp.matchings) << "seed=" << seed;
}

// Soundness of the enumeration memoization itself: on programs small enough
// for the naive searches to finish, pruning on the history/state digests
// must not lose (or invent) a single matching.
class DedupSoundnessTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DedupSoundnessTest, SkeletonDfsDedupEqualsNaive) {
  const std::uint64_t seed = GetParam();
  RandomProgramOptions popts;
  popts.max_sends_per_thread = 2;
  popts.allow_nonblocking = (seed % 2) == 1;
  const mcapi::Program p = random_program(seed, popts);
  const trace::Trace tr = record(p, seed ^ 0x77aa);

  match::FeasibleOptions naive;
  naive.dedup_states = false;
  const auto truth = match::enumerate_feasible(tr, naive);
  if (truth.truncated) {
    GTEST_SKIP() << "naive reference blew its budget for seed " << seed;
  }

  const auto deduped = match::enumerate_feasible(tr);
  ASSERT_FALSE(deduped.truncated);
  EXPECT_EQ(deduped.matchings, truth.matchings) << "seed=" << seed;
  EXPECT_TRUE(deduped.precise.covers(truth.precise)) << "seed=" << seed;
  EXPECT_TRUE(truth.precise.covers(deduped.precise)) << "seed=" << seed;
  EXPECT_LE(deduped.states_expanded, truth.states_expanded) << "seed=" << seed;
}

TEST_P(DedupSoundnessTest, ExplicitDedupEqualsNaive) {
  const std::uint64_t seed = GetParam();
  RandomProgramOptions popts;
  popts.max_sends_per_thread = 2;
  const mcapi::Program p = random_program(seed, popts);
  const trace::Trace tr = record(p, seed ^ 0x77aa);

  ExplicitOptions naive;
  naive.dedup_histories = false;
  ExplicitChecker naive_checker(p, naive);
  const auto truth = naive_checker.enumerate_against(tr);
  if (truth.truncated) {
    GTEST_SKIP() << "naive reference blew its budget for seed " << seed;
  }

  ExplicitChecker dedup_checker(p);
  const auto got = dedup_checker.enumerate_against(tr);
  ASSERT_FALSE(got.truncated);
  EXPECT_EQ(got.matchings, truth.matchings) << "seed=" << seed;
  EXPECT_LE(got.states_expanded, truth.states_expanded) << "seed=" << seed;
}

TEST_P(DedupSoundnessTest, GlobalFifoDedupEqualsNaive) {
  const std::uint64_t seed = GetParam();
  RandomProgramOptions popts;
  popts.max_sends_per_thread = 2;
  const mcapi::Program p = random_program(seed, popts);
  const trace::Trace tr = record(p, seed ^ 0x77aa);

  match::FeasibleOptions naive;
  naive.semantics = match::DeliverySemantics::kGlobalFifo;
  naive.dedup_states = false;
  const auto truth = match::enumerate_feasible(tr, naive);
  if (truth.truncated) {
    GTEST_SKIP() << "naive reference blew its budget for seed " << seed;
  }

  match::FeasibleOptions fast = naive;
  fast.dedup_states = true;
  const auto deduped = match::enumerate_feasible(tr, fast);
  ASSERT_FALSE(deduped.truncated);
  EXPECT_EQ(deduped.matchings, truth.matchings) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DedupSoundnessTest,
                         ::testing::Range<std::uint64_t>(200, 216));

TEST_P(CrossValidationTest, OverapproxCoversPrecise) {
  const std::uint64_t seed = GetParam();
  const mcapi::Program p = random_program(seed);
  const trace::Trace tr = record(p, seed ^ 0x5555);
  const match::MatchSet over = match::generate_overapprox(tr);
  const auto truth = match::enumerate_feasible(tr);
  EXPECT_TRUE(over.covers(truth.precise)) << "seed=" << seed;
}

TEST_P(CrossValidationTest, GlobalFifoBehaviorsAreSubset) {
  const std::uint64_t seed = GetParam();
  const mcapi::Program p = random_program(seed);
  const trace::Trace tr = record(p, seed ^ 0x1234);
  match::FeasibleOptions mcc;
  mcc.semantics = match::DeliverySemantics::kGlobalFifo;
  const auto restricted = match::enumerate_feasible(tr, mcc).matchings;
  const auto full = match::enumerate_feasible(tr).matchings;
  for (const auto& m : restricted) {
    EXPECT_TRUE(full.contains(m)) << "seed=" << seed;
  }
  EXPECT_LE(restricted.size(), full.size());
  EXPECT_GE(restricted.size(), 1u);  // the recorded run itself is in there
}

TEST_P(CrossValidationTest, EncodingAgreesWithZ3) {
  if (!smt::Z3Backend::available()) GTEST_SKIP() << "built without Z3";
  const std::uint64_t seed = GetParam();
  const mcapi::Program p = random_program(seed);
  const trace::Trace tr = record(p, seed ^ 0x9999);
  const match::MatchSet set = match::generate_overapprox(tr);

  smt::Solver solver;
  encode::EncodeOptions opts;
  opts.property_mode = encode::PropertyMode::kIgnore;
  encode::Encoder encoder(solver, tr, set, opts);
  (void)encoder.encode();
  const smt::SolveResult ours = solver.check();
  const smt::SolveResult z3 = smt::Z3Backend::check(solver.terms(), solver.assertions());
  EXPECT_EQ(ours, z3) << "seed=" << seed;
}

// Seed counts scale with MCSYM_TEST_ITERS. Defaults are leaner than the
// historical ranges now that the scheduled nightly run cranks the knob for
// depth (see .github/workflows/nightly.yml).
INSTANTIATE_TEST_SUITE_P(
    Seeds, CrossValidationTest,
    ::testing::Range<std::uint64_t>(0, support::env_u64("MCSYM_TEST_ITERS", 12)));

// Same battery with non-blocking receives mixed in.
class CrossValidationNbTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossValidationNbTest, SymbolicEqualsSkeletonDfsWithRecvI) {
  const std::uint64_t seed = GetParam();
  RandomProgramOptions opts;
  opts.allow_nonblocking = true;
  // Keep message counts small: the ground-truth DFS is factorial in the
  // number of racing messages and must finish untruncated.
  opts.max_sends_per_thread = 2;
  const mcapi::Program p = random_program(seed, opts);
  const trace::Trace tr = record(p, seed ^ 0x7777);

  match::FeasibleOptions fopts;
  fopts.max_paths = 200'000;
  const auto truth = match::enumerate_feasible(tr, fopts);
  if (truth.truncated) {
    // The exhaustive reference is factorial in racing messages; a seed that
    // blows the budget cannot serve as ground truth. (Most seeds fit.)
    GTEST_SKIP() << "reference enumeration truncated for seed " << seed;
  }
  SymbolicChecker checker(tr);
  EXPECT_EQ(checker.enumerate_matchings().matchings, truth.matchings)
      << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CrossValidationNbTest,
    ::testing::Range<std::uint64_t>(
        100, 100 + support::env_u64("MCSYM_TEST_ITERS", 12)));

}  // namespace
}  // namespace mcsym::check
