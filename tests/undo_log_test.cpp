// Undo-log equivalence fuzz: the checkpoint/undo execution core must be
// observationally indistinguishable from copy-the-world state management.
// Hundreds of seeded random programs are driven through random action
// prefixes on a journaling System; copy-constructed snapshots are taken at
// random depths, and random rollbacks must land on a state identical to
// the snapshot — enabled set, endpoint/transit queues (via fingerprints),
// match and branch logs, halt/deadlock/violation verdicts — after which
// the walk resumes from the rolled-back state.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "check/random_program.hpp"
#include "mcapi/system.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"

namespace mcsym::mcapi {
namespace {

std::vector<Action> enabled_of(const System& s) {
  std::vector<Action> out;
  s.enabled(out);
  return out;
}

/// The observational-equality contract of the satellite: everything a
/// checker can ask a System is compared. The two fingerprints cover the
/// full semantic state (queues, locals, requests, transit layout) and the
/// accumulated history; the rest pins the user-facing surface directly.
void expect_observationally_equal(const System& got, const System& want,
                                  std::uint64_t seed, std::size_t depth) {
  ASSERT_EQ(got.fingerprint(), want.fingerprint())
      << "seed=" << seed << " depth=" << depth;
  ASSERT_EQ(got.history_fingerprint(), want.history_fingerprint())
      << "seed=" << seed << " depth=" << depth;
  ASSERT_EQ(enabled_of(got), enabled_of(want)) << "seed=" << seed;
  ASSERT_EQ(got.matches(), want.matches()) << "seed=" << seed;
  ASSERT_EQ(got.branches(), want.branches()) << "seed=" << seed;
  ASSERT_EQ(got.all_halted(), want.all_halted()) << "seed=" << seed;
  ASSERT_EQ(got.deadlocked(), want.deadlocked()) << "seed=" << seed;
  ASSERT_EQ(got.has_violation(), want.has_violation()) << "seed=" << seed;
}

check::RandomProgramOptions shape_for(support::Rng& rng) {
  check::RandomProgramOptions popts;
  popts.threads = 2 + static_cast<std::uint32_t>(rng.below(3));
  popts.max_sends_per_thread = 1 + static_cast<std::uint32_t>(rng.below(3));
  popts.allow_nonblocking = rng.chance(1, 2);
  popts.allow_test_poll = popts.allow_nonblocking && rng.chance(1, 2);
  popts.allow_wait_any = popts.allow_nonblocking && rng.chance(1, 2);
  popts.add_asserts = rng.chance(1, 2);
  popts.allow_deadlocks = rng.chance(1, 2);
  return popts;
}

TEST(UndoLog, RandomRollbacksMatchCopySnapshots) {
  // ~500 executions at the CI default; the nightly knob scales it up.
  const std::uint64_t executions = support::env_u64("MCSYM_TEST_ITERS", 500);
  for (std::uint64_t i = 0; i < executions; ++i) {
    const std::uint64_t seed = 0x0d01ULL + i * 0x9e3779b97f4a7c15ULL;
    support::Rng rng(seed);
    const Program program = check::random_program(seed, shape_for(rng));

    System live(program);
    live.enable_undo_log();
    // (watermark, copy-constructed baseline) pairs at random depths; the
    // copies are the ground truth the undo path must reproduce.
    std::vector<std::pair<System::Checkpoint, System>> snapshots;
    snapshots.emplace_back(live.checkpoint(), live);

    std::vector<Action> enabled;
    std::size_t depth = 0;
    for (int step = 0; step < 160; ++step) {
      live.enabled(enabled);
      if (enabled.empty()) {
        if (snapshots.size() <= 1) break;
        // Terminal (halted, deadlocked, or violated): rewind somewhere
        // random and keep walking, so post-terminal undo is exercised too.
        const std::size_t pick = rng.below(snapshots.size());
        live.rollback(snapshots[pick].first);
        depth = snapshots[pick].first;
        expect_observationally_equal(live, snapshots[pick].second, seed, depth);
        snapshots.erase(snapshots.begin() + static_cast<std::ptrdiff_t>(pick) + 1,
                        snapshots.end());
        continue;
      }
      live.apply(enabled[rng.below(enabled.size())]);
      ++depth;
      if (rng.chance(1, 3)) snapshots.emplace_back(live.checkpoint(), live);
      if (rng.chance(1, 6)) {
        const std::size_t pick = rng.below(snapshots.size());
        live.rollback(snapshots[pick].first);
        depth = snapshots[pick].first;
        expect_observationally_equal(live, snapshots[pick].second, seed, depth);
        // Checkpoints above the rollback target are dead; drop them so the
        // next random pick stays valid.
        snapshots.erase(snapshots.begin() + static_cast<std::ptrdiff_t>(pick) + 1,
                        snapshots.end());
      }
      if (HasFatalFailure()) return;
    }

    // Full unwind: rollback(0) must land on a pristine System.
    live.rollback(0);
    expect_observationally_equal(live, System(program), seed, 0);
    if (HasFatalFailure()) return;
  }
}

// Undo must restore a fired violation back to "not violated": a rolled-back
// assert leaves no trace — the violation record, the terminal enabled-set
// freeze, and the branch history all revert.
TEST(UndoLog, ViolationRollsBack) {
  Program p;
  auto t = p.add_thread("t");
  t.assign("x", ThreadBuilder::c(1))
      .assert_that(Cond{t.v("x"), Rel::kEq, ThreadBuilder::c(2)});
  p.finalize();

  System sys(p);
  sys.enable_undo_log();
  std::vector<Action> enabled;
  sys.enabled(enabled);
  ASSERT_EQ(enabled.size(), 1u);
  sys.apply(enabled.front());  // assign
  const System::Checkpoint before = sys.checkpoint();
  sys.enabled(enabled);
  ASSERT_EQ(enabled.size(), 1u);
  sys.apply(enabled.front());  // assert fires
  ASSERT_TRUE(sys.has_violation());
  sys.enabled(enabled);
  EXPECT_TRUE(enabled.empty());  // violations are terminal

  sys.rollback(before);
  EXPECT_FALSE(sys.has_violation());
  sys.enabled(enabled);
  EXPECT_EQ(enabled.size(), 1u);  // the assert is steppable again
}

// Continue-past-violation mode: fired asserts are collected, not terminal,
// and the undo journal pops them back off one by one — violation() always
// names the *first* fired assert of the live prefix.
TEST(UndoLog, ContinuePastViolationCollectsAndUndoes) {
  Program p;
  auto t = p.add_thread("t");
  t.assign("x", ThreadBuilder::c(1))
      .assert_that(Cond{t.v("x"), Rel::kEq, ThreadBuilder::c(2)})   // fires
      .assert_that(Cond{t.v("x"), Rel::kEq, ThreadBuilder::c(3)})   // fires
      .assign("x", ThreadBuilder::c(9));
  p.finalize();

  System sys(p);
  sys.enable_undo_log();
  sys.set_continue_past_violation(true);
  std::vector<Action> enabled;
  auto step = [&] {
    sys.enabled(enabled);
    ASSERT_EQ(enabled.size(), 1u);
    sys.apply(enabled.front());
  };
  step();  // assign
  step();  // first assert fires
  ASSERT_TRUE(sys.has_violation());
  ASSERT_EQ(sys.violations().size(), 1u);
  const System::Checkpoint after_first = sys.checkpoint();
  step();  // second assert fires too — execution kept going
  step();  // trailing assign still runs
  ASSERT_EQ(sys.violations().size(), 2u);
  EXPECT_EQ(sys.violations()[0].op_index, 1u);
  EXPECT_EQ(sys.violations()[1].op_index, 2u);
  ASSERT_TRUE(sys.violation().has_value());
  EXPECT_EQ(sys.violation()->op_index, 1u);  // first fired assert
  EXPECT_FALSE(sys.next_op_kind(0).has_value());  // thread 0 halted

  sys.rollback(after_first);
  ASSERT_EQ(sys.violations().size(), 1u);
  ASSERT_TRUE(sys.violation().has_value());
  EXPECT_EQ(sys.violation()->op_index, 1u);
  sys.rollback(0);
  EXPECT_FALSE(sys.has_violation());
  EXPECT_TRUE(sys.violations().empty());
}

}  // namespace
}  // namespace mcsym::mcapi
