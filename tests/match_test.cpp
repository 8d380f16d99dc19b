// Tests for match-pair generation: the over-approximation, the precise
// depth-first abstract execution, and their relationship.
#include <gtest/gtest.h>

#include "check/workloads.hpp"
#include "match/generators.hpp"
#include "mcapi/executor.hpp"
#include "trace/trace.hpp"

namespace mcsym::match {
namespace {

namespace wl = check::workloads;

trace::Trace record(const mcapi::Program& p, std::uint64_t seed = 1) {
  mcapi::System sys(p);
  trace::Trace tr(p);
  trace::Recorder rec(tr);
  mcapi::RandomScheduler sched(seed);
  const auto r = mcapi::run(sys, sched, &rec);
  EXPECT_TRUE(r.completed());
  return tr;
}

TEST(OverapproxTest, Figure1CandidateSets) {
  const mcapi::Program p = wl::figure1();
  const trace::Trace tr = record(p);
  const MatchSet set = generate_overapprox(tr);
  EXPECT_EQ(set.num_receives(), 3u);
  // t0's two receives on e0 can each take Y (from t2) or X (from t1);
  // t1's receive on e1 can only take Z.
  EXPECT_EQ(set.total_pairs(), 5u);
  for (const trace::EventIndex r : tr.receives()) {
    const auto& ev = tr.event(r).ev;
    if (ev.thread == 1) {
      EXPECT_EQ(set.get_sends(r).size(), 1u);
    } else {
      EXPECT_EQ(set.get_sends(r).size(), 2u);
    }
  }
}

TEST(OverapproxTest, ProgramOrderPruningDropsOwnLaterSends) {
  // Thread sends to itself after receiving: that send cannot match.
  mcapi::Program p;
  auto t = p.add_thread("t");
  auto u = p.add_thread("u");
  const auto te = p.add_endpoint("te", t.ref());
  const auto ue = p.add_endpoint("ue", u.ref());
  t.recv(te, "x").send(te, te, 9);  // self-send strictly after the recv
  u.send(ue, te, 5);
  p.finalize();
  const trace::Trace tr = record(p);

  const MatchSet pruned = generate_overapprox(tr);
  EXPECT_EQ(pruned.total_pairs(), 1u);  // only u's send, not the self-send
}

TEST(FeasibleTest, Figure1HasExactlyTwoMatchings) {
  const mcapi::Program p = wl::figure1();
  const trace::Trace tr = record(p);
  const FeasibleResult res = enumerate_feasible(tr);
  EXPECT_FALSE(res.truncated);
  EXPECT_EQ(res.matchings.size(), 2u);  // Figures 4a and 4b
  EXPECT_GT(res.states_expanded, 0u);
}

TEST(FeasibleTest, GlobalFifoSeesOnlyFigure4a) {
  const mcapi::Program p = wl::figure1();
  const trace::Trace tr = record(p);
  FeasibleOptions mcc;
  mcc.semantics = DeliverySemantics::kGlobalFifo;
  const FeasibleResult res = enumerate_feasible(tr, mcc);
  EXPECT_EQ(res.matchings.size(), 1u);  // the MCC behavior gap, Figure 4b missing
  const FeasibleResult full = enumerate_feasible(tr);
  for (const Matching& m : res.matchings) {
    EXPECT_TRUE(full.matchings.contains(m));
  }
}

TEST(FeasibleTest, PreciseSetIsCoveredByOverapprox) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const mcapi::Program p = wl::message_race(2, 2);
    const trace::Trace tr = record(p, seed);
    const MatchSet over = generate_overapprox(tr);
    const FeasibleResult res = enumerate_feasible(tr);
    EXPECT_TRUE(over.covers(res.precise)) << "seed=" << seed;
  }
}

TEST(FeasibleTest, MessageRaceCountsMatchMultinomial) {
  // 2 senders x 2 messages: 4!/(2!2!) = 6 interleavings.
  const mcapi::Program p = wl::message_race(2, 2);
  const trace::Trace tr = record(p);
  EXPECT_EQ(enumerate_feasible(tr).matchings.size(), 6u);
  // 3 senders x 1 message: 3! = 6.
  const mcapi::Program p2 = wl::message_race(3, 1);
  const trace::Trace tr2 = record(p2);
  EXPECT_EQ(enumerate_feasible(tr2).matchings.size(), 6u);
}

TEST(FeasibleTest, SingleChannelIsDeterministic) {
  const mcapi::Program p = wl::pipeline(3, 2);
  const trace::Trace tr = record(p);
  const FeasibleResult res = enumerate_feasible(tr);
  EXPECT_EQ(res.matchings.size(), 1u);  // FIFO pins everything
}

TEST(FeasibleTest, NonblockingWindowAdmitsLateSend) {
  const mcapi::Program p = wl::nonblocking_window();
  const trace::Trace tr = record(p, 3);
  const FeasibleResult res = enumerate_feasible(tr);
  // The recv_i can take the early message (11) or the self-triggered late
  // one (99): two complete matchings.
  EXPECT_EQ(res.matchings.size(), 2u);
}

TEST(FeasibleTest, TruncationFlagHonored) {
  const mcapi::Program p = wl::message_race(3, 2);
  const trace::Trace tr = record(p);
  FeasibleOptions opts;
  opts.max_paths = 3;
  const FeasibleResult res = enumerate_feasible(tr, opts);
  EXPECT_TRUE(res.truncated);
  EXPECT_LE(res.paths_explored, 3u);
}

TEST(MatchSetTest, BasicOperations) {
  MatchSet s;
  EXPECT_EQ(s.num_receives(), 0u);
  s.add(1, 10);
  s.add(1, 11);
  s.add(1, 10);  // duplicate ignored
  EXPECT_EQ(s.get_sends(1).size(), 2u);
  EXPECT_TRUE(s.contains(1, 10));
  EXPECT_FALSE(s.contains(1, 12));
  EXPECT_TRUE(s.get_sends(99).empty());
  s.add_all(2, {20, 21, 21, 20});
  EXPECT_EQ(s.get_sends(2).size(), 2u);
  EXPECT_EQ(s.total_pairs(), 4u);

  MatchSet sub;
  sub.add(1, 10);
  EXPECT_TRUE(s.covers(sub));
  sub.add(3, 30);
  EXPECT_FALSE(s.covers(sub));
}

TEST(MatchSetTest, SummaryIsHumanReadable) {
  const mcapi::Program p = wl::figure1();
  const trace::Trace tr = record(p);
  const MatchSet set = generate_overapprox(tr);
  const std::string s = set.summary(tr);
  EXPECT_NE(s.find("t0:recv[0]"), std::string::npos);
  EXPECT_NE(s.find("send"), std::string::npos);
}

}  // namespace
}  // namespace mcsym::match
