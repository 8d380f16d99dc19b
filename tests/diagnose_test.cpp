// Pairing diagnosis: feasibility verdicts must agree with the enumeration
// ground truth, witnesses must realize the proposal, and unsat cores must
// blame sensible constraint groups.
#include <gtest/gtest.h>

#include <algorithm>

#include "check/diagnose.hpp"
#include "check/random_program.hpp"
#include "check/symbolic_checker.hpp"
#include "check/workloads.hpp"
#include "mcapi/executor.hpp"
#include "trace/trace.hpp"

namespace mcsym::check {
namespace {

trace::Trace record(const mcapi::Program& p, std::uint64_t seed) {
  mcapi::System sys(p);
  trace::Trace tr(p);
  trace::Recorder rec(tr);
  mcapi::RandomScheduler sched(seed);
  (void)mcapi::run(sys, sched, &rec);
  return tr;
}

/// Receive anchors in trace order (match-id carriers).
std::vector<trace::EventIndex> anchors(const trace::Trace& tr) {
  return tr.receives();
}

bool blames(const Diagnosis& d, std::string_view group) {
  return std::find(d.blamed_groups.begin(), d.blamed_groups.end(), group) !=
         d.blamed_groups.end();
}

TEST(DiagnoseTest, Figure4bPairingIsFeasibleWithWitness) {
  const mcapi::Program p = workloads::figure1();
  const trace::Trace tr = record(p, 3);

  // Figure 4b: X -> recv(A), Y -> recv(B). Thread/op identities: t1's send
  // is op 1 (after its recv), t2's sends are ops 0 and 1.
  const trace::EventIndex x = tr.find(1, 1);
  const trace::EventIndex y = tr.find(2, 0);
  const trace::EventIndex recv_a = tr.find(0, 0);
  const trace::EventIndex recv_b = tr.find(0, 1);
  ASSERT_NE(x, trace::kNoEvent);
  ASSERT_NE(recv_b, trace::kNoEvent);

  const std::vector<PairProposal> proposal = {{recv_a, x}, {recv_b, y}};
  const Diagnosis d = diagnose_pairing(tr, proposal);
  ASSERT_TRUE(d.feasible);
  ASSERT_TRUE(d.witness.has_value());
  for (const PairProposal& want : proposal) {
    const bool found = std::any_of(
        d.witness->matching.begin(), d.witness->matching.end(),
        [&](const auto& rs) { return rs.first == want.recv && rs.second == want.send; });
    EXPECT_TRUE(found) << "witness must realize the proposed pair";
  }
}

TEST(DiagnoseTest, SameSendForTwoReceivesBlamesUniqueness) {
  const mcapi::Program p = workloads::figure1();
  const trace::Trace tr = record(p, 3);
  const trace::EventIndex y = tr.find(2, 0);
  const trace::EventIndex recv_a = tr.find(0, 0);
  const trace::EventIndex recv_b = tr.find(0, 1);

  const std::vector<PairProposal> proposal = {{recv_a, y}, {recv_b, y}};
  const Diagnosis d = diagnose_pairing(tr, proposal);
  ASSERT_FALSE(d.feasible);
  EXPECT_TRUE(blames(d, "uniqueness")) << "groups:"
                                       << ::testing::PrintToString(d.blamed_groups);
  EXPECT_EQ(d.blamed_pairs.size(), 2u) << "both copies of the send conflict";
}

TEST(DiagnoseTest, WrongEndpointSendBlamesMatchPairs) {
  const mcapi::Program p = workloads::figure1();
  const trace::Trace tr = record(p, 3);
  const trace::EventIndex z = tr.find(2, 1);       // goes to t1's endpoint
  const trace::EventIndex recv_a = tr.find(0, 0);  // receive on t0's endpoint

  const std::vector<PairProposal> proposal = {{recv_a, z}};
  const Diagnosis d = diagnose_pairing(tr, proposal);
  ASSERT_FALSE(d.feasible);
  EXPECT_TRUE(blames(d, "match pairs"));
  ASSERT_EQ(d.blamed_pairs.size(), 1u);
  EXPECT_EQ(d.blamed_pairs[0], proposal[0]);
}

TEST(DiagnoseTest, ChannelOvertakingBlamesFifo) {
  // One sender, two messages on the same channel: consuming them in
  // reversed order violates MCAPI per-channel non-overtaking.
  const mcapi::Program p = workloads::message_race(1, 2);
  const trace::Trace tr = record(p, 3);
  const auto rs = anchors(tr);
  ASSERT_EQ(rs.size(), 2u);
  ASSERT_EQ(tr.sends().size(), 2u);
  const trace::EventIndex s0 = tr.sends()[0];
  const trace::EventIndex s1 = tr.sends()[1];

  const std::vector<PairProposal> swapped = {{rs[0], s1}, {rs[1], s0}};
  const Diagnosis d = diagnose_pairing(tr, swapped);
  ASSERT_FALSE(d.feasible);
  EXPECT_TRUE(blames(d, "fifo")) << ::testing::PrintToString(d.blamed_groups);

  // Dropping the FIFO constraints makes the same proposal feasible — the
  // ablation the encoder exposes.
  encode::EncodeOptions no_fifo;
  no_fifo.fifo_non_overtaking = false;
  const Diagnosis relaxed = diagnose_pairing(tr, swapped, no_fifo);
  EXPECT_TRUE(relaxed.feasible);
}

TEST(DiagnoseTest, InOrderPairingOnOneChannelIsFeasible) {
  const mcapi::Program p = workloads::message_race(1, 2);
  const trace::Trace tr = record(p, 3);
  const auto rs = anchors(tr);
  const std::vector<PairProposal> in_order = {{rs[0], tr.sends()[0]},
                                              {rs[1], tr.sends()[1]}};
  EXPECT_TRUE(diagnose_pairing(tr, in_order).feasible);
}

TEST(DiagnoseTest, DelayIgnorantBaselineRefusesFigure4b) {
  const mcapi::Program p = workloads::figure1();
  const trace::Trace tr = record(p, 3);
  const trace::EventIndex x = tr.find(1, 1);
  const trace::EventIndex y = tr.find(2, 0);
  const trace::EventIndex recv_a = tr.find(0, 0);
  const trace::EventIndex recv_b = tr.find(0, 1);
  const std::vector<PairProposal> fig4b = {{recv_a, x}, {recv_b, y}};

  encode::EncodeOptions baseline;
  baseline.delay_ignorant = true;
  const Diagnosis d = diagnose_pairing(tr, fig4b, baseline);
  ASSERT_FALSE(d.feasible);
  EXPECT_TRUE(blames(d, "delay-ignorant"))
      << ::testing::PrintToString(d.blamed_groups);
}

TEST(DiagnoseTest, PartialProposalLeavesOtherReceivesFree) {
  const mcapi::Program p = workloads::figure1();
  const trace::Trace tr = record(p, 3);
  // Only pin recv(C) <- Z (the forced pair); everything else stays free.
  const trace::EventIndex z = tr.find(2, 1);
  const trace::EventIndex recv_c = tr.find(1, 0);
  const Diagnosis d = diagnose_pairing(tr, {{{recv_c, z}}});
  EXPECT_TRUE(d.feasible);
}

// Property: diagnose agrees with enumeration membership on full matchings.
class DiagnoseCrossValidationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DiagnoseCrossValidationTest, AgreesWithEnumerationMembership) {
  const std::uint64_t seed = GetParam();
  RandomProgramOptions opts;
  opts.allow_nonblocking = (seed % 2) == 0;
  opts.max_sends_per_thread = 2;
  const mcapi::Program p = random_program(seed, opts);
  const trace::Trace tr = record(p, seed ^ 0xd1a6);

  SymbolicChecker checker(tr);
  const auto enumeration = checker.enumerate_matchings();
  ASSERT_FALSE(enumeration.truncated);
  if (enumeration.matchings.empty()) GTEST_SKIP() << "no receives for this seed";

  // Every enumerated matching must diagnose as feasible.
  for (const auto& matching : enumeration.matchings) {
    std::vector<PairProposal> proposal;
    for (const auto& [recv, send] : matching) proposal.push_back({recv, send});
    EXPECT_TRUE(diagnose_pairing(tr, proposal).feasible) << "seed=" << seed;
  }

  // Perturb one matching by redirecting a receive to a different send of the
  // same endpoint; if the result is not in the enumeration it must diagnose
  // as infeasible (with a non-empty explanation).
  const auto& base = *enumeration.matchings.begin();
  for (std::size_t i = 0; i < base.size(); ++i) {
    for (const trace::EventIndex other_send : tr.sends()) {
      if (other_send == base[i].second) continue;
      if (tr.event(other_send).ev.dst != tr.event(base[i].first).ev.dst) continue;
      match::Matching mutated = base;
      mutated[i].second = other_send;
      std::sort(mutated.begin(), mutated.end());
      if (enumeration.matchings.contains(mutated)) continue;

      std::vector<PairProposal> proposal;
      for (const auto& [recv, send] : mutated) proposal.push_back({recv, send});
      const Diagnosis d = diagnose_pairing(tr, proposal);
      EXPECT_FALSE(d.feasible) << "seed=" << seed;
      if (!d.feasible) {
        EXPECT_FALSE(d.blamed_groups.empty() && d.blamed_pairs.empty());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiagnoseCrossValidationTest,
                         ::testing::Range<std::uint64_t>(300, 312));

}  // namespace
}  // namespace mcsym::check
