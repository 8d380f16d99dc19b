// Tests for the symbolic encoder: the paper's constraint groups, the
// semantics toggles, and witness decoding.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "check/random_program.hpp"
#include "check/symbolic_checker.hpp"
#include "check/workloads.hpp"
#include "encode/encoder.hpp"
#include "encode/witness.hpp"
#include "match/generators.hpp"
#include "mcapi/executor.hpp"
#include "smt/solver.hpp"
#include "support/env.hpp"
#include "trace/trace.hpp"

namespace mcsym::encode {
namespace {

namespace wl = check::workloads;
using mcapi::Rel;

trace::Trace record(const mcapi::Program& p, std::uint64_t seed = 1,
                    bool require_complete = true) {
  mcapi::System sys(p);
  trace::Trace tr(p);
  trace::Recorder rec(tr);
  mcapi::RandomScheduler sched(seed);
  const auto r = mcapi::run(sys, sched, &rec);
  if (require_complete) {
    EXPECT_TRUE(r.completed());
  }
  return tr;
}

struct Built {
  smt::Solver solver;
  Encoding enc;
};

void build(Built& b, const trace::Trace& tr, EncodeOptions opts = {},
           std::span<const Property> props = {}) {
  const match::MatchSet set = match::generate_overapprox(tr);
  Encoder encoder(b.solver, tr, set, opts);
  b.enc = encoder.encode(props);
}

TEST(EncoderTest, Figure1Stats) {
  const mcapi::Program p = wl::figure1();
  const trace::Trace tr = record(p);
  Built b;
  build(b, tr);
  EXPECT_EQ(b.enc.stats.clock_vars, 6u);       // 3 sends + 3 recvs
  EXPECT_EQ(b.enc.stats.id_vars, 3u);          // one per receive
  EXPECT_EQ(b.enc.stats.value_vars, 3u);       // one per receive
  EXPECT_EQ(b.enc.stats.match_disjuncts, 5u);  // 2+2+1 candidates
  EXPECT_EQ(b.enc.stats.order_constraints, 3u);  // one per thread pair
  // Two sends are contested (t0's receives are candidates of both); each
  // gets a two-selector at-most-one, a single negated conjunction. No
  // channel carries two sends, so no high-water chain absorbs them.
  EXPECT_EQ(b.enc.stats.unique_constraints, 2u);
  EXPECT_EQ(b.enc.recv_order.size(), 3u);
}

TEST(EncoderTest, LegacyPairwiseShapeCountsOverlappingPairs) {
  const mcapi::Program p = wl::figure1();
  const trace::Trace tr = record(p);
  Built b;
  EncodeOptions opts;
  opts.unique_ladder = false;
  opts.fifo_chain = false;
  build(b, tr, opts);
  // The pre-ladder default: ne() per receive pair with intersecting
  // candidate sets — only t0's two receives share candidates.
  EXPECT_EQ(b.enc.stats.unique_constraints, 1u);
  EXPECT_EQ(b.solver.check(), smt::SolveResult::kSat);
}

TEST(EncoderTest, LinearShapesShrinkHotWorkloads) {
  // message_race(4, 3): four senders, three messages each, one receiver
  // endpoint. Every receive pair overlaps (legacy PUnique is quadratic in
  // receives) and every channel carries three sends (legacy PFifo is
  // send-pairs × receive-pairs). The high-water chains and selector ladders
  // must cut the combined count at least 5x — and because every channel is
  // chained, the chains subsume uniqueness outright and PUnique vanishes.
  const mcapi::Program p = wl::message_race(4, 3);
  const trace::Trace tr = record(p);
  EncodeOptions legacy;
  legacy.unique_ladder = false;
  legacy.fifo_chain = false;
  legacy.property_mode = PropertyMode::kIgnore;
  EncodeOptions linear;
  linear.property_mode = PropertyMode::kIgnore;
  Built leg;
  Built lin;
  build(leg, tr, legacy);
  build(lin, tr, linear);
  EXPECT_EQ(lin.enc.stats.unique_constraints, 0u);
  EXPECT_GT(lin.enc.stats.fifo_constraints, 0u);
  const std::size_t legacy_total =
      leg.enc.stats.unique_constraints + leg.enc.stats.fifo_constraints;
  const std::size_t linear_total =
      lin.enc.stats.unique_constraints + lin.enc.stats.fifo_constraints;
  EXPECT_GE(legacy_total, 5 * linear_total)
      << "legacy=" << legacy_total << " linear=" << linear_total;
  EXPECT_EQ(leg.solver.check(), lin.solver.check());
}

TEST(EncoderTest, UniqueAllPairsAblationCountsAllPairs) {
  const mcapi::Program p = wl::figure1();
  const trace::Trace tr = record(p);
  Built b;
  EncodeOptions opts;
  opts.unique_all_pairs = true;  // the literal Fig. 3 algorithm
  build(b, tr, opts);
  EXPECT_EQ(b.enc.stats.unique_constraints, 3u);  // C(3,2)
  // Semantics must be unchanged: enumerating both still yields SAT.
  EXPECT_EQ(b.solver.check(), smt::SolveResult::kSat);
}

TEST(EncoderTest, EnumerationFindsBothFigure4Pairings) {
  const mcapi::Program p = wl::figure1();
  const trace::Trace tr = record(p);
  Built b;
  EncodeOptions opts;
  opts.property_mode = PropertyMode::kIgnore;
  build(b, tr, opts);

  std::set<match::Matching> found;
  const auto projection = b.enc.id_projection();
  while (b.solver.check() == smt::SolveResult::kSat) {
    found.insert(decode_witness(b.solver, b.enc, tr).matching);
    ASSERT_LE(found.size(), 2u);
    b.solver.block_current_ints(projection);
  }
  EXPECT_EQ(found.size(), 2u);
}

TEST(EncoderTest, PropertyViolationSatWithWitness) {
  const auto [program, properties] = wl::figure1_with_property();
  const trace::Trace tr = record(program, 42, false);
  Built b;
  build(b, tr, {}, properties);
  ASSERT_EQ(b.solver.check(), smt::SolveResult::kSat);
  const Witness w = decode_witness(b.solver, b.enc, tr);
  // The witness must be the 4b pairing: t0's first receive got X (10).
  ASSERT_FALSE(w.recv_values.empty());
  bool saw_first_recv = false;
  for (const auto& [r, v] : w.recv_values) {
    const auto& ev = tr.event(r).ev;
    if (ev.thread == 0 && ev.op_index == 0) {
      saw_first_recv = true;
      EXPECT_EQ(v, wl::kPayloadX);
    }
  }
  EXPECT_TRUE(saw_first_recv);
  EXPECT_FALSE(w.violated.empty());
  // The linearization is a permutation of all six communication events.
  EXPECT_EQ(w.linearization.size(), 6u);
}

TEST(EncoderTest, DelayIgnorantExcludesFigure4b) {
  const auto [program, properties] = wl::figure1_with_property();
  const trace::Trace tr = record(program, 42, false);
  Built b;
  EncodeOptions opts;
  opts.delay_ignorant = true;
  build(b, tr, opts, properties);
  // Under the baseline's semantics the violating pairing does not exist.
  EXPECT_EQ(b.solver.check(), smt::SolveResult::kUnsat);
  EXPECT_GT(b.enc.stats.delay_constraints, 0u);
}

TEST(EncoderTest, PipelineAssertsVerifiedUnsat) {
  const mcapi::Program p = wl::pipeline(3, 2);
  const trace::Trace tr = record(p);
  Built b;
  build(b, tr);
  EXPECT_EQ(b.solver.check(), smt::SolveResult::kUnsat);
  EXPECT_GT(b.enc.stats.fifo_constraints, 0u);
}

TEST(EncoderTest, FifoTogglePermitsOvertakingWhenOff) {
  // Single channel with two messages: with FIFO the matching is unique;
  // without it the encoder accepts the swapped pairing too.
  mcapi::Program p;
  auto tx = p.add_thread("tx");
  auto rx = p.add_thread("rx");
  const auto out = p.add_endpoint("o", tx.ref());
  const auto in = p.add_endpoint("i", rx.ref());
  tx.send(out, in, 1).send(out, in, 2);
  rx.recv(in, "a").recv(in, "b");
  p.finalize();
  const trace::Trace tr = record(p);

  auto count = [&tr](bool fifo) {
    Built b;
    EncodeOptions opts;
    opts.fifo_non_overtaking = fifo;
    opts.property_mode = PropertyMode::kIgnore;
    build(b, tr, opts);
    std::set<match::Matching> found;
    const auto projection = b.enc.id_projection();
    while (b.solver.check() == smt::SolveResult::kSat) {
      found.insert(decode_witness(b.solver, b.enc, tr).matching);
      b.solver.block_current_ints(projection);
      if (found.size() > 4) break;
    }
    return found.size();
  };
  EXPECT_EQ(count(true), 1u);   // MCAPI semantics
  EXPECT_EQ(count(false), 2u);  // ablation: overtaking allowed
}

TEST(EncoderTest, BranchOutcomesPinControlFlow) {
  const mcapi::Program p = wl::branchy_race();
  // Find a seed whose recorded run takes the a==2 path (branch not taken),
  // i.e. completes without violating "r == 100".
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    mcapi::System sys(p);
    trace::Trace tr(p);
    trace::Recorder rec(tr);
    mcapi::RandomScheduler sched(seed);
    const auto r = mcapi::run(sys, sched, &rec);
    if (!r.completed()) continue;  // that run violated; pick another
    // This trace pinned a != 1, so a = 2 and r = 100: within this control
    // flow the assertion can never fail, even though the program can fail.
    Built b;
    build(b, tr);
    EXPECT_EQ(b.solver.check(), smt::SolveResult::kUnsat);
    // And the first receive's value is forced: only the '2' send matches.
    EncodeOptions enum_opts;
    enum_opts.property_mode = PropertyMode::kIgnore;
    Built e;
    build(e, tr, enum_opts);
    ASSERT_EQ(e.solver.check(), smt::SolveResult::kSat);
    const Witness w = decode_witness(e.solver, e.enc, tr);
    for (const auto& [ri, v] : w.recv_values) {
      if (tr.event(ri).ev.op_index == 0 && tr.event(ri).ev.thread == 0) {
        EXPECT_EQ(v, 2);
      }
    }
    return;
  }
  FAIL() << "no completing seed found for branchy_race";
}

TEST(EncoderTest, WaitAnchoredWindowWiderThanIssueAnchored) {
  const mcapi::Program p = wl::nonblocking_window();
  const trace::Trace tr = record(p, 3);

  auto count = [&tr](bool at_wait) {
    Built b;
    EncodeOptions opts;
    opts.anchor_nb_at_wait = at_wait;
    opts.property_mode = PropertyMode::kIgnore;
    build(b, tr, opts);
    std::set<match::Matching> found;
    const auto projection = b.enc.id_projection();
    while (b.solver.check() == smt::SolveResult::kSat) {
      found.insert(decode_witness(b.solver, b.enc, tr).matching);
      b.solver.block_current_ints(projection);
      if (found.size() > 4) break;
    }
    return found.size();
  };
  EXPECT_EQ(count(true), 2u);   // paper semantics: late send can match
  EXPECT_EQ(count(false), 1u);  // issue-anchored ablation loses it
}

TEST(EncoderTest, CompletionOrderRestoresExactness) {
  // reversed_waits: the late (self-triggered) message can never bind under
  // MCAPI's issue-order completion rule; the bare paper window admits it.
  const mcapi::Program p = wl::reversed_waits();
  const trace::Trace tr = record(p, 2);
  const auto truth = match::enumerate_feasible(tr);
  ASSERT_EQ(truth.matchings.size(), 2u);

  auto enumerate = [&tr](bool ordered) {
    Built b;
    EncodeOptions opts;
    opts.order_endpoint_completions = ordered;
    opts.property_mode = PropertyMode::kIgnore;
    build(b, tr, opts);
    std::set<match::Matching> found;
    const auto projection = b.enc.id_projection();
    while (b.solver.check() == smt::SolveResult::kSat) {
      found.insert(decode_witness(b.solver, b.enc, tr).matching);
      b.solver.block_current_ints(projection);
      if (found.size() > 8) break;
    }
    return found;
  };

  const auto exact = enumerate(true);
  EXPECT_EQ(exact, truth.matchings);  // bind-time encoding is exact

  const auto bare = enumerate(false);  // the 2-page paper's literal window
  EXPECT_EQ(bare.size(), 4u);
  for (const auto& m : truth.matchings) {
    EXPECT_TRUE(bare.contains(m));  // still sound (over-approximation)
  }
}

TEST(EncoderTest, CompletionOrderNoEffectOnBlockingWorkloads) {
  const mcapi::Program p = wl::figure1();
  const trace::Trace tr = record(p);
  Built on;
  Built off;
  EncodeOptions opts_off;
  opts_off.order_endpoint_completions = false;
  build(on, tr);
  build(off, tr, opts_off);
  EXPECT_EQ(on.enc.stats.completion_order_constraints, 0u);
  EXPECT_EQ(off.enc.stats.completion_order_constraints, 0u);
  EXPECT_EQ(on.solver.check(), off.solver.check());
}

TEST(EncoderTest, ExtraPropertiesOverFinalValues) {
  const mcapi::Program p = wl::figure1();
  const trace::Trace tr = record(p);
  // "t0.B == X" is violable (B can be X or Y).
  const Property violable = make_property(
      "B==X", Operand::final_var(0, "B"), Rel::kEq, Operand::constant(wl::kPayloadX));
  // "t1.C == Z" holds in every execution.
  const Property stable = make_property(
      "C==Z", Operand::final_var(1, "C"), Rel::kEq, Operand::constant(wl::kPayloadZ));
  {
    Built b;
    build(b, tr, {}, std::span<const Property>(&violable, 1));
    EXPECT_EQ(b.solver.check(), smt::SolveResult::kSat);
  }
  {
    Built b;
    build(b, tr, {}, std::span<const Property>(&stable, 1));
    EXPECT_EQ(b.solver.check(), smt::SolveResult::kUnsat);
  }
}

TEST(EncoderTest, PropertyModeAssertRequiresAllHold) {
  const auto [program, properties] = wl::figure1_with_property();
  const trace::Trace tr = record(program, 42, false);
  Built b;
  EncodeOptions opts;
  opts.property_mode = PropertyMode::kAssert;
  build(b, tr, opts, properties);
  // A correct execution (4a) exists, so asserting PProp is satisfiable.
  ASSERT_EQ(b.solver.check(), smt::SolveResult::kSat);
  const Witness w = decode_witness(b.solver, b.enc, tr);
  EXPECT_TRUE(w.violated.empty());
}

TEST(EncoderTest, UnmatchableReceiveMakesProblemUnsat) {
  // An empty candidate set encodes `false` for that receive.
  const mcapi::Program p = wl::figure1();
  const trace::Trace tr = record(p);
  match::MatchSet empty;  // no candidates at all
  smt::Solver solver;
  EncodeOptions opts;
  opts.property_mode = PropertyMode::kIgnore;
  Encoder encoder(solver, tr, empty, opts);
  (void)encoder.encode();
  EXPECT_EQ(solver.check(), smt::SolveResult::kUnsat);
}

TEST(EncoderTest, HavocInitialLocalsWeakerThanZero) {
  // A program that asserts "x == 0" on an unwritten local: with zero-init
  // the negation is UNSAT, with havoc-init it is SAT.
  mcapi::Program p;
  auto t = p.add_thread("t");
  t.assert_that(mcapi::Cond{t.v("x"), Rel::kEq, mcapi::ThreadBuilder::c(0)});
  p.finalize();
  const trace::Trace tr = record(p, 1, false);
  {
    Built b;
    build(b, tr);
    EXPECT_EQ(b.solver.check(), smt::SolveResult::kUnsat);
  }
  {
    Built b;
    EncodeOptions opts;
    opts.initial_locals_zero = false;
    build(b, tr, opts);
    EXPECT_EQ(b.solver.check(), smt::SolveResult::kSat);
  }
}

// --- Emission-shape equisatisfiability battery -----------------------------

// The linear shapes (per-send selector ladders, per-channel high-water
// chains) must be drop-in replacements for the legacy quadratic emissions:
// same verdict on the bug-hunting query and identical enumerated matching
// sets on random programs (nonblocking ops on even seeds). The seed count
// scales with MCSYM_TEST_ITERS (nightly cranks it).
class EmissionShapeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EmissionShapeTest, LinearAndLegacyShapesAgree) {
  const std::uint64_t seed = GetParam();
  check::RandomProgramOptions ropts;
  ropts.allow_nonblocking = (seed % 2) == 0;
  const mcapi::Program p = check::random_program(seed, ropts);
  const trace::Trace tr = record(p, seed ^ 0x5eed, false);

  auto shaped = [](bool linear) {
    check::SymbolicOptions so;
    so.encode.unique_ladder = linear;
    so.encode.fifo_chain = linear;
    return so;
  };
  check::SymbolicChecker lin(tr, shaped(true));
  check::SymbolicChecker leg(tr, shaped(false));
  EXPECT_EQ(lin.check().result, leg.check().result) << "seed=" << seed;

  const auto el = lin.enumerate_matchings();
  const auto eg = leg.enumerate_matchings();
  ASSERT_FALSE(el.truncated);
  ASSERT_FALSE(eg.truncated);
  EXPECT_EQ(el.matchings, eg.matchings) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, EmissionShapeTest,
    ::testing::Range<std::uint64_t>(
        7000, 7000 + support::env_u64("MCSYM_TEST_ITERS", 25)));

// --- Recorded-run warm start ------------------------------------------------

// Value of every term under `run` (variables left out count as 0), in one
// pass: hash-consing creates children before their parents.
std::vector<std::int64_t> evaluate(const smt::TermTable& tt,
                                   std::span<const smt::VarValue> run) {
  std::vector<std::int64_t> val(tt.size(), 0);
  for (const smt::VarValue& v : run) val[v.var] = v.value;
  for (smt::TermId t = 0; t < tt.size(); ++t) {
    const smt::TermNode& n = tt.node(t);
    switch (n.op) {
      case smt::Op::kTrue: val[t] = 1; break;
      case smt::Op::kIntConst: val[t] = n.value; break;
      case smt::Op::kAddConst: val[t] = val[n.child0] + n.value; break;
      case smt::Op::kNot: val[t] = val[n.child0] == 0; break;
      case smt::Op::kAnd:
        val[t] = 1;
        for (const smt::TermId c : tt.children(t)) val[t] = val[t] && val[c];
        break;
      case smt::Op::kOr:
        val[t] = 0;
        for (const smt::TermId c : tt.children(t)) val[t] = val[t] || val[c];
        break;
      case smt::Op::kLeAtom: {
        const std::int64_t x = n.child0 == smt::kNoTerm ? 0 : val[n.child0];
        const std::int64_t y = n.child1 == smt::kNoTerm ? 0 : val[n.child1];
        val[t] = x - y <= n.value;
        break;
      }
      default: break;  // kFalse, variables: as given
    }
  }
  return val;
}

// The recorded run is one execution consistent with its own trace, so the
// values the encoder records for it must satisfy every group it asserts
// (the delay-ignorant baseline is left out: the runtime need not obey it).
// Random programs with recv_i/wait, mcapi_test polls and wait_any, plus
// the fixed workloads whose wait_any scans see losers; the seed count
// scales with MCSYM_TEST_ITERS.
class RecordedRunTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RecordedRunTest, RecordedValuesSatisfyEveryAssertedGroup) {
  const std::uint64_t seed = GetParam();
  check::RandomProgramOptions ropts;
  ropts.threads = 3 + static_cast<std::uint32_t>(seed % 2);
  ropts.allow_nonblocking = (seed % 3) != 0;
  ropts.allow_test_poll = (seed % 2) == 0;
  ropts.allow_wait_any = (seed % 4) < 2;
  std::vector<mcapi::Program> programs;
  programs.push_back(check::random_program(seed, ropts));
  programs.push_back(wl::select_server(2));
  programs.push_back(wl::polling_race(3));
  programs.push_back(wl::reversed_waits());
  programs.push_back(wl::message_race(2, 3));

  std::vector<EncodeOptions> shapes(4);
  shapes[1].unique_all_pairs = true;
  shapes[2].fifo_chain = false;
  shapes[3].unique_ladder = false;
  for (const mcapi::Program& p : programs) {
    const trace::Trace tr = record(p, seed, false);
    const match::MatchSet set = match::generate_overapprox(tr);
    for (std::size_t k = 0; k < shapes.size(); ++k) {
      smt::Solver solver;
      Encoder encoder(solver, tr, set, shapes[k]);
      const Encoding enc = encoder.encode();
      const smt::TermTable& tt = solver.terms();
      const std::vector<std::int64_t> val = evaluate(tt, enc.recorded_run);
      const std::string where =
          "seed=" + std::to_string(seed) + " shape=" + std::to_string(k);
      EXPECT_EQ(val[enc.p_order], 1) << where;
      EXPECT_EQ(val[enc.p_match], 1) << where;
      EXPECT_EQ(val[enc.p_unique], 1) << where;
      EXPECT_EQ(val[enc.p_events], 1) << where;
      if (enc.p_fifo != smt::kNoTerm) {
        EXPECT_EQ(val[enc.p_fifo], 1) << where;
      }
      // Every variable the encoding created carries a recorded value.
      std::set<smt::TermId> recorded;
      for (const smt::VarValue& v : enc.recorded_run) recorded.insert(v.var);
      for (smt::TermId t = 0; t < tt.size(); ++t) {
        const smt::Op op = tt.node(t).op;
        if (op == smt::Op::kIntVar || op == smt::Op::kBoolVar) {
          EXPECT_TRUE(recorded.contains(t)) << where << " " << tt.var_name(t);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RecordedRunTest,
    ::testing::Range<std::uint64_t>(
        9000, 9000 + support::env_u64("MCSYM_TEST_ITERS", 25)));

// On an assertion-free trace the query is pure feasibility, which the
// recorded run answers: the warm-started search must not hit one conflict.
TEST(WarmStartTest, FeasibilityQueriesAreConflictFree) {
  const std::vector<std::pair<std::string, mcapi::Program>> programs = {
      {"relay_race(2)", wl::relay_race(2)},
      {"message_race(3,2)", wl::message_race(3, 2)},
      {"relay_race(3)", wl::relay_race(3)},
      {"select_server(2)", wl::select_server(2)},
  };
  for (const auto& [name, p] : programs) {
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      const trace::Trace tr = record(p, seed);
      check::SymbolicChecker checker(tr);
      const check::SymbolicVerdict v = checker.check();
      EXPECT_EQ(v.result, smt::SolveResult::kSat) << name << " seed=" << seed;
      EXPECT_EQ(v.sat_conflicts, 0u) << name << " seed=" << seed;
    }
  }
}

// The formula of a session is pinned on the seed-1 traces of the
// symbolic_traces hot inputs: a faster term, CNF or theory layer must build
// the same SAT variables, problem clauses and IDL atoms, and the warm start
// must run the same conflict-free search. The session is built the way
// SymbolicChecker builds it: base groups only, phases from the recorded run.
TEST(WarmStartTest, SessionFormulaIsPinned) {
  struct Pin {
    std::string name;
    mcapi::Program program;
    std::uint32_t sat_vars;
    std::size_t clauses;
    std::size_t atoms;
    std::uint64_t decisions;
  };
  const std::vector<Pin> pins = {
      {"relay_race(2)", wl::relay_race(2), 150, 204, 97, 80},
      {"message_race(3,2)", wl::message_race(3, 2), 327, 441, 233, 218},
  };
  for (const Pin& pin : pins) {
    const trace::Trace tr = record(pin.program, 1);
    const match::MatchSet set = match::generate_overapprox(tr);
    smt::Solver solver;
    EncodeOptions opts;
    opts.property_mode = PropertyMode::kIgnore;
    Encoder encoder(solver, tr, set, opts);
    const Encoding enc = encoder.encode();
    solver.hint_phases(enc.recorded_run);
    ASSERT_EQ(solver.check(), smt::SolveResult::kSat) << pin.name;
    EXPECT_EQ(solver.num_sat_vars(), pin.sat_vars) << pin.name;
    EXPECT_EQ(solver.num_problem_clauses(), pin.clauses) << pin.name;
    EXPECT_EQ(solver.num_idl_atoms(), pin.atoms) << pin.name;
    EXPECT_EQ(solver.sat_stats().conflicts, 0u) << pin.name;
    EXPECT_EQ(solver.sat_stats().decisions, pin.decisions) << pin.name;
  }
}

TEST(WitnessTest, ToStringMentionsScheduleAndMatching) {
  const auto [program, properties] = wl::figure1_with_property();
  const trace::Trace tr = record(program, 42, false);
  Built b;
  build(b, tr, {}, properties);
  ASSERT_EQ(b.solver.check(), smt::SolveResult::kSat);
  const Witness w = decode_witness(b.solver, b.enc, tr);
  const std::string s = w.to_string(tr);
  EXPECT_NE(s.find("matching:"), std::string::npos);
  EXPECT_NE(s.find("schedule:"), std::string::npos);
  EXPECT_NE(s.find("violated:"), std::string::npos);
  EXPECT_NE(s.find("send#"), std::string::npos);
}

}  // namespace
}  // namespace mcsym::encode
