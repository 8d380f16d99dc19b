// E2 — encoding construction (paper Figures 2 and 3).
//
// Measures how the constraint groups grow with workload size. The paper's
// literal Fig. 3 uniqueness pass is quadratic in the number of receives
// (printed in closed form); the encoder's per-send ladders and per-channel
// high-water chains stay linear in the candidate count. Also ablates the
// FIFO (non-overtaking) constraints.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "check/symbolic_checker.hpp"
#include "check/workloads.hpp"
#include "encode/encoder.hpp"
#include "match/generators.hpp"
#include "mcapi/executor.hpp"
#include "smt/solver.hpp"
#include "trace/trace.hpp"

namespace {

using namespace mcsym;
namespace wl = check::workloads;

trace::Trace record(const mcapi::Program& p, std::uint64_t seed = 1) {
  mcapi::System sys(p);
  trace::Trace tr(p);
  trace::Recorder rec(tr);
  mcapi::RandomScheduler sched(seed);
  (void)mcapi::run(sys, sched, &rec);
  return tr;
}

void print_table() {
  std::printf("== E2: encoding size vs workload (Fig. 2/3 algorithms) ==\n");
  std::printf("%-22s %-8s %-8s %-10s %-12s %-12s %-12s\n", "workload",
              "clocks", "ids", "disjuncts", "uniq(paper)", "uniq(linear)",
              "fifo(linear)");
  for (const auto& [senders, msgs] :
       {std::pair{4u, 1u}, {6u, 1u}, {2u, 2u}, {3u, 2u}, {4u, 2u}, {4u, 4u},
        {6u, 4u}}) {
    const mcapi::Program p = wl::message_race(senders, msgs);
    const trace::Trace tr = record(p);
    const match::MatchSet set = match::generate_overapprox(tr);
    smt::Solver solver;
    encode::Encoder encoder(solver, tr, set);
    const auto enc = encoder.encode();
    // Fig. 3's double loop emits one isDiffSend per receive pair.
    const std::size_t receives = enc.stats.id_vars;
    const std::size_t paper_unique = receives * (receives - 1) / 2;

    char name[40];
    std::snprintf(name, sizeof name, "message_race(%u,%u)", senders, msgs);
    std::printf("%-22s %-8zu %-8zu %-10zu %-12zu %-12zu %-12zu\n", name,
                enc.stats.clock_vars, receives, enc.stats.match_disjuncts,
                paper_unique, enc.stats.unique_constraints,
                enc.stats.fifo_constraints);
  }
  std::printf("paper expectation: uniq(paper) = R(R-1)/2 for R receives "
              "(Fig. 3 double loop); disjuncts per receive grow with its "
              "candidate set (Fig. 2 inner loop). The encoder's AMO ladders "
              "and high-water chains stay linear in the candidates; a "
              "channel's chain subsumes the ladders of its sends, so here "
              "uniq(linear) is nonzero only when each channel carries one "
              "send (msgs = 1).\n\n");
}

void BM_Encode_Pipeline_FifoToggle(benchmark::State& state) {
  const bool fifo = state.range(0) != 0;
  const mcapi::Program p = wl::pipeline(6, 4);
  const trace::Trace tr = record(p);
  const match::MatchSet set = match::generate_overapprox(tr);
  std::size_t constraints = 0;
  for (auto _ : state) {
    smt::Solver solver;
    encode::EncodeOptions opts;
    opts.fifo_non_overtaking = fifo;
    encode::Encoder encoder(solver, tr, set, opts);
    constraints = encoder.encode().stats.fifo_constraints;
  }
  state.counters["fifo_constraints"] = static_cast<double>(constraints);
}
BENCHMARK(BM_Encode_Pipeline_FifoToggle)->Arg(0)->Arg(1);

// Emission shapes (per-send AMO ladders + per-channel high-water chains) on
// chain-heavy races, constraint counts surfaced as counters. The counts are
// deterministic and pinned by the nightly gate (message_race(8,4): 776 FIFO
// constraints and no uniqueness constraints, down from 24,332 combined in
// the pairwise emissions the chains replaced); the wall clock feeds the
// cross-night regression gate.
void BM_Encode_Shapes_Linear(benchmark::State& state) {
  const auto senders = static_cast<std::uint32_t>(state.range(0));
  const auto msgs = static_cast<std::uint32_t>(state.range(1));
  const mcapi::Program p = wl::message_race(senders, msgs);
  const trace::Trace tr = record(p);
  const match::MatchSet set = match::generate_overapprox(tr);
  encode::EncodeStats stats;
  for (auto _ : state) {
    smt::Solver solver;
    encode::Encoder encoder(solver, tr, set);
    stats = encoder.encode().stats;
    benchmark::DoNotOptimize(stats.unique_constraints);
  }
  state.counters["unique_constraints"] =
      static_cast<double>(stats.unique_constraints);
  state.counters["fifo_constraints"] =
      static_cast<double>(stats.fifo_constraints);
}
BENCHMARK(BM_Encode_Shapes_Linear)->Args({4, 3})->Args({6, 4})->Args({8, 4});

// Incremental solver sessions: one SymbolicChecker owns one encoding and
// one solver across check + enumerate + re-check (properties ride as
// assumptions, enumeration blocking clauses are activation-guarded) vs the
// old fresh-session-per-query shape re-encoding every time.
void session_queries(benchmark::State& state, bool incremental) {
  const mcapi::Program p = wl::message_race(3, 2);
  const trace::Trace tr = record(p);
  std::uint64_t solver_calls = 0;
  for (auto _ : state) {
    if (incremental) {
      check::SymbolicChecker checker(tr);
      benchmark::DoNotOptimize(checker.check().result);
      benchmark::DoNotOptimize(checker.enumerate_matchings().matchings.size());
      benchmark::DoNotOptimize(checker.check().result);
      solver_calls = checker.solver_calls();
    } else {
      std::uint64_t calls = 0;
      {
        check::SymbolicChecker checker(tr);
        benchmark::DoNotOptimize(checker.check().result);
        calls += checker.solver_calls();
      }
      {
        check::SymbolicChecker checker(tr);
        benchmark::DoNotOptimize(
            checker.enumerate_matchings().matchings.size());
        calls += checker.solver_calls();
      }
      {
        check::SymbolicChecker checker(tr);
        benchmark::DoNotOptimize(checker.check().result);
        calls += checker.solver_calls();
      }
      solver_calls = calls;
    }
  }
  state.counters["solver_calls"] = static_cast<double>(solver_calls);
}

void BM_Session_Incremental(benchmark::State& state) {
  session_queries(state, true);
}
BENCHMARK(BM_Session_Incremental);

void BM_Session_Fresh(benchmark::State& state) {
  session_queries(state, false);
}
BENCHMARK(BM_Session_Fresh);

void BM_Encode_EndToEnd_WithSolve(benchmark::State& state) {
  const auto senders = static_cast<std::uint32_t>(state.range(0));
  const mcapi::Program p = wl::message_race(senders, 2);
  const trace::Trace tr = record(p);
  const match::MatchSet set = match::generate_overapprox(tr);
  for (auto _ : state) {
    smt::Solver solver;
    encode::EncodeOptions opts;
    opts.property_mode = encode::PropertyMode::kIgnore;
    encode::Encoder encoder(solver, tr, set, opts);
    (void)encoder.encode();
    benchmark::DoNotOptimize(solver.check());
  }
}
BENCHMARK(BM_Encode_EndToEnd_WithSolve)->Arg(2)->Arg(4)->Arg(6);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
