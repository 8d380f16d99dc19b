// E5 — SMT solving cost on the paper's encodings, both polarities, plus a
// cross-solver comparison (our CDCL+IDL engine vs Z3 when built in; the
// paper used Yices, so the comparison shows the encoding is solver-agnostic).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "check/symbolic_checker.hpp"
#include "check/workloads.hpp"
#include "encode/encoder.hpp"
#include "match/generators.hpp"
#include "mcapi/executor.hpp"
#include "smt/solver.hpp"
#include "smt/z3_backend.hpp"
#include "support/stats.hpp"
#include "trace/trace.hpp"

namespace {

using namespace mcsym;
namespace wl = check::workloads;

trace::Trace record_complete(const mcapi::Program& p) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    mcapi::System sys(p);
    trace::Trace tr(p);
    trace::Recorder rec(tr);
    mcapi::RandomScheduler sched(seed);
    if (mcapi::run(sys, sched, &rec).completed()) return tr;
  }
  std::abort();
}

struct Problem {
  const char* name;
  mcapi::Program program;
  std::vector<encode::Property> properties;
};

std::vector<Problem> problems() {
  std::vector<Problem> ps;
  {
    auto [program, properties] = wl::figure1_with_property();
    ps.push_back({"figure1(SAT)", std::move(program), std::move(properties)});
  }
  ps.push_back({"pipeline(UNSAT)", wl::pipeline(5, 3), {}});
  ps.push_back({"scatter_gather(SAT)", wl::scatter_gather(4), {}});
  ps.push_back({"ring(UNSAT)", wl::ring(5), {}});
  return ps;
}

void print_table() {
  std::printf("== E5: solver cost per problem (ours vs Z3) ==\n");
  std::printf("%-22s %-9s %-10s %-12s %-12s %-10s\n", "problem", "verdict",
              "vars", "conflicts", "ours(ms)", "z3(ms)");
  for (const Problem& prob : problems()) {
    const trace::Trace tr = record_complete(prob.program);
    const match::MatchSet set = match::generate_overapprox(tr);

    smt::Solver solver;
    encode::Encoder encoder(solver, tr, set);
    (void)encoder.encode(prob.properties);
    support::Stopwatch t1;
    const smt::SolveResult r = solver.check();
    const double ours_ms = t1.millis();

    double z3_ms = -1;
    if (smt::Z3Backend::available()) {
      support::Stopwatch t2;
      const smt::SolveResult rz = smt::Z3Backend::check(solver.terms(), solver.assertions());
      z3_ms = t2.millis();
      if (rz != r) std::printf("!! solver disagreement on %s\n", prob.name);
    }
    std::printf("%-22s %-9s %-10u %-12llu %-12.3f %-10.3f\n", prob.name,
                r == smt::SolveResult::kSat ? "SAT" : "UNSAT",
                solver.num_sat_vars(),
                static_cast<unsigned long long>(solver.sat_stats().conflicts),
                ours_ms, z3_ms);
  }
  std::printf("paper expectation: SAT = property violable with witness, UNSAT "
              "= verified for this trace; verdicts agree across solvers.\n\n");
}

void BM_Solve_Ours(benchmark::State& state) {
  const auto ps = problems();
  const Problem& prob = ps[static_cast<std::size_t>(state.range(0))];
  const trace::Trace tr = record_complete(prob.program);
  const match::MatchSet set = match::generate_overapprox(tr);
  for (auto _ : state) {
    smt::Solver solver;
    encode::Encoder encoder(solver, tr, set);
    (void)encoder.encode(prob.properties);
    benchmark::DoNotOptimize(solver.check());
  }
  state.SetLabel(prob.name);
}
BENCHMARK(BM_Solve_Ours)->DenseRange(0, 3);

void BM_Solve_Z3(benchmark::State& state) {
  if (!smt::Z3Backend::available()) {
    state.SkipWithError("built without Z3");
    return;
  }
  const auto ps = problems();
  const Problem& prob = ps[static_cast<std::size_t>(state.range(0))];
  const trace::Trace tr = record_complete(prob.program);
  const match::MatchSet set = match::generate_overapprox(tr);
  smt::Solver solver;  // used only to build the term-level problem
  encode::Encoder encoder(solver, tr, set);
  (void)encoder.encode(prob.properties);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        smt::Z3Backend::check(solver.terms(), solver.assertions()));
  }
  state.SetLabel(prob.name);
}
BENCHMARK(BM_Solve_Z3)->DenseRange(0, 3);

void BM_Solve_EnumerationThroughput(benchmark::State& state) {
  // Models per second during all-SAT enumeration.
  const mcapi::Program p = wl::message_race(3, 2);
  const trace::Trace tr = record_complete(p);
  std::size_t matchings = 0;
  for (auto _ : state) {
    check::SymbolicChecker checker(tr);
    matchings = checker.enumerate_matchings().matchings.size();
  }
  state.counters["matchings"] = static_cast<double>(matchings);
  state.counters["models_per_s"] = benchmark::Counter(
      static_cast<double>(matchings), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Solve_EnumerationThroughput);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
