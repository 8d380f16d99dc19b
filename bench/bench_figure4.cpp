// E1 — Figure 1 / Figure 4 reproduction.
//
// Paper artifact: the running example admits the two pairings of Figure 4;
// MCC [5] and the Elwakil–Yang encoding [2] only ever see 4a. This bench
// prints the behavior table for figure1 and its K-tiled generalization
// (relay_race), then times each engine on the Figure 1 instance.
//
// Expected shape (paper): ground truth = symbolic = 2 for Figure 1, both
// baselines = 1; the gap widens as (2K)! vs (2K)!/2^K for relay_race(K).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "check/explicit_checker.hpp"
#include "check/symbolic_checker.hpp"
#include "check/verifier.hpp"
#include "check/workloads.hpp"
#include "mcapi/executor.hpp"
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

/// One row of the Figure-4 table: ground truth (precise abstract
/// execution), symbolic and MCC from one enumerate, the delay-ignorant
/// encoding from a second.
void print_row(const char* name, const mcapi::Program& p, const trace::Trace& tr) {
  check::Verifier verifier;
  check::EnumerateRequest request;
  request.with_mcc = true;
  request.with_precise = true;
  const check::EnumerateReport paper = verifier.enumerate(p, tr, request);
  check::EnumerateRequest ignorant;
  ignorant.symbolic.encode.delay_ignorant = true;
  const check::EnumerateReport baseline = verifier.enumerate(p, tr, ignorant);
  std::printf("%-16s %-14zu %-12zu %-10zu %-16zu\n", name, paper.precise.size(),
              paper.symbolic.matchings.size(), paper.mcc->matchings.size(),
              baseline.symbolic.matchings.size());
}

void print_table() {
  std::printf("== E1: behaviors per engine (paper Figure 4) ==\n");
  std::printf("%-16s %-14s %-12s %-10s %-16s\n", "workload", "ground-truth",
              "symbolic", "MCC[5]", "delay-ignorant[2]");
  {
    const mcapi::Program p = wl::figure1();
    print_row("figure1", p, record(p));
  }
  for (std::uint32_t k = 1; k <= 2; ++k) {
    const mcapi::Program p = wl::relay_race(k);
    char name[32];
    std::snprintf(name, sizeof name, "relay_race(%u)", k);
    print_row(name, p, record(p, k));
  }
  std::printf("paper expectation: symbolic == ground truth; baselines miss the "
              "Figure-4b-style pairings.\n\n");
}

void BM_Figure1_SymbolicEnumeration(benchmark::State& state) {
  const mcapi::Program p = wl::figure1();
  const trace::Trace tr = record(p);
  std::size_t n = 0;
  for (auto _ : state) {
    check::SymbolicChecker checker(tr);
    n = checker.enumerate_matchings().matchings.size();
    benchmark::DoNotOptimize(n);
  }
  state.counters["matchings"] = static_cast<double>(n);
}
BENCHMARK(BM_Figure1_SymbolicEnumeration);

void BM_Figure1_GroundTruthDfs(benchmark::State& state) {
  const mcapi::Program p = wl::figure1();
  const trace::Trace tr = record(p);
  for (auto _ : state) {
    const auto res = match::enumerate_feasible(tr);
    benchmark::DoNotOptimize(res.matchings.size());
  }
}
BENCHMARK(BM_Figure1_GroundTruthDfs);

void BM_Figure1_MccExplicit(benchmark::State& state) {
  const mcapi::Program p = wl::figure1();
  const trace::Trace tr = record(p);
  check::ExplicitOptions opts;
  opts.mode = mcapi::DeliveryMode::kGlobalFifo;
  for (auto _ : state) {
    check::ExplicitChecker mcc(p, opts);
    benchmark::DoNotOptimize(mcc.enumerate_against(tr).matchings.size());
  }
}
BENCHMARK(BM_Figure1_MccExplicit);

void BM_Figure1_PropertyCheck(benchmark::State& state) {
  const auto [program, properties] = wl::figure1_with_property();
  const trace::Trace tr = record(program, 42);
  for (auto _ : state) {
    check::SymbolicChecker checker(tr);
    benchmark::DoNotOptimize(checker.check(properties).result);
  }
}
BENCHMARK(BM_Figure1_PropertyCheck);

void BM_RelayRace_Symbolic(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const mcapi::Program p = wl::relay_race(k);
  const trace::Trace tr = record(p, k);
  std::size_t n = 0;
  for (auto _ : state) {
    check::SymbolicChecker checker(tr);
    n = checker.enumerate_matchings().matchings.size();
  }
  state.counters["matchings"] = static_cast<double>(n);
}
BENCHMARK(BM_RelayRace_Symbolic)->Arg(1)->Arg(2);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
