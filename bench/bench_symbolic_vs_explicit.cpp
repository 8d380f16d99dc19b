// E3 — symbolic vs explicit-state verification cost.
//
// The paper's motivation cites Fusion's SMT-based pruning beating Inspect's
// DPOR-style explicit enumeration. Here: deciding "can the assertion fail?"
// via one SMT query vs exhaustively exploring the interleaving space. The
// expected shape is the paper's: explicit blows up combinatorially with the
// number of racing messages, the symbolic query does not.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "check/dpor.hpp"
#include "check/explicit_checker.hpp"
#include "check/symbolic_checker.hpp"
#include "check/verifier.hpp"
#include "check/workloads.hpp"
#include "mcapi/executor.hpp"
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
  std::fprintf(stderr, "no completing run found\n");
  std::abort();
}

void print_table() {
  std::printf("== E3: one-query symbolic check vs explicit enumeration ==\n");
  std::printf("%-24s %-10s %-13s %-13s %-13s %-10s\n", "workload", "verdict",
              "symbolic(ms)", "explicit(ms)", "dpor(ms)", "states");
  for (std::uint32_t workers = 2; workers <= 4; ++workers) {
    const mcapi::Program p = wl::scatter_gather(workers);
    const trace::Trace tr = record_complete(p);

    support::Stopwatch t1;
    check::SymbolicChecker sym(tr);
    const auto verdict = sym.check();
    const double sym_ms = t1.millis();

    support::Stopwatch t2;
    check::ExplicitChecker exp(p);
    const auto er = exp.run();
    const double exp_ms = t2.millis();

    support::Stopwatch t3;
    check::DporChecker dpor(p);  // optimal source-set/wakeup-tree mode
    const auto dr = dpor.run();
    const double dpor_ms = t3.millis();

    char name[40];
    std::snprintf(name, sizeof name, "scatter_gather(%u)", workers);
    const bool agree = verdict.violation_possible() == er.violation_found &&
                       er.violation_found == dr.violation_found;
    std::printf("%-24s %-10s %-13.2f %-13.2f %-13.2f %-10llu\n", name,
                agree ? (er.violation_found ? "SAT/bug" : "UNSAT/ok")
                      : "DISAGREE!",
                sym_ms, exp_ms, dpor_ms,
                static_cast<unsigned long long>(er.states_expanded));
  }
  std::printf("paper expectation: agreement on the verdict; explicit state "
              "count (and time) grows combinatorially while the SMT query "
              "does not. DPOR here is the optimal source-set/wakeup-tree "
              "mode (one execution per Mazurkiewicz trace).\n\n");
}

// The two DPOR strengths head to head on the racing-senders family: the
// sleep-set baseline explores (and abandons, sleep-blocked) combinatorially
// many redundant paths; optimal mode explores exactly one execution per
// trace with zero redundancy.
void print_dpor_table() {
  std::printf("== DPOR: sleep-set baseline vs optimal (message_race) ==\n");
  std::printf("%-20s %-10s %-12s %-12s %-12s %-12s %-10s\n", "workload", "mode",
              "executions", "transitions", "redundant", "races", "time(ms)");
  for (std::uint32_t senders = 2; senders <= 3; ++senders) {
    const mcapi::Program p = wl::message_race(senders, 2);
    char name[40];
    std::snprintf(name, sizeof name, "message_race(%u,2)", senders);
    for (const auto mode : {check::DporMode::kSleepSet, check::DporMode::kOptimal}) {
      check::DporOptions opts;
      opts.algorithm = mode;
      support::Stopwatch timer;
      check::DporChecker checker(p, opts);
      const auto r = checker.run();
      const double ms = timer.millis();
      std::printf(
          "%-20s %-10s %-12llu %-12llu %-12llu %-12llu %-10.2f\n", name,
          mode == check::DporMode::kOptimal ? "optimal" : "sleep-set",
          static_cast<unsigned long long>(r.stats.executions),
          static_cast<unsigned long long>(r.stats.transitions),
          static_cast<unsigned long long>(r.stats.redundant_explorations),
          static_cast<unsigned long long>(r.stats.races_detected), ms);
    }
  }
  std::printf("optimal mode must report redundant == 0; the executions gap "
              "is the cost of sleep-set-blocked paths.\n\n");
}

void BM_Symbolic_ScatterGather(benchmark::State& state) {
  const auto workers = static_cast<std::uint32_t>(state.range(0));
  const mcapi::Program p = wl::scatter_gather(workers);
  const trace::Trace tr = record_complete(p);
  for (auto _ : state) {
    check::SymbolicChecker checker(tr);
    benchmark::DoNotOptimize(checker.check().result);
  }
}
BENCHMARK(BM_Symbolic_ScatterGather)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

void BM_Explicit_ScatterGather(benchmark::State& state) {
  const auto workers = static_cast<std::uint32_t>(state.range(0));
  const mcapi::Program p = wl::scatter_gather(workers);
  std::uint64_t states = 0;
  for (auto _ : state) {
    check::ExplicitChecker checker(p);
    const auto r = checker.run();
    states = r.states_expanded;
    benchmark::DoNotOptimize(r.violation_found);
  }
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(BM_Explicit_ScatterGather)->Arg(2)->Arg(3)->Arg(4);

void BM_Symbolic_MessageRaceUnsat(benchmark::State& state) {
  // No property: enumeration-free single check on a clean workload would be
  // trivially SAT; instead verify the deterministic pipeline (UNSAT case).
  const auto stages = static_cast<std::uint32_t>(state.range(0));
  const mcapi::Program p = wl::pipeline(stages, 3);
  const trace::Trace tr = record_complete(p);
  for (auto _ : state) {
    check::SymbolicChecker checker(tr);
    benchmark::DoNotOptimize(checker.check().result);
  }
}
BENCHMARK(BM_Symbolic_MessageRaceUnsat)->Arg(3)->Arg(5)->Arg(7);

void BM_Explicit_PipelineUnsat(benchmark::State& state) {
  const auto stages = static_cast<std::uint32_t>(state.range(0));
  const mcapi::Program p = wl::pipeline(stages, 3);
  for (auto _ : state) {
    check::ExplicitChecker checker(p);
    benchmark::DoNotOptimize(checker.run().violation_found);
  }
}
BENCHMARK(BM_Explicit_PipelineUnsat)->Arg(3)->Arg(5);

void BM_Dpor_ScatterGather(benchmark::State& state) {
  const auto workers = static_cast<std::uint32_t>(state.range(0));
  const mcapi::Program p = wl::scatter_gather(workers);
  std::uint64_t transitions = 0;
  for (auto _ : state) {
    check::DporChecker checker(p);
    const auto r = checker.run();
    transitions = r.stats.transitions;
    benchmark::DoNotOptimize(r.violation_found);
  }
  state.counters["transitions"] = static_cast<double>(transitions);
}
BENCHMARK(BM_Dpor_ScatterGather)->Arg(2)->Arg(3)->Arg(4);

// One optimal or sleep-set DPOR run per iteration, with its counters.
void run_dpor(benchmark::State& state, const mcapi::Program& p,
              const check::DporOptions& opts) {
  check::DporStats stats;
  bool truncated = false;
  for (auto _ : state) {
    check::DporChecker checker(p, opts);
    const auto r = checker.run();
    stats = r.stats;
    truncated = r.truncated;
    benchmark::DoNotOptimize(r.stats.terminal_states);
  }
  state.counters["executions"] = static_cast<double>(stats.executions);
  state.counters["transitions"] = static_cast<double>(stats.transitions);
  state.counters["redundant"] = static_cast<double>(stats.redundant_explorations);
  state.counters["truncated"] = truncated ? 1 : 0;
  if (opts.algorithm == check::DporMode::kSleepSet) {
    state.counters["sleep_prunes"] = static_cast<double>(stats.sleep_prunes);
  } else {
    state.counters["races"] = static_cast<double>(stats.races_detected);
    state.counters["wakeup_nodes"] = static_cast<double>(stats.wakeup_nodes);
  }
}

// Both reduction modes over the racing-senders family; the *_SleepSet
// series is the old BM_Dpor_MessageRace baseline, the *_Optimal series is
// the source-set/wakeup-tree mode. Acceptance gates: optimal /3
// wall clock strictly below sleep-set /3, and /4 completing 2520
// executions (the exact trace count, 8!/(2!)^4) with redundant == 0 while
// the sleep-set baseline burns ~10^5 executions getting there — the
// checkpoint/undo execution core is what makes the asymptotic gap show up
// in wall clock. The sleep-set /4 instance runs under a wall-clock budget
// (DporOptions::max_seconds) so a regression degrades into a truncated
// data point instead of hanging the bench.
void dpor_message_race(benchmark::State& state, check::DporMode mode) {
  const auto senders = static_cast<std::uint32_t>(state.range(0));
  check::DporOptions opts;
  opts.algorithm = mode;
  if (mode == check::DporMode::kSleepSet && senders >= 4) {
    opts.max_seconds = 10.0;  // time budget: truncate, don't hang
  }
  run_dpor(state, wl::message_race(senders, 2), opts);
}

void BM_Dpor_MessageRace(benchmark::State& state) {
  dpor_message_race(state, check::DporMode::kOptimal);
}
BENCHMARK(BM_Dpor_MessageRace)->Arg(2)->Arg(3)->Arg(4);

void BM_Dpor_MessageRace_SleepSet(benchmark::State& state) {
  dpor_message_race(state, check::DporMode::kSleepSet);
}
BENCHMARK(BM_Dpor_MessageRace_SleepSet)->Arg(2)->Arg(3)->Arg(4);

// Optimal DPOR on closed-form inputs of the perfbench DPOR workloads:
// relay_race(3) holds the dpor_exhaustive median, and token_fanout(6), one
// path that fans out into 6! payload orderings, runs in dpor_parallel.
void BM_Dpor_RelayRace(benchmark::State& state) {
  run_dpor(state, wl::relay_race(static_cast<std::uint32_t>(state.range(0))),
           check::DporOptions{});
}
BENCHMARK(BM_Dpor_RelayRace)->Arg(2)->Arg(3);

void BM_Dpor_TokenFanout(benchmark::State& state) {
  run_dpor(state, wl::token_fanout(static_cast<std::uint32_t>(state.range(0))),
           check::DporOptions{});
}
BENCHMARK(BM_Dpor_TokenFanout)->Arg(6);

// The sharded symbolic stage on its worker axis: one Verifier symbolic run
// (record + encode + solve + witness replay per trace) with the per-trace
// pipeline distributed across N workers claiming trace indices from a
// queue. Real time is the honest metric — cpu_time sums the fleet. The
// verdict and every counter are byte-identical across the axis (pinned by
// verifier_test); this series tracks whether the sharding actually buys
// wall clock on a multi-trace request.
void BM_Symbolic_Sharded(benchmark::State& state) {
  const auto workers = static_cast<std::uint32_t>(state.range(0));
  const mcapi::Program p = wl::message_race(4, 2);
  check::VerifyRequest req;
  req.engine = check::Engine::kSymbolic;
  req.traces = 16;
  req.workers = workers;
  check::Verdict verdict = check::Verdict::kUnknown;
  for (auto _ : state) {
    check::Verifier verifier;
    const check::VerifyReport report = verifier.verify(p, req);
    verdict = report.verdict;
    benchmark::DoNotOptimize(&report);
  }
  state.counters["safe"] = verdict == check::Verdict::kSafe ? 1 : 0;
}
BENCHMARK(BM_Symbolic_Sharded)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// One symbolic request as a client sends it (4 traces: record + encode +
// solve + witness replay each) on the perfbench symbolic_traces hot inputs:
// /0 relay_race(2), /1 message_race(3,2). All four traces are feasibility
// queries the recorded run answers, so the warm-started search spends no
// conflicts; the `conflicts` counter (summed over the traces) turning
// non-zero means the warm start was lost.
void BM_Symbolic_Request(benchmark::State& state) {
  const mcapi::Program p =
      state.range(0) == 0 ? wl::relay_race(2) : wl::message_race(3, 2);
  state.SetLabel(state.range(0) == 0 ? "relay_race(2)" : "message_race(3,2)");
  check::VerifyRequest req;
  req.engine = check::Engine::kSymbolic;
  req.traces = 4;
  std::uint64_t conflicts = 0;
  for (auto _ : state) {
    check::Verifier verifier;
    const check::VerifyReport report = verifier.verify(p, req);
    for (const auto& [name, value] : report.engines.front().counters) {
      if (name == "conflicts") conflicts = value;
    }
    benchmark::DoNotOptimize(&report);
  }
  state.counters["conflicts"] = static_cast<double>(conflicts);
}
BENCHMARK(BM_Symbolic_Request)->Arg(0)->Arg(1);

// The state-fork micro-bench behind the whole refactor: forking the
// execution state mid-exploration by copy-the-world (what every frame of
// the old checkers paid, per branch and per race simulation) vs by
// checkpoint -> apply -> rollback on a journaling System. Measured on a
// mid-execution message_race(3,2) state with populated transit/endpoint
// queues — the shape the DPOR stack actually forks.
mcapi::System mid_race_state(const mcapi::Program& p) {
  mcapi::System sys(p);
  std::vector<mcapi::Action> enabled;
  for (int step = 0; step < 9; ++step) {  // half of the 18-action execution
    sys.enabled(enabled);
    if (enabled.empty()) break;
    sys.apply(enabled.front());
  }
  return sys;
}

void BM_Dpor_StateFork_Copy(benchmark::State& state) {
  const mcapi::Program p = wl::message_race(3, 2);
  const mcapi::System mid = mid_race_state(p);
  std::vector<mcapi::Action> enabled;
  mid.enabled(enabled);
  const mcapi::Action a = enabled.front();
  for (auto _ : state) {
    mcapi::System fork = mid;  // copy-the-world
    fork.apply(a);
    benchmark::DoNotOptimize(&fork);
  }
}
BENCHMARK(BM_Dpor_StateFork_Copy);

void BM_Dpor_StateFork_Undo(benchmark::State& state) {
  const mcapi::Program p = wl::message_race(3, 2);
  mcapi::System sys = mid_race_state(p);
  sys.enable_undo_log();
  std::vector<mcapi::Action> enabled;
  sys.enabled(enabled);
  const mcapi::Action a = enabled.front();
  for (auto _ : state) {
    const mcapi::System::Checkpoint here = sys.checkpoint();
    sys.apply(a);
    sys.rollback(here);
    benchmark::DoNotOptimize(&sys);
  }
}
BENCHMARK(BM_Dpor_StateFork_Undo);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  print_dpor_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
