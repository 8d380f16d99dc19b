// E7 — mcapi_test completion polls (extension beyond the 2-page paper).
//
// MCAPI programs poll requests with mcapi_test; the observed outcome is
// traced control flow, so the encoding pins it against the receive's bind
// time. Two questions quantified here:
//
//  1. Cost: how much do the extra bind variables and pinning constraints add
//     to encoding size and solve time as the racing-sender count grows?
//  2. Effect: a completed poll cuts down the feasible matchings (it excludes
//     causally-later sends), so the two polarities of the SAME program give
//     different behavior counts — the table shows both, cross-checked
//     against exhaustive explicit-state enumeration.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <optional>

#include "check/explicit_checker.hpp"
#include "check/symbolic_checker.hpp"
#include "check/workloads.hpp"
#include "mcapi/executor.hpp"
#include "trace/trace.hpp"

namespace {

using namespace mcsym;
namespace wl = check::workloads;

trace::Trace record(const mcapi::Program& p, std::uint64_t seed) {
  mcapi::System sys(p);
  trace::Trace tr(p);
  trace::Recorder rec(tr);
  mcapi::RandomScheduler sched(seed);
  (void)mcapi::run(sys, sched, &rec);
  return tr;
}

int poll_outcome(const trace::Trace& tr) {
  for (std::size_t i = 0; i < tr.size(); ++i) {
    const auto& e = tr.event(static_cast<trace::EventIndex>(i)).ev;
    if (e.kind == mcapi::ExecEvent::Kind::kTest) return e.outcome ? 1 : 0;
  }
  return -1;
}

/// First recorded trace of the program whose single poll saw `want`.
std::optional<trace::Trace> trace_with_outcome(const mcapi::Program& p, int want) {
  for (std::uint64_t seed = 0; seed < 256; ++seed) {
    trace::Trace tr = record(p, seed);
    if (poll_outcome(tr) == want) return tr;
  }
  return std::nullopt;
}

void print_table() {
  std::printf("== E7: poll (mcapi_test) outcome pinning ==\n");
  std::printf("%-20s %-9s %-11s %-11s %-12s %-12s\n", "workload", "poll",
              "matchings", "explicit", "test-pins", "solve(ms)");
  auto row = [&](const char* name, const mcapi::Program& p, int outcome) {
    const auto tr = trace_with_outcome(p, outcome);
    if (!tr) {
      std::printf("%-20s %-9d (no trace with this polarity found)\n", name,
                  outcome);
      return;
    }
    check::SymbolicChecker checker(*tr);
    const auto e = checker.enumerate_matchings();
    const auto verdict = checker.check();

    check::ExplicitChecker explicit_checker(p);
    const auto truth = explicit_checker.enumerate_against(*tr);

    char truthbuf[24];
    std::snprintf(truthbuf, sizeof truthbuf, "%zu%s", truth.matchings.size(),
                  truth.matchings == e.matchings ? " ok" : " MISMATCH");
    std::printf("%-20s %-9s %-11zu %-11s %-12zu %-12.3f\n", name,
                outcome == 1 ? "done" : "pending", e.matchings.size(), truthbuf,
                verdict.encode_stats.test_constraints, e.seconds * 1e3);
  };

  row("poll_window", wl::poll_window(), 1);
  row("poll_window", wl::poll_window(), 0);
  for (const std::uint32_t n : {2u, 3u, 4u}) {
    char name[32];
    std::snprintf(name, sizeof name, "polling_race(%u)", n);
    row(name, wl::polling_race(n), 1);
    row(name, wl::polling_race(n), 0);
  }
  std::printf("expectation: a completed poll excludes causally-later sends "
              "(poll_window: 1 vs 2 matchings); the pinning adds one "
              "constraint per poll and negligible solve time.\n\n");
}

void BM_Poll_Enumerate(benchmark::State& state) {
  const auto senders = static_cast<std::uint32_t>(state.range(0));
  const mcapi::Program p = wl::polling_race(senders);
  const auto tr = trace_with_outcome(p, static_cast<int>(state.range(1)));
  if (!tr) {
    state.SkipWithError("no trace with requested poll polarity");
    return;
  }
  std::size_t matchings = 0;
  for (auto _ : state) {
    check::SymbolicChecker checker(*tr);
    matchings = checker.enumerate_matchings().matchings.size();
    benchmark::DoNotOptimize(matchings);
  }
  state.counters["matchings"] = static_cast<double>(matchings);
}
BENCHMARK(BM_Poll_Enumerate)
    ->Args({2, 0})->Args({2, 1})->Args({3, 0})->Args({3, 1})->Args({4, 0})->Args({4, 1});

void BM_Poll_EncodeOverhead(benchmark::State& state) {
  // Same shape without the poll: nonblocking_gather is the closest
  // poll-free workload; compare its per-check cost against polling_race.
  const auto senders = static_cast<std::uint32_t>(state.range(0));
  const bool with_poll = state.range(1) != 0;
  const mcapi::Program p =
      with_poll ? wl::polling_race(senders)
                : wl::nonblocking_gather(senders);
  const trace::Trace tr = record(p, 11);
  for (auto _ : state) {
    check::SymbolicChecker checker(tr);
    benchmark::DoNotOptimize(checker.check().result);
  }
}
BENCHMARK(BM_Poll_EncodeOverhead)
    ->Args({2, 0})->Args({2, 1})->Args({3, 0})->Args({3, 1})->Args({4, 0})->Args({4, 1});

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
