// Master/worker offload with a racy gather — the bread-and-butter MCAPI
// pattern (scatter work to accelerator cores, gather results).
//
// The master's assertion "the first gathered result came from worker 0" is
// a real-world bug shape: it happens to hold on most test runs (workers are
// usually scheduled in order) but is violated whenever a later worker's
// result overtakes in the network. One recorded trace suffices for the
// symbolic engine to expose the race and print the offending schedule.
#include <cstdio>

#include "check/symbolic_checker.hpp"
#include "check/workloads.hpp"
#include "mcapi/executor.hpp"
#include "trace/trace.hpp"

int main() {
  using namespace mcsym;

  constexpr std::uint32_t kWorkers = 3;
  const mcapi::Program program = check::workloads::scatter_gather(kWorkers);

  // Record a run in which the assertion holds (round-robin scheduling makes
  // results arrive in scatter order) — the "it passed my tests" run.
  mcapi::System system(program);
  trace::Trace tr(program);
  trace::Recorder recorder(tr);
  mcapi::RoundRobinScheduler scheduler;
  const mcapi::RunResult run = mcapi::run(system, scheduler, &recorder);
  std::printf("scatter_gather(%u workers): recorded run %s (assertion held)\n",
              kWorkers, run.completed() ? "completed" : "FAILED");

  check::SymbolicChecker checker(tr);
  const check::SymbolicVerdict verdict = checker.check();
  std::printf("symbolic verdict: %s\n",
              verdict.violation_possible()
                  ? "race found — gather order is not scatter order"
                  : "no violation (unexpected)");
  if (verdict.witness) std::printf("%s", verdict.witness->to_string(tr).c_str());

  // The delay-ignorant baseline shrinks the behavior set; depending on the
  // workload it may still find this particular race via thread scheduling,
  // but it provably misses all reorderings that need message delay.
  check::SymbolicOptions delay_opts;
  delay_opts.encode.delay_ignorant = true;
  check::SymbolicChecker baseline(tr, delay_opts);
  const check::SymbolicVerdict base_verdict = baseline.check();
  std::printf("delay-ignorant baseline verdict: %s\n",
              base_verdict.violation_possible() ? "violable" : "holds");
  return verdict.violation_possible() ? 0 : 1;
}
