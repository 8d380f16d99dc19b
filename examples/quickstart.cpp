// Quickstart: the paper's Figure 1 example, end to end.
//
// 1. Model the three-thread MCAPI program.
// 2. Execute it once under a seeded random scheduler, recording a trace.
// 3. Generate match pairs and build the SMT problem.
// 4. Ask whether any execution consistent with the trace violates the
//    property "t0 receives Y first" — the answer is yes (Figure 4b), with a
//    witness schedule.
// 5. Enumerate every feasible pairing and compare against the MCC-style and
//    delay-ignorant baselines.
#include <cstdio>

#include "check/symbolic_checker.hpp"
#include "check/verifier.hpp"
#include "check/workloads.hpp"
#include "mcapi/executor.hpp"
#include "trace/trace.hpp"

int main() {
  using namespace mcsym;

  // --- 1. model + 2. record one concrete run -------------------------------
  const auto [program, properties] = check::workloads::figure1_with_property();
  mcapi::System system(program);
  trace::Trace tr(program);
  trace::Recorder recorder(tr);
  mcapi::RandomScheduler scheduler(/*seed=*/42);
  const mcapi::RunResult run = mcapi::run(system, scheduler, &recorder);
  std::printf("concrete run: %s after %zu steps\n",
              run.completed() ? "completed" : "did not complete", run.steps);
  std::printf("trace (%zu events):\n%s\n", tr.size(), tr.to_text().c_str());

  // --- 3 + 4. symbolic check of the property -------------------------------
  check::SymbolicChecker checker(tr);
  std::printf("match pairs (over-approximation):\n%s\n",
              checker.match_set().summary(tr).c_str());
  const check::SymbolicVerdict verdict = checker.check(properties);
  std::printf("property 't0 receives Y first': %s\n",
              verdict.violation_possible() ? "VIOLABLE (bug found)"
                                           : "holds on all executions");
  if (verdict.witness) {
    std::printf("%s\n", verdict.witness->to_string(tr).c_str());
  }

  // --- 5. all pairings, engine by engine (Figure 4) -------------------------
  // Ground truth is the precise abstract execution of the trace; MCC [5]
  // explores the delay-free global-FIFO world; the delay-ignorant baseline
  // [2] is the same symbolic pipeline under the Elwakil–Yang encoding.
  check::Verifier verifier;
  check::EnumerateRequest request;
  request.with_mcc = true;
  request.with_precise = true;
  const check::EnumerateReport paper = verifier.enumerate(program, tr, request);
  check::EnumerateRequest ignorant;
  ignorant.symbolic.encode.delay_ignorant = true;
  const check::EnumerateReport baseline = verifier.enumerate(program, tr, ignorant);

  const auto& truth = paper.precise;
  const auto& mcc = paper.mcc->matchings;
  const auto& delay = baseline.symbolic.matchings;
  const bool exact = paper.symbolic.matchings == truth;
  std::printf("behaviors (distinct matchings) per engine:\n");
  std::printf("  ground truth (DFS, delays): %zu\n", truth.size());
  std::printf("  symbolic (this paper):      %zu  [%s]\n",
              paper.symbolic.matchings.size(), exact ? "exact" : "MISMATCH");
  std::printf("  MCC-style (no delays):      %zu  (misses %zu)\n", mcc.size(),
              truth.size() - mcc.size());
  std::printf("  delay-ignorant SMT [2]:     %zu  (misses %zu)\n", delay.size(),
              truth.size() - delay.size());
  for (const auto& m : truth) {
    std::printf("    %s%s%s\n", match::matching_to_string(tr, m).c_str(),
                mcc.contains(m) ? "" : "   <- unseen by MCC",
                delay.contains(m) ? "" : "   <- unseen by [2]");
  }
  return exact ? 0 : 1;
}
