// Completion polling with mcapi_test: the classic embedded control loop.
//
// A controller posts a non-blocking receive for a sensor reading and polls
// it once (mcapi_test) before falling back to other work; only then does it
// block in wait. Whether the poll sees the reading depends on network
// delay — a pure timing race. This example shows (a) both poll outcomes are
// real, (b) the symbolic engine's matching enumeration *changes with the
// recorded outcome* (the poll pins part of the timeline), and (c) a bug
// that only exists in one polarity is found from whichever trace exhibits
// it and proven absent from the other.
#include <cstdio>

#include "check/explicit_checker.hpp"
#include "check/symbolic_checker.hpp"
#include "check/workloads.hpp"
#include "mcapi/executor.hpp"
#include "trace/trace.hpp"

namespace {

/// Records one run with the given scheduler seed and reports the poll's
/// recorded outcome (1 = completed, 0 = pending, -1 = no poll in trace).
int outcome_of(const mcsym::trace::Trace& tr) {
  for (std::size_t i = 0; i < tr.size(); ++i) {
    const auto& e = tr.event(static_cast<mcsym::trace::EventIndex>(i)).ev;
    if (e.kind == mcsym::mcapi::ExecEvent::Kind::kTest) return e.outcome ? 1 : 0;
  }
  return -1;
}

}  // namespace

int main() {
  using namespace mcsym;

  const mcapi::Program program = check::workloads::poll_window();

  // Hunt two runs with opposite poll outcomes: the race is real.
  std::printf("recording runs of poll_window until both poll outcomes appear\n");
  bool analyzed[2] = {false, false};
  for (std::uint64_t seed = 0; seed < 128; ++seed) {
    mcapi::System system(program);
    trace::Trace tr(program);
    trace::Recorder recorder(tr);
    mcapi::RandomScheduler scheduler(seed);
    if (!mcapi::run(system, scheduler, &recorder).completed()) continue;
    const int outcome = outcome_of(tr);
    if (outcome < 0 || analyzed[outcome]) continue;
    analyzed[outcome] = true;

    std::printf("\nseed %llu: poll observed %s\n",
                static_cast<unsigned long long>(seed),
                outcome == 1 ? "COMPLETED" : "still PENDING");

    // The poll outcome is part of the traced control flow, so the set of
    // concurrent executions the SMT problem models differs per polarity:
    // a completed poll excludes the late (causally post-poll) sender.
    check::SymbolicChecker checker(tr);
    const auto enumeration = checker.enumerate_matchings();
    std::printf("  feasible matchings for this trace: %zu (expected %d)\n",
                enumeration.matchings.size(), outcome == 1 ? 1 : 2);

    // Cross-check against exhaustive explicit-state enumeration.
    check::ExplicitChecker explicit_checker(program);
    const auto truth = explicit_checker.enumerate_against(tr);
    std::printf("  explicit-state ground truth:       %zu (%s)\n",
                truth.matchings.size(),
                truth.matchings == enumeration.matchings ? "agrees" : "MISMATCH");
  }

  if (!analyzed[0] || !analyzed[1]) {
    std::printf("did not observe both poll outcomes\n");
    return 1;
  }
  return 0;
}
