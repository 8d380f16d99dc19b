// Pairing diagnosis: interrogating *why* a particular message routing is or
// is not possible.
//
// A developer staring at a confusing trace usually has a hypothesis — "the
// first receive must have taken the worker's reply, right?". diagnose_pairing
// answers exactly that: propose any partial assignment of sends to receives
// and get back either a concrete schedule realizing it, or the minimal story
// of which constraint groups (program order, FIFO, uniqueness, the match
// windows) forbid it and which of the proposed pairs clash.
#include <cstdio>

#include "check/diagnose.hpp"
#include "check/workloads.hpp"
#include "mcapi/executor.hpp"
#include "trace/trace.hpp"

namespace {

void report(const char* title, const mcsym::check::Diagnosis& d,
            const mcsym::trace::Trace& tr) {
  std::printf("%s: %s\n", title, d.feasible ? "FEASIBLE" : "infeasible");
  if (d.feasible && d.witness) {
    std::printf("%s", d.witness->to_string(tr).c_str());
    return;
  }
  if (!d.blamed_groups.empty()) {
    std::printf("  violated constraint groups:");
    for (const auto& g : d.blamed_groups) std::printf(" %s", g.c_str());
    std::printf("\n");
  }
  if (!d.blamed_pairs.empty()) {
    std::printf("  %zu of the proposed pairs conflict\n", d.blamed_pairs.size());
  }
}

}  // namespace

int main() {
  using namespace mcsym;
  using check::PairProposal;

  // The paper's Figure 1. Thread t0 receives twice; t1 sends X after its own
  // receive; t2 sends Y to t0 and Z to t1.
  const mcapi::Program program = check::workloads::figure1();
  mcapi::System system(program);
  trace::Trace tr(program);
  trace::Recorder recorder(tr);
  mcapi::RoundRobinScheduler scheduler;
  (void)mcapi::run(system, scheduler, &recorder);

  const trace::EventIndex send_x = tr.find(1, 1);
  const trace::EventIndex send_y = tr.find(2, 0);
  const trace::EventIndex send_z = tr.find(2, 1);
  const trace::EventIndex recv_a = tr.find(0, 0);
  const trace::EventIndex recv_b = tr.find(0, 1);

  // Hypothesis 1: the Figure-4b pairing — X delayed into recv(A).
  report("X -> recv(A), Y -> recv(B)   [Figure 4b]",
         check::diagnose_pairing(tr, {{{recv_a, send_x}, {recv_b, send_y}}}), tr);

  // Hypothesis 2: Z into recv(A). Z targets t1's endpoint, so the match
  // window group refuses outright.
  report("\nZ -> recv(A)                 [wrong endpoint]",
         check::diagnose_pairing(tr, {{{recv_a, send_z}}}), tr);

  // Hypothesis 3: Y for both receives. Uniqueness (paper Fig. 3) refuses.
  report("\nY -> recv(A) and recv(B)     [one message, two receives]",
         check::diagnose_pairing(tr, {{{recv_a, send_y}, {recv_b, send_y}}}), tr);

  // Hypothesis 4: under the delay-ignorant baseline (Elwakil-Yang / MCC
  // world), the Figure-4b pairing is refused — the gap the paper exposes.
  encode::EncodeOptions baseline;
  baseline.delay_ignorant = true;
  report("\nFigure 4b under the delay-ignorant baseline",
         check::diagnose_pairing(tr, {{{recv_a, send_x}, {recv_b, send_y}}},
                                 baseline),
         tr);
  return 0;
}
