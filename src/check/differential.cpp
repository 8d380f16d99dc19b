#include "check/differential.hpp"

#include <sstream>

#include "check/random_program.hpp"
#include "check/verifier.hpp"
#include "support/rng.hpp"

namespace mcsym::check {
namespace {

void mismatch(DifferentialReport& report, std::uint64_t seed, std::string detail) {
  report.mismatches.push_back({seed, std::move(detail)});
}

RandomProgramOptions shape_for(support::Rng& rng, bool allow_deadlocks) {
  RandomProgramOptions popts;
  popts.threads = 2 + static_cast<std::uint32_t>(rng.below(3));  // 2..4
  popts.max_sends_per_thread = 1 + static_cast<std::uint32_t>(rng.below(3));
  // Four wide threads at three sends each explodes every explicit-state
  // budget just to be skipped; trim the corner, keep the diversity.
  if (popts.threads == 4) popts.max_sends_per_thread = std::min(popts.max_sends_per_thread, 2u);
  popts.allow_nonblocking = rng.chance(1, 2);
  popts.allow_test_poll = popts.allow_nonblocking && rng.chance(1, 2);
  popts.allow_wait_any = popts.allow_nonblocking && rng.chance(1, 2);
  popts.add_asserts = rng.chance(1, 2);
  // Most deadlock-battery programs carry a deadlock mutation; the rest stay
  // clean so the battery still exercises the "no deadlock" verdict.
  popts.allow_deadlocks = allow_deadlocks && rng.chance(3, 4);
  return popts;
}

}  // namespace

std::string DifferentialReport::summary() const {
  std::ostringstream os;
  os << "differential: " << programs << " programs, " << traces << " traces ("
     << sat_verdicts << " SAT / " << unsat_verdicts << " UNSAT), "
     << witnesses_replayed << " witnesses replayed, " << enumerations_checked
     << " enumerations cross-checked, " << skipped_truncated
     << " skipped on budget, " << dpor_skipped << " DPOR-skipped, "
     << deadlock_programs << " deadlock programs ("
     << deadlock_schedules_replayed << " schedules replayed, "
     << deadlocked_runs << " deadlocked runs), " << optimal_redundant_paths
     << " observer-redundant paths, " << mismatches.size() << " mismatches";
  return os.str();
}

void differential_iteration(std::uint64_t seed, const DifferentialOptions& options,
                            DifferentialReport& report) {
  support::Rng rng(seed ^ 0x5eed5eed5eed5eedULL);
  const RandomProgramOptions popts = shape_for(rng, options.allow_deadlocks);
  const mcapi::Program program = random_program(seed, popts);

  // The cross-checking itself — explicit ground truth, both DPOR modes,
  // symbolic per-trace verdicts, deadlock-schedule and witness replays —
  // is the Verifier facade's portfolio mode; this harness only supplies the
  // generated program, maps budgets, and layers on the generator-invariant
  // checks the facade cannot know about.
  VerifyRequest req;
  req.engine = Engine::kPortfolio;
  req.budget.max_states = options.explicit_max_states;
  req.budget.max_transitions = options.dpor_max_transitions;
  req.budget.max_run_steps = options.run_max_steps;
  req.traces = options.traces_per_program;
  // splitmix-style stream: trace t of this iteration schedules with
  // trace_seed + t, reproducing the historical per-trace seeds.
  req.trace_seed = seed * 0x9e3779b97f4a7c15ULL;
  req.workers = options.workers;

  Verifier verifier;
  const VerifyReport vr = verifier.verify(program, req);

  // A truncated ground truth means nothing was cross-checked (the portfolio
  // reports kBudgetExhausted and stops): a rare blowup program is worth
  // seconds of wall clock at most — count it skipped and move on.
  if (vr.verdict == Verdict::kBudgetExhausted) {
    ++report.skipped_truncated;
    return;
  }
  const PortfolioStats& ps = *vr.portfolio;

  if (ps.deadlock_reachable && !popts.allow_deadlocks) {
    // Such programs are deadlock-free by construction; a deadlock here
    // means the generator (or the semantics) regressed.
    mismatch(report, seed, "explicit checker found a deadlock in a generated "
                           "program (generator invariant broken)");
    return;
  }
  if (ps.deadlocked_runs > 0 && !popts.allow_deadlocks) {
    mismatch(report, seed, "concrete run deadlocked (generator invariant broken)");
  }
  if (ps.deadlock_reachable) ++report.deadlock_programs;

  for (const std::string& detail : vr.disagreements) {
    mismatch(report, seed, detail);
  }

  ++report.programs;
  report.traces += ps.traces_checked;
  report.sat_verdicts += ps.sat_verdicts;
  report.unsat_verdicts += ps.unsat_verdicts;
  report.witnesses_replayed += ps.witnesses_replayed;
  report.skipped_truncated += ps.traces_skipped;
  if (ps.dpor_skipped > 0) ++report.dpor_skipped;
  report.deadlock_schedules_replayed += ps.deadlock_schedules_replayed;
  report.deadlocked_runs += ps.deadlocked_runs;
  report.optimal_redundant_paths += ps.optimal_redundant_paths;

  // Matching-set enumeration: only meaningful when no assertion can end
  // executions early (crossval_test precedent) — and only for complete
  // recorded runs. Reuses the traces the portfolio recorded.
  if (!popts.add_asserts) {
    for (const TraceCheck& tc : vr.trace_checks) {
      if (!tc.checked || tc.recorded != mcapi::RunResult::Outcome::kHalted) {
        continue;
      }
      EnumerateRequest er;
      er.with_explicit = true;
      er.with_precise = true;
      er.explicit_max_states = options.explicit_max_states;
      er.feasible_max_paths = options.feasible_max_paths;
      const EnumerateReport en = verifier.enumerate(program, tc.trace, er);
      if (en.truncated_any()) {
        ++report.skipped_truncated;
      } else {
        for (const std::string& detail : en.disagreements) {
          mismatch(report, seed, detail);
        }
        ++report.enumerations_checked;
      }
    }
  }
}

DifferentialReport run_differential(std::uint64_t base_seed,
                                    const DifferentialOptions& options) {
  DifferentialReport report;
  for (std::uint64_t i = 0; i < options.iterations; ++i) {
    // splitmix-style stream so adjacent iterations are uncorrelated while a
    // mismatch still reports one self-contained seed.
    const std::uint64_t seed = base_seed + i * 0x9e3779b97f4a7c15ULL;
    differential_iteration(seed, options, report);
  }
  return report;
}

}  // namespace mcsym::check
