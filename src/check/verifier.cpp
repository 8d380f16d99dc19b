#include "check/verifier.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <functional>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "check/json_internal.hpp"
#include "match/generators.hpp"
#include "mcapi/scheduler.hpp"
#include "support/assert.hpp"
#include "support/stats.hpp"
#include "text/program_text.hpp"

namespace mcsym::check {
namespace {

/// Delivery-bias cycle for multi-trace requests: trace i records under
/// RandomScheduler(trace_seed + i, kBiases[i % 3]), sampling delayed,
/// eager, and neutral network behavior (the differential harness's cycle).
constexpr double kBiases[] = {1.0, 0.5, 2.0};

/// An exhaustive search's verdict: the worst class it found.
[[nodiscard]] Verdict verdict_of(const SearchResult& r) {
  if (r.violation_found) return Verdict::kViolation;
  if (r.deadlock_found) return Verdict::kDeadlock;
  if (r.non_termination_found) return Verdict::kNonTermination;
  if (r.truncated) return Verdict::kBudgetExhausted;
  return Verdict::kSafe;
}

/// Only test polls and wait_any scans *observe* pending requests (an
/// enabled wait is always bound), so only programs containing them can
/// legitimately produce sleep-blocked paths under optimal DPOR.
[[nodiscard]] bool has_observer_ops(const mcapi::Program& program) {
  for (mcapi::ThreadRef t = 0; t < program.num_threads(); ++t) {
    for (const mcapi::Instr& i : program.thread(t).code) {
      if (i.kind == mcapi::OpKind::kTest || i.kind == mcapi::OpKind::kWaitAny) {
        return true;
      }
    }
  }
  return false;
}

/// Shared state of one verify() call: the joint wall clock, the report
/// under construction, and the progress/cancellation plumbing the engines'
/// `interrupted` hooks route through. With request.workers > 1 several
/// engine threads probe fire() and the wall clock concurrently, so
/// cancellation is an atomic latch and the callback itself is serialized;
/// the report is only ever mutated by the thread that owns the current
/// stage (engine rows are pushed in a fixed order after joins, never from
/// inside concurrent engines).
struct Ctx {
  Ctx(const mcapi::Program& p, const VerifyRequest& r)
      : program(p), request(r) {}

  const mcapi::Program& program;
  const VerifyRequest& request;
  support::Stopwatch timer;
  VerifyReport report;
  std::atomic<bool> cancel_requested{false};
  std::mutex progress_mu;  // serializes the callback + the cancelled flag

  /// Fires the progress callback (when set). Returns false — and latches
  /// cancellation — once the callback asks to stop. Thread-safe.
  bool fire(Engine engine, const char* stage) {
    if (cancel_requested.load(std::memory_order_relaxed)) return false;
    if (!request.progress) return true;
    std::lock_guard<std::mutex> g(progress_mu);
    if (cancel_requested.load(std::memory_order_relaxed)) return false;
    if (!request.progress(Progress{engine, stage, timer.seconds()})) {
      cancel_requested.store(true, std::memory_order_relaxed);
      report.cancelled = true;
      return false;
    }
    return true;
  }

  [[nodiscard]] bool wall_exhausted() const {
    return request.budget.max_seconds > 0 &&
           timer.seconds() >= request.budget.max_seconds;
  }

  /// Wall-clock seconds this engine may still spend; 0 = unlimited.
  [[nodiscard]] double engine_seconds() const {
    if (request.budget.max_seconds <= 0) return 0;
    return std::max(request.budget.max_seconds - timer.seconds(), 1e-3);
  }

  void disagree(std::string detail) {
    report.disagreements.push_back(std::move(detail));
  }
};

/// Copies an exhaustive search's witnesses into the report: the violation
/// and its schedule, the deadlock schedule, the lasso.
void adopt_witnesses(VerifyReport& report, const SearchResult& r) {
  if (r.violation_found) {
    report.violation = r.violation;
    if (r.violation.has_value()) report.violations = {*r.violation};
    report.witness_schedule = r.counterexample;
  }
  if (r.deadlock_found) report.deadlock_schedule = r.deadlock_schedule;
  if (r.non_termination_found) {
    report.lasso_stem = r.lasso_stem;
    report.lasso_cycle = r.lasso_cycle;
  }
}

/// Fills the settings every exhaustive engine shares from the request.
void fill_search_options(Ctx& ctx, Engine engine, SearchOptions& o) {
  o.mode = ctx.request.mode;
  o.max_seconds = ctx.engine_seconds();
  o.stateful = ctx.request.stateful;
  o.state_capacity = ctx.request.state_capacity;
  if (ctx.request.progress) {
    o.interrupted = [&ctx, engine] { return !ctx.fire(engine, "explore"); };
  }
}

/// Completes an exhaustive engine's row after its own counters: verdict,
/// truncation, time, and the state-space counters. Those are surfaced only
/// for stateful requests: the stateless JSON report is golden-pinned and
/// carries no state-space telemetry.
void finish_search_row(const Ctx& ctx, Engine engine, const SearchResult& r,
                       const StateSpaceStats& ss, EngineRun& run) {
  run.engine = engine;
  run.truncated = r.truncated;
  run.verdict = verdict_of(r);
  run.seconds = r.seconds;
  if (ctx.request.stateful) {
    run.counters.emplace_back("visited_states", ss.visited_states);
    run.counters.emplace_back("state_hits", ss.state_hits);
    run.counters.emplace_back("states_dropped", ss.states_dropped);
    run.counters.emplace_back("cycles_found", ss.cycles_found);
  }
}

/// Runs the explicit engine and fills `run` without touching ctx.report —
/// safe to call from a portfolio engine thread; the caller pushes the row.
ExplicitResult run_explicit(Ctx& ctx, EngineRun& run) {
  ExplicitOptions eo;
  fill_search_options(ctx, Engine::kExplicit, eo);
  eo.max_states = ctx.request.budget.max_states;
  ExplicitResult result = ExplicitChecker(ctx.program, eo).run();
  run.counters = {{"states_expanded", result.states_expanded},
                  {"transitions", result.transitions},
                  {"terminal_states", result.terminal_states}};
  finish_search_row(ctx, Engine::kExplicit, result, result.state_space, run);
  return result;
}

/// Runs one DPOR engine and fills `run` without touching ctx.report —
/// safe to call from a portfolio engine thread; the caller pushes the row.
DporResult run_dpor(Ctx& ctx, DporMode mode, EngineRun& run) {
  const Engine engine = mode == DporMode::kOptimal ? Engine::kDporOptimal
                                                   : Engine::kDporSleepSet;
  DporOptions dopts;
  fill_search_options(ctx, engine, dopts);
  dopts.algorithm = mode;
  dopts.max_transitions = ctx.request.budget.max_transitions;
  DporResult result = DporChecker(ctx.program, dopts).run();
  run.counters = {{"transitions", result.stats.transitions},
                  {"executions", result.stats.executions},
                  {"terminal_states", result.stats.terminal_states},
                  {"races_detected", result.stats.races_detected},
                  {"wakeup_nodes", result.stats.wakeup_nodes},
                  {"sleep_prunes", result.stats.sleep_prunes},
                  {"redundant_explorations", result.stats.redundant_explorations}};
  finish_search_row(ctx, engine, result, result.stats.state_space, run);
  return result;
}

/// Replays a deadlock schedule against the runtime (an empty schedule means
/// the initial state itself deadlocks); any other outcome is a
/// disagreement tagged `who`. `workspace` is the shared journaling System,
/// rolled back to the initial state here.
void replay_deadlock_schedule(Ctx& ctx, mcapi::System& workspace,
                              const std::vector<mcapi::Action>& schedule,
                              const char* who, PortfolioStats& ps) {
  workspace.rollback(0);
  if (mcapi::replay(workspace, schedule).outcome !=
      mcapi::RunResult::Outcome::kDeadlock) {
    ctx.disagree(std::string(who) +
                 " deadlock schedule did not replay to a deadlock");
  } else {
    ++ps.deadlock_schedules_replayed;
  }
}

/// Cross-checks a finished DPOR run's verdicts against the explicit ground
/// truth (the differential harness's agreement checks, verbatim). Serial:
/// mutates the report and replays on the shared workspace.
void check_dpor_result(Ctx& ctx, DporMode mode, const DporResult& dr,
                       const ExplicitResult& truth, bool observers,
                       mcapi::System& workspace, PortfolioStats& ps) {
  const char* name = mode == DporMode::kOptimal ? "optimal" : "sleep-set";
  if (dr.truncated) {
    ++ps.dpor_skipped;
    return;
  }
  if (dr.violation_found != truth.violation_found) {
    std::ostringstream os;
    os << "DPOR(" << name << ")/explicit verdict split: dpor="
       << dr.violation_found << " explicit=" << truth.violation_found;
    ctx.disagree(os.str());
  }
  // Every engine stops its search at the first violation, so which *other*
  // terminal classes it saw first is exploration-order-dependent: deadlock
  // verdicts are only comparable on violation-free programs.
  if (!truth.violation_found && dr.deadlock_found != truth.deadlock_found) {
    std::ostringstream os;
    os << "DPOR(" << name << ")/explicit deadlock verdict split: dpor="
       << dr.deadlock_found << " explicit=" << truth.deadlock_found;
    ctx.disagree(os.str());
  }
  if (mode == DporMode::kOptimal && dr.stats.redundant_explorations != 0) {
    if (observers) {
      // Observer-style dependence (test / wait_any outcomes): a scheduled
      // revisit can meet a flipped observation and end sleep-blocked.
      // Counted, not a disagreement (see PortfolioStats).
      ps.optimal_redundant_paths += dr.stats.redundant_explorations;
    } else {
      std::ostringstream os;
      os << "optimal DPOR reported " << dr.stats.redundant_explorations
         << " redundant explorations on an observation-free program";
      ctx.disagree(os.str());
    }
  }
  if (dr.deadlock_found) {
    const std::string who = std::string("DPOR(") + name + ")";
    replay_deadlock_schedule(ctx, workspace, dr.deadlock_schedule, who.c_str(),
                             ps);
  }
}

/// One trace's production artifacts — everything the symbolic stage can
/// compute without touching the report: the recorded trace, the solver
/// verdict, the attempted witness replay, and the bits of runtime state the
/// judge needs later (the recording script, concrete-violation details).
/// Workers fill these concurrently (claim-a-trace-index loop); the judge
/// consumes them strictly in trace-index order, so the report and the
/// portfolio counters are the same at every worker count.
struct SymbolicOutcome {
  std::optional<TraceCheck> tc;        // nullopt: truncated before recording
  std::vector<mcapi::Action> script;   // the recording run's schedule
  std::optional<mcapi::Violation> violation;  // concrete-violation runs only:
  std::vector<mcapi::Violation> violations;   // captured before rollback
  std::optional<std::string> validate_error;
  bool truncated_at_solve = false;     // cancelled between record and solve
  std::uint64_t solver_calls = 0;
};

/// Records, checks and (on SAT) replays trace `t` into `out`, using one
/// worker's journaling `workspace`. Every step is deterministic given the
/// trace index — the scheduler is seeded per index, the solver session is
/// self-contained — so sharded production is indistinguishable from serial.
void produce_symbolic_trace(Ctx& ctx, std::uint32_t t,
                            mcapi::System& workspace, SymbolicOutcome& out) {
  const VerifyRequest& req = ctx.request;
  if (ctx.wall_exhausted() ||
      ctx.cancel_requested.load(std::memory_order_relaxed) ||
      !ctx.fire(Engine::kSymbolic, "record-trace")) {
    return;  // tc stays empty: the judge truncates at this index
  }
  workspace.rollback(0);
  trace::Trace tr(ctx.program);
  trace::Recorder rec(tr);
  mcapi::RunResult rr;
  if (req.round_robin) {
    mcapi::RoundRobinScheduler sched;
    rr = mcapi::run(workspace, sched, &rec, req.budget.max_run_steps,
                    &out.script);
  } else {
    mcapi::RandomScheduler sched(req.trace_seed + t, kBiases[t % 3]);
    rr = mcapi::run(workspace, sched, &rec, req.budget.max_run_steps,
                    &out.script);
  }
  out.tc.emplace(
      TraceCheck{std::move(tr), rr.outcome, false, false, {}, std::nullopt});
  TraceCheck& tc = *out.tc;

  if (rr.outcome == mcapi::RunResult::Outcome::kStepLimit ||
      rr.outcome == mcapi::RunResult::Outcome::kDeadlock) {
    return;  // judged from the outcome alone
  }
  if (rr.outcome == mcapi::RunResult::Outcome::kViolation) {
    // Captured now: this worker's workspace is rolled back for its next
    // claim long before the judge runs.
    out.violation = workspace.violation();
    out.violations = workspace.violations();
  }
  if (const auto err = tc.trace.validate()) {
    out.validate_error = *err;
    return;
  }
  for (trace::EventIndex i = 0; i < tc.trace.size(); ++i) {
    if (tc.trace.event(i).ev.kind == mcapi::ExecEvent::Kind::kAssert) {
      tc.has_asserts = true;
      break;
    }
  }
  if (!ctx.fire(Engine::kSymbolic, "solve")) {
    out.truncated_at_solve = true;
    return;
  }
  SymbolicChecker checker(tc.trace, req.symbolic);
  tc.verdict = checker.check(req.properties);
  tc.checked = true;
  out.solver_calls = checker.solver_calls();
  if (req.replay_witnesses && tc.verdict.result == smt::SolveResult::kSat &&
      tc.verdict.witness.has_value()) {
    // Continue-past-violation replay: realize the *whole* execution the
    // model values, every fired assert included, and hold the matching to
    // exact equality.
    ReplayOptions ro;
    ro.continue_past_violation = true;
    tc.replay =
        schedule_from_witness(workspace, tc.trace, *tc.verdict.witness, ro);
  }
}

struct SymbolicProduction {
  // One slot per claimed trace index. A deque, so a claim appends without
  // moving the slots other workers are filling.
  std::deque<SymbolicOutcome> outcomes;
  double seconds = 0;  // wall clock of the production phase
};

/// The production half of the symbolic engine: record + check + replay for
/// every requested trace. Workers claim trace indices in order, each with
/// its own journaling System; request.workers > 1 runs that many on their
/// own threads, one worker runs on the calling thread. The outcome table
/// grows by claim, never to the requested count up front, so a huge
/// `traces` runs until its budget like any long request.
SymbolicProduction produce_symbolic(Ctx& ctx) {
  const support::Stopwatch timer;
  const VerifyRequest& req = ctx.request;
  SymbolicProduction prod;

  // Once one index is refused (wall budget or cancellation, both
  // latching), every later claim would be refused too, so its worker
  // stops; the judge stops at the first refused index.
  std::mutex claim_mu;
  auto worker = [&ctx, &req, &prod, &claim_mu] {
    mcapi::System workspace(ctx.program, req.mode);
    workspace.enable_undo_log();
    for (;;) {
      SymbolicOutcome* out = nullptr;
      std::uint32_t t = 0;
      {
        std::lock_guard<std::mutex> g(claim_mu);
        if (prod.outcomes.size() >= req.traces) return;
        t = static_cast<std::uint32_t>(prod.outcomes.size());
        out = &prod.outcomes.emplace_back();
      }
      produce_symbolic_trace(ctx, t, workspace, *out);
      if (!out->tc) return;
    }
  };
  const std::uint32_t workers =
      std::min(std::max(req.workers, 1u), std::max(req.traces, 1u));
  if (workers == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::uint32_t w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (std::thread& th : pool) th.join();
  }
  prod.seconds = timer.seconds();
  return prod;
}

/// The judging half of the symbolic engine: walks the production outcomes
/// strictly in trace-index order and performs every report mutation of the
/// symbolic stage — truth cross-checks (portfolio mode), disagreements,
/// witness preference, portfolio counters, and the engine row. Standalone
/// (`truth` == nullptr) the verdicts become the engine's own answer
/// (per-trace scope: kSafe means "no execution consistent with the recorded
/// traces violates"). Serial by construction, so the report is identical at
/// every worker count.
void judge_symbolic(Ctx& ctx, SymbolicProduction prod,
                    const ExplicitResult* truth, PortfolioStats& ps) {
  const support::Stopwatch judge_timer;
  const VerifyRequest& req = ctx.request;
  VerifyReport& report = ctx.report;
  // --assert-props mode flips SAT's meaning (a fully *correct* execution
  // exists), so the facade's violation vocabulary does not apply; raw
  // results stay available in trace_checks.
  const bool assert_props =
      req.symbolic.encode.property_mode == encode::PropertyMode::kAssert;

  bool violation = false;
  bool deadlock = false;
  bool exhausted = false;
  bool truncated = false;
  std::uint64_t sat = 0;
  std::uint64_t unsat = 0;
  std::uint64_t unknown = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t replayed_count = 0;
  std::uint64_t skipped = 0;
  std::uint64_t checked = 0;
  std::uint64_t solver_calls = 0;
  std::uint64_t match_disjuncts = 0;
  std::uint64_t unique_constraints = 0;
  std::uint64_t fifo_constraints = 0;
  double encode_seconds = 0;
  double solve_seconds = 0;
  std::uint32_t recorded = 0;
  // Witness info captured from a terminal-mode concrete run is a stopgap: a
  // later continue-past-violation replay of a SAT witness sees the *whole*
  // execution (all its violations) and upgrades it.
  bool witness_is_concrete = false;

  for (SymbolicOutcome& out : prod.outcomes) {
    if (!out.tc.has_value()) {
      // Prefix semantics: the first index refused at record time truncates
      // the stage; any out-of-order production past it is discarded.
      truncated = true;
      break;
    }
    ++recorded;
    TraceCheck& tc = *out.tc;

    if (tc.recorded == mcapi::RunResult::Outcome::kStepLimit) {
      ++skipped;
      ++ps.traces_skipped;
      report.trace_checks.push_back(std::move(tc));
      continue;
    }
    if (tc.recorded == mcapi::RunResult::Outcome::kDeadlock) {
      if (truth != nullptr) {
        if (!truth->deadlock_found && !truth->violation_found) {
          // A concrete deadlock is a one-schedule witness the exhaustive
          // search must have covered — unless that search stopped early at
          // a violation, which makes its deadlock flag exploration noise.
          ctx.disagree(
              "concrete run deadlocked but the explicit checker reports the "
              "program deadlock-free");
        } else {
          ++ps.deadlocked_runs;
        }
      } else {
        deadlock = true;
        ++ps.deadlocked_runs;
        if (report.deadlock_schedule.empty()) {
          report.deadlock_schedule = std::move(out.script);
        }
      }
      // A deadlocked run's trace is a prefix artifact, not a checkable one.
      report.trace_checks.push_back(std::move(tc));
      continue;
    }

    const bool concrete_violation =
        tc.recorded == mcapi::RunResult::Outcome::kViolation;
    if (concrete_violation && truth != nullptr && !truth->violation_found) {
      ctx.disagree(
          "concrete run violated an assertion the explicit checker missed");
      report.trace_checks.push_back(std::move(tc));
      continue;
    }
    if (concrete_violation && truth == nullptr && !assert_props) {
      // The recording run itself is a counterexample; the symbolic check
      // still ran so the verdict is cross-validated.
      violation = true;
      if (report.witness_schedule.empty()) {
        report.witness_schedule = std::move(out.script);
        report.violations = std::move(out.violations);
        report.violation = out.violation;
        witness_is_concrete = true;
      }
    }
    if (out.validate_error.has_value()) {
      // A violation can stop the run between a recv_i and its wait, leaving
      // a structurally incomplete trace that is not a checkable artifact.
      if (concrete_violation) {
        ++skipped;
        ++ps.traces_skipped;
      } else {
        ctx.disagree("recorded trace failed validation: " + *out.validate_error);
      }
      report.trace_checks.push_back(std::move(tc));
      continue;
    }
    if (out.truncated_at_solve) {
      truncated = true;
      report.trace_checks.push_back(std::move(tc));
      break;
    }

    // With no assert events and no extra properties the encoder leaves
    // ¬PProp unasserted, so check() degrades to a feasibility query: SAT is
    // the only sound answer and the witness must replay without firing.
    //
    // Extra end-of-run properties are visible only to the symbolic engine
    // (the explicit/DPOR ground truth checks in-program asserts alone), so
    // whenever `props` holds, a SAT cannot be attributed to asserts and the
    // truth cross-checks that assume it must stand down.
    const bool props = !req.properties.empty();
    const bool claims_violation = !assert_props && (tc.has_asserts || props);

    ++checked;
    ++ps.traces_checked;
    conflicts += tc.verdict.sat_conflicts;
    decisions += tc.verdict.sat_decisions;
    solver_calls += out.solver_calls;
    match_disjuncts += tc.verdict.encode_stats.match_disjuncts;
    unique_constraints += tc.verdict.encode_stats.unique_constraints;
    fifo_constraints += tc.verdict.encode_stats.fifo_constraints;
    encode_seconds += tc.verdict.encode_seconds;
    solve_seconds += tc.verdict.solve_seconds;

    switch (tc.verdict.result) {
      case smt::SolveResult::kSat: {
        ++sat;
        ++ps.sat_verdicts;
        if (truth != nullptr && claims_violation && !props &&
            !truth->violation_found) {
          ctx.disagree(
              "symbolic SAT but explicit exhaustive search proves the "
              "program violation-free");
          break;
        }
        if (!tc.verdict.witness.has_value()) {
          ctx.disagree("SAT verdict carried no witness");
          break;
        }
        if (req.replay_witnesses) {
          if (!tc.replay.has_value()) {
            ctx.disagree(
                "SAT witness did not replay: schedule diverged from the "
                "runtime semantics");
          } else if (!props && tc.replay->violation != claims_violation) {
            // With extra properties the model may violate only an
            // end-of-run property, firing no in-program assert, so this
            // equivalence only holds in the assert-only setting.
            ctx.disagree(claims_violation
                             ? "SAT witness replayed but no assertion fired "
                               "during the replayed schedule"
                             : "feasibility witness replayed with a violation "
                               "on an assertion-free trace");
          } else {
            ++replayed_count;
            ++ps.witnesses_replayed;
          }
        }
        if (claims_violation) {
          violation = true;
          // Keep the most informative validated witness: a replay that
          // exhibits more violations than the one reported so far (e.g. a
          // full-trace witness vs. a violation-prefix one) takes over.
          if (tc.replay.has_value() &&
              (report.witness_schedule.empty() || witness_is_concrete ||
               tc.replay->violations.size() > report.violations.size())) {
            report.witness_schedule = tc.replay->script;
            report.violations = tc.replay->violations;
            if (!tc.replay->violations.empty()) {
              report.violation = tc.replay->violations.front();
            }
            witness_is_concrete = false;
          }
        }
        break;
      }
      case smt::SolveResult::kUnsat: {
        ++unsat;
        ++ps.unsat_verdicts;
        if (truth != nullptr) {
          if (!tc.has_asserts && req.properties.empty() && !assert_props) {
            ctx.disagree(
                "symbolic UNSAT on an assertion-free trace: the recorded run "
                "itself is a consistent execution");
          } else if (concrete_violation) {
            ctx.disagree(
                "symbolic UNSAT but the recorded run itself violated an "
                "assertion (the trace is a consistent execution)");
          }
        }
        break;
      }
      case smt::SolveResult::kUnknown: {
        ++unknown;
        if (req.symbolic.conflict_budget == 0) {
          ctx.disagree(
              "symbolic checker returned kUnknown on an unbounded-budget "
              "query");
        } else {
          exhausted = true;  // solver conflict budget spent
        }
        break;
      }
    }
    report.trace_checks.push_back(std::move(tc));
  }

  EngineRun run;
  run.engine = Engine::kSymbolic;
  run.truncated = truncated;
  run.verdict = assert_props ? Verdict::kUnknown
                : violation  ? Verdict::kViolation
                : deadlock   ? Verdict::kDeadlock
                : truncated || exhausted || skipped > 0 || checked == 0
                    ? Verdict::kBudgetExhausted
                    : Verdict::kSafe;
  run.seconds = prod.seconds + judge_timer.seconds();
  run.counters = {{"traces_recorded", recorded},
                  {"traces_checked", checked},
                  {"traces_skipped", skipped},
                  {"sat", sat},
                  {"unsat", unsat},
                  {"unknown", unknown},
                  {"conflicts", conflicts},
                  {"decisions", decisions},
                  {"witnesses_replayed", replayed_count},
                  {"solver_calls", solver_calls},
                  {"match_disjuncts", match_disjuncts},
                  {"unique_constraints", unique_constraints},
                  {"fifo_constraints", fifo_constraints},
                  {"encode_micros",
                   static_cast<std::uint64_t>(encode_seconds * 1e6)},
                  {"solve_micros",
                   static_cast<std::uint64_t>(solve_seconds * 1e6)}};
  ctx.report.engines.push_back(std::move(run));
}

/// Portfolio: explicit ground truth, both DPOR modes and the symbolic
/// per-trace pipeline, each cross-checked against the truth — the
/// differential harness's agreement story behind one verdict. One
/// produce-then-judge pipeline at every worker count: the producers
/// (explicit, optimal DPOR, sleep-set DPOR, symbolic production) only fill
/// their results and engine rows, then every cross-check and the symbolic
/// judging run serially, so the report is never mutated from two threads.
/// With request.workers > 1 each producer runs on its own thread (the
/// symbolic one sharding across its own worker pool), all probing the same
/// joint wall clock and cancellation latch. With one worker they run
/// inline in row order, and a truncated explicit truth stops the run
/// before the others spend any budget. Engine rows keep the order
/// explicit, dpor, dpor-sleepset, symbolic; a truncated truth ends the
/// report with a budget-exhausted verdict and the explicit row alone, at
/// every worker count.
void run_portfolio(Ctx& ctx) {
  VerifyReport& report = ctx.report;
  report.portfolio = PortfolioStats{};
  PortfolioStats& ps = *report.portfolio;

  ExplicitResult truth;
  DporResult optimal;
  DporResult sleepset;
  SymbolicProduction symbolic;
  std::vector<EngineRun> rows(3);
  const std::vector<std::function<void()>> producers = {
      [&] { truth = run_explicit(ctx, rows[0]); },
      [&] { optimal = run_dpor(ctx, DporMode::kOptimal, rows[1]); },
      [&] { sleepset = run_dpor(ctx, DporMode::kSleepSet, rows[2]); },
      [&] { symbolic = produce_symbolic(ctx); },
  };

  if (ctx.request.workers > 1) {
    std::vector<std::thread> threads;
    threads.reserve(producers.size());
    for (const auto& produce : producers) threads.emplace_back(produce);
    for (std::thread& th : threads) th.join();
  } else {
    for (const auto& produce : producers) {
      produce();
      if (truth.truncated) break;
    }
  }
  if (truth.truncated) {
    // Only the truth's row: with one worker nothing else ran, and the rows
    // of producers that ran beside it would make the report depend on the
    // worker count.
    report.engines.push_back(std::move(rows[0]));
    report.verdict = Verdict::kBudgetExhausted;
    return;
  }
  for (EngineRun& row : rows) report.engines.push_back(std::move(row));

  mcapi::System workspace(ctx.program, ctx.request.mode);
  workspace.enable_undo_log();

  adopt_witnesses(report, truth);
  if (truth.deadlock_found) {
    ps.deadlock_reachable = true;
    replay_deadlock_schedule(ctx, workspace, truth.deadlock_schedule,
                             "explicit", ps);
  }

  const bool observers = has_observer_ops(ctx.program);
  check_dpor_result(ctx, DporMode::kOptimal, optimal, truth, observers,
                    workspace, ps);
  check_dpor_result(ctx, DporMode::kSleepSet, sleepset, truth, observers,
                    workspace, ps);
  judge_symbolic(ctx, std::move(symbolic), &truth, ps);
  // The symbolic engine is the only one that sees extra end-of-run
  // properties, so its violation verdict feeds the portfolio's answer.
  const bool symbolic_violation =
      report.engines.back().verdict == Verdict::kViolation;

  if (!report.disagreements.empty()) {
    report.verdict = Verdict::kUnknown;
  } else if (ctx.cancel_requested.load(std::memory_order_relaxed)) {
    report.verdict = Verdict::kBudgetExhausted;
  } else {
    // The truth is not truncated here (that returned above).
    report.verdict =
        symbolic_violation ? Verdict::kViolation : verdict_of(truth);
  }
}

// --- JSON serialization ----------------------------------------------------------

using json_detail::json_seconds;
using json_detail::json_string;

void json_violation(std::string& out, const mcapi::Violation& v,
                    const mcapi::Program& program) {
  out += "{\"thread\": ";
  json_string(out, program.thread(v.thread).name);
  out += ", \"op_index\": " + std::to_string(v.op_index) + ", \"cond\": ";
  json_string(out, text::cond_to_text(v.cond, program.interner()));
  out += '}';
}

void json_schedule(std::string& out, const std::vector<mcapi::Action>& schedule,
                   const mcapi::Program& program) {
  out += '[';
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (i != 0) out += ", ";
    json_string(out, schedule[i].str(program));
  }
  out += ']';
}

}  // namespace

const char* engine_name(Engine engine) {
  switch (engine) {
    case Engine::kSymbolic: return "symbolic";
    case Engine::kExplicit: return "explicit";
    case Engine::kDporOptimal: return "dpor";
    case Engine::kDporSleepSet: return "dpor-sleepset";
    case Engine::kPortfolio: return "portfolio";
  }
  return "?";
}

std::optional<Engine> engine_from_name(std::string_view name) {
  if (name == "symbolic") return Engine::kSymbolic;
  if (name == "explicit") return Engine::kExplicit;
  if (name == "dpor" || name == "dpor-optimal") return Engine::kDporOptimal;
  if (name == "dpor-sleepset") return Engine::kDporSleepSet;
  if (name == "portfolio") return Engine::kPortfolio;
  return std::nullopt;
}

const char* verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::kSafe: return "safe";
    case Verdict::kViolation: return "violation";
    case Verdict::kDeadlock: return "deadlock";
    case Verdict::kNonTermination: return "non-termination";
    case Verdict::kBudgetExhausted: return "budget-exhausted";
    case Verdict::kUnknown: return "unknown";
  }
  return "?";
}

int verdict_exit_code(Verdict verdict) {
  switch (verdict) {
    case Verdict::kSafe: return 0;
    case Verdict::kViolation:
    case Verdict::kDeadlock: return 1;
    case Verdict::kNonTermination: return 4;
    case Verdict::kBudgetExhausted:
    case Verdict::kUnknown: return 3;
  }
  return 3;
}

bool EnumerateReport::truncated_any() const {
  return symbolic.truncated || precise_truncated ||
         (explicit_truth.has_value() && explicit_truth->truncated) ||
         (mcc.has_value() && mcc->truncated);
}

VerifyReport Verifier::verify(const mcapi::Program& program,
                              VerifyRequest request) {
  MCSYM_ASSERT_MSG(program.finalized(), "finalize the program before verifying");
  Ctx ctx(program, request);
  VerifyReport& report = ctx.report;
  report.engine = request.engine;
  report.program = &program;

  switch (request.engine) {
    case Engine::kSymbolic: {
      PortfolioStats local;  // counter sink; not exposed for single engines
      judge_symbolic(ctx, produce_symbolic(ctx), nullptr, local);
      report.verdict = report.engines.back().verdict;
      break;
    }
    case Engine::kExplicit:
    case Engine::kDporOptimal:
    case Engine::kDporSleepSet: {
      EngineRun run;
      if (request.engine == Engine::kExplicit) {
        adopt_witnesses(report, run_explicit(ctx, run));
      } else {
        const DporMode mode = request.engine == Engine::kDporOptimal
                                  ? DporMode::kOptimal
                                  : DporMode::kSleepSet;
        adopt_witnesses(report, run_dpor(ctx, mode, run));
      }
      report.verdict = run.verdict;
      report.engines.push_back(std::move(run));
      break;
    }
    case Engine::kPortfolio:
      run_portfolio(ctx);
      break;
  }

  if (ctx.cancel_requested.load(std::memory_order_relaxed) &&
      report.verdict != Verdict::kViolation &&
      report.verdict != Verdict::kDeadlock &&
      report.verdict != Verdict::kNonTermination && report.agreed()) {
    report.verdict = Verdict::kBudgetExhausted;
  }
  report.seconds = ctx.timer.seconds();
  return std::move(ctx.report);
}

EnumerateReport Verifier::enumerate(const mcapi::Program& program,
                                    const trace::Trace& trace,
                                    EnumerateRequest request) {
  EnumerateReport out{trace};
  SymbolicChecker checker(out.trace, request.symbolic);
  out.symbolic = checker.enumerate_matchings();

  if (request.with_precise) {
    match::FeasibleOptions fopts;
    fopts.max_paths = request.feasible_max_paths;
    const auto feas = match::enumerate_feasible(out.trace, fopts);
    out.precise = feas.matchings;
    out.precise_truncated = feas.truncated;
  }
  // Explicit-state enumeration of the trace: ground truth under arbitrary
  // delays, the MCC baseline under global-FIFO delivery.
  auto explore = [&](mcapi::DeliveryMode mode) {
    ExplicitOptions eopts;
    eopts.max_states = request.explicit_max_states;
    eopts.max_seconds = request.explicit_max_seconds;
    eopts.mode = mode;
    return ExplicitChecker(program, eopts).enumerate_against(out.trace);
  };
  if (request.with_explicit) {
    out.explicit_truth = explore(mcapi::DeliveryMode::kArbitraryDelay);
  }
  if (request.with_mcc) out.mcc = explore(mcapi::DeliveryMode::kGlobalFifo);

  if (!out.truncated_any()) {
    if (request.with_precise && out.symbolic.matchings != out.precise) {
      std::ostringstream os;
      os << "symbolic enumeration (" << out.symbolic.matchings.size()
         << " matchings) != precise abstract execution (" << out.precise.size()
         << ")";
      out.disagreements.push_back(os.str());
    }
    if (out.explicit_truth.has_value() &&
        out.symbolic.matchings != out.explicit_truth->matchings) {
      std::ostringstream os;
      os << "symbolic enumeration (" << out.symbolic.matchings.size()
         << " matchings) != explicit trace-filtered enumeration ("
         << out.explicit_truth->matchings.size() << ")";
      out.disagreements.push_back(os.str());
    }
  }
  return out;
}

void zero_report_seconds(VerifyReport& report) {
  report.seconds = 0;
  for (EngineRun& run : report.engines) {
    run.seconds = 0;
    for (auto& [key, value] : run.counters) {
      if (key.size() >= 7 && key.compare(key.size() - 7, 7, "_micros") == 0) {
        value = 0;
      }
    }
  }
}

std::string report_to_json(const VerifyReport& report) {
  MCSYM_ASSERT_MSG(report.program != nullptr,
                   "report_to_json needs the report's program");
  const mcapi::Program& program = *report.program;
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"mcsym.verify/1\",\n";
  out += "  \"engine\": ";
  json_string(out, engine_name(report.engine));
  out += ",\n  \"verdict\": ";
  json_string(out, verdict_name(report.verdict));
  out += ",\n  \"cancelled\": ";
  out += report.cancelled ? "true" : "false";
  out += ",\n  \"agreed\": ";
  out += report.agreed() ? "true" : "false";
  out += ",\n  \"seconds\": ";
  json_seconds(out, report.seconds);
  out += ",\n  \"violation\": ";
  if (report.violation.has_value()) {
    json_violation(out, *report.violation, program);
  } else {
    out += "null";
  }
  out += ",\n  \"violations\": [";
  for (std::size_t i = 0; i < report.violations.size(); ++i) {
    if (i != 0) out += ", ";
    json_violation(out, report.violations[i], program);
  }
  out += "],\n  \"witness_schedule\": ";
  json_schedule(out, report.witness_schedule, program);
  out += ",\n  \"deadlock_schedule\": ";
  json_schedule(out, report.deadlock_schedule, program);
  out += ",\n  \"lasso_stem\": ";
  json_schedule(out, report.lasso_stem, program);
  out += ",\n  \"lasso_cycle\": ";
  json_schedule(out, report.lasso_cycle, program);
  out += ",\n  \"engines\": [";
  for (std::size_t i = 0; i < report.engines.size(); ++i) {
    const EngineRun& run = report.engines[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"engine\": ";
    json_string(out, engine_name(run.engine));
    out += ", \"verdict\": ";
    json_string(out, verdict_name(run.verdict));
    out += ", \"truncated\": ";
    out += run.truncated ? "true" : "false";
    out += ", \"seconds\": ";
    json_seconds(out, run.seconds);
    out += ", \"counters\": {";
    for (std::size_t k = 0; k < run.counters.size(); ++k) {
      if (k != 0) out += ", ";
      json_string(out, run.counters[k].first);
      out += ": " + std::to_string(run.counters[k].second);
    }
    out += "}}";
  }
  out += report.engines.empty() ? "]" : "\n  ]";
  out += ",\n  \"disagreements\": [";
  for (std::size_t i = 0; i < report.disagreements.size(); ++i) {
    if (i != 0) out += ", ";
    json_string(out, report.disagreements[i]);
  }
  out += "],\n  \"portfolio\": ";
  if (report.portfolio.has_value()) {
    const PortfolioStats& ps = *report.portfolio;
    out += "{\"traces_checked\": " + std::to_string(ps.traces_checked);
    out += ", \"sat_verdicts\": " + std::to_string(ps.sat_verdicts);
    out += ", \"unsat_verdicts\": " + std::to_string(ps.unsat_verdicts);
    out += ", \"witnesses_replayed\": " + std::to_string(ps.witnesses_replayed);
    out += ", \"traces_skipped\": " + std::to_string(ps.traces_skipped);
    out += ", \"dpor_skipped\": " + std::to_string(ps.dpor_skipped);
    out += std::string(", \"deadlock_reachable\": ") +
           (ps.deadlock_reachable ? "true" : "false");
    out += ", \"deadlock_schedules_replayed\": " +
           std::to_string(ps.deadlock_schedules_replayed);
    out += ", \"deadlocked_runs\": " + std::to_string(ps.deadlocked_runs);
    out += ", \"optimal_redundant_paths\": " +
           std::to_string(ps.optimal_redundant_paths);
    out += '}';
  } else {
    out += "null";
  }
  out += "\n}\n";
  return out;
}

}  // namespace mcsym::check
