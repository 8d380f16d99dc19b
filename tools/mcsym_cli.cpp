// mcsym — command-line front end for the full pipeline of the paper:
//
//   run one execution of an MCAPI program, record its trace, generate the
//   match-pair sets, encode P = POrder ∧ PMatchPairs ∧ PUnique ∧ ¬PProp ∧
//   PEvents, hand it to the SMT solver, and read the verdict / witness /
//   full pairing enumeration back out.
//
// Programs come in as `.mcp` text (see src/text/program_text.hpp for the
// grammar). Subcommands:
//
//   mcsym run FILE        execute once on the simulated runtime
//   mcsym trace FILE      print the recorded trace, one event per line
//   mcsym verify FILE     one-stop verification through the Verifier facade
//                         (--engine selects symbolic/explicit/dpor/portfolio)
//   mcsym verify --batch MANIFEST
//                         verify every .mcp listed in MANIFEST through one
//                         VerifierService (shared verdict cache), emitting a
//                         JSON envelope line per entry
//   mcsym serve           long-running stdio request loop over the same
//                         service (protocol: VerifierService::serve)
//   mcsym check FILE      verify safety properties symbolically
//   mcsym enumerate FILE  enumerate every feasible send/receive pairing
//   mcsym smt FILE        emit the SMT problem as SMT-LIB2 text
//   mcsym fmt FILE        reprint the program in canonical form
//
// `check` and `enumerate` are thin wrappers over the same
// check::Verifier facade `verify` drives; the facade owns trace
// recording, engine plumbing, witness replay, and cross-checking. Request
// options go through the service's option table (check::set_option), the
// same one serve headers use; batch and serve are VerifierService's.
//
// Exit codes: 0 = success / verified safe; 1 = a violation or deadlock is
// reachable; 2 = usage or input error; 3 = budget exhausted / no verdict;
// 4 = non-termination (--stateful: a non-progressive cycle is realized).
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/diagnose.hpp"
#include "check/service.hpp"
#include "check/verifier.hpp"
#include "mcapi/executor.hpp"
#include "smt/smtlib.hpp"
#include "smt/smtlib_parser.hpp"
#include "text/program_text.hpp"
#include "trace/trace.hpp"

namespace {

using mcsym::check::RequestSpec;
using mcsym::check::SymbolicOptions;
using mcsym::check::Verifier;
using mcsym::check::VerifierService;
using mcsym::text::ParseOutcome;

constexpr const char* kUsage = R"(usage: mcsym COMMAND FILE.mcp [options]
       mcsym verify --batch MANIFEST [options]
       mcsym serve [options]

commands:
  run        execute the program once on the simulated MCAPI runtime
  trace      record one execution and print its trace text
  verify     answer "can any execution violate a property or deadlock?"
             with a selectable engine (see --engine) and budgets
  serve      read verification requests from stdin in a loop, sharing one
             verdict cache across them; replies are JSON envelope lines
             (protocol: `verify [k=v ...]` then program text then `.`,
             where k is a request option below or `id`, echoed in the
             reply; also `stats` and `quit`)
  check      decide whether any execution consistent with the recorded
             trace violates a property (the paper's SMT pipeline)
  enumerate  enumerate every feasible send/receive pairing of the trace
  diagnose   explain whether proposed --pair bindings are jointly feasible
  smt        print the SMT problem (SMT-LIB2) for the recorded trace
  solve      run the built-in CDCL+IDL solver on an SMT-LIB2 file
  fmt        parse and reprint the program in canonical form

request options (verify, --batch, serve defaults; serve headers spell them
key=value, and --KEY=VALUE works too; numbers are non-negative decimals):
  --engine NAME        symbolic | explicit | dpor | dpor-sleepset | portfolio
                       (default dpor)
  --json               print the machine-readable report (mcsym.verify/1)
  --max-seconds S      joint wall-clock budget across all engines (default off;
                       bounds each of enumerate --explicit / --mcc)
  --max-states N       explicit-state budget (states expanded; 0 = default;
                       also bounds enumerate --explicit / --mcc)
  --max-transitions N  DPOR budget (transitions executed; 0 = default)
  --conflicts N        CDCL conflict budget per solver query (default off)
  --timeout S          wall-clock limit through the progress callback
  --traces N           traces to record and check (symbolic/portfolio, default 1)
  --stateful           visited-state matching + cycle detection (explicit/DPOR):
                       looping programs get a definitive verdict, and a
                       non-progressive cycle is non-termination (exit 4)
  --state-capacity N   visited-store capacity for --stateful, which it
                       implies (default 1048576; 0 = unbounded)
  --workers N          worker threads for the symbolic stage and the
                       portfolio's engines; DPOR and explicit explore
                       serially (default 1; reports are identical at every
                       count); `auto` or 0 = all hardware threads (max 64)
  --seed N             scheduler seed for the recorded execution (default 1)
  --round-robin        use the deterministic round-robin scheduler instead
  --precise            generate match pairs by precise DFS instead of the
                       endpoint over-approximation
  --no-fifo            drop MCAPI per-channel FIFO constraints (ablation)
  --delay-ignorant     Elwakil-Yang-style baseline encoding (delivery order
                       = issue order; misses Figure-4b behaviors)
  --assert-props       assert PProp instead of its negation (SAT = a fully
                       correct execution exists)

other options:
  --batch              FILE is a manifest of .mcp paths (one per line, `#`
                       comments), verified through one shared service: one
                       JSON envelope line per entry (with --json followed by
                       the report); exit is the worst entry (2 > 1 > 4 > 3 > 0)
  --cache N            verdict-cache capacity for --batch / serve
                       (default 256); --no-cache disables caching
  --property EXPR      extra end-of-run property, e.g. 't0.A == 20'
                       (repeatable; conjoined with in-program asserts)
  --witness            print the decoded witness on SAT (check)
  --replay             re-execute the witness on the runtime and report the
                       outcome (check)
  --explicit           also run the explicit-state ground truth (enumerate)
  --mcc                also run the MCC-style global-FIFO baseline (enumerate)
  --pair 'tS:send#K -> tR:recv#J'
                       propose that thread tR's J-th receive takes thread
                       tS's K-th send (repeatable; ordinals as printed by
                       enumerate) (diagnose)
  -o FILE              write primary output to FILE instead of stdout

exit codes: 0 ok / verified safe; 1 violation or deadlock reachable
            (check: SAT); 2 usage or input error; 3 budget exhausted /
            no verdict (verify; check: UNKNOWN under --conflicts;
            enumerate: a pairing set was truncated, nothing compared);
            4 non-termination (verify --stateful)
)";

struct Options {
  std::string command;
  std::string file;
  RequestSpec spec;  // every request option (the service's option table)
  std::vector<std::string> properties;
  bool witness = false;
  bool replay = false;
  bool with_explicit = false;
  bool with_mcc = false;
  std::vector<std::string> pairs;
  std::string out_path;
  bool batch = false;
  std::size_t cache_capacity = 256;  // --batch / serve verdict cache
};

int fail(const std::string& message) {
  std::cerr << "mcsym: " << message << "\n";
  return 2;
}

/// nullopt with an empty `error` means "print the usage text".
std::optional<Options> parse_args(int argc, char** argv, std::string& error) {
  Options o;
  if (argc < 2) return std::nullopt;
  o.command = argv[1];
  // `serve` reads programs from stdin and takes no FILE operand; every
  // other command requires one.
  int first = 2;
  if (o.command != "serve") {
    if (argc < 3) return std::nullopt;
    o.file = argv[2];
    first = 3;
  }
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (a == "--property" || a == "--pair" || a == "--cache" || a == "-o") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      if (a == "--property") o.properties.emplace_back(v);
      if (a == "--pair") o.pairs.emplace_back(v);
      if (a == "--cache") o.cache_capacity = std::strtoull(v, nullptr, 10);
      if (a == "-o") o.out_path = v;
    } else if (a == "--witness") {
      o.witness = true;
    } else if (a == "--replay") {
      o.replay = true;
    } else if (a == "--explicit") {
      o.with_explicit = true;
    } else if (a == "--mcc") {
      o.with_mcc = true;
    } else if (a == "--batch") {
      o.batch = true;
    } else if (a == "--no-cache") {
      o.cache_capacity = 0;
    } else if (a.rfind("--", 0) == 0) {
      // A request option: `--key=value`, `--key value`, or a bare switch.
      std::string key = a.substr(2);
      std::string value = "1";
      if (const auto eq = key.find('='); eq != std::string::npos) {
        value = key.substr(eq + 1);
        key.resize(eq);
      } else if (!mcsym::check::is_switch_option(key)) {
        const char* v = next();
        value = v != nullptr ? v : "";
      }
      error = mcsym::check::set_option(o.spec, key, value);
      if (!error.empty()) return std::nullopt;
    } else {
      error = "unknown option '" + a + "'";
      return std::nullopt;
    }
  }
  return o;
}

/// Reads the whole file; nullopt (with message on stderr) when unreadable.
std::optional<std::string> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "mcsym: cannot open '" << path << "'\n";
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

int write_output(const Options& o, const std::string& content) {
  if (o.out_path.empty()) {
    std::cout << content;
    return 0;
  }
  std::ofstream out(o.out_path, std::ios::binary);
  if (!out) return fail("cannot write '" + o.out_path + "'");
  out << content;
  return 0;
}

struct LoadedProgram {
  mcsym::text::ParsedProgram unit;
  std::vector<mcsym::encode::Property> properties;  // unit's + --property's
};

std::optional<LoadedProgram> load(const Options& o) {
  const auto source = slurp(o.file);
  if (!source) return std::nullopt;
  ParseOutcome out = mcsym::text::parse_program(*source);
  if (!out.ok()) {
    std::cerr << "mcsym: " << o.file << " has errors:\n" << out.error_text() << "\n";
    return std::nullopt;
  }
  LoadedProgram lp{std::move(*out.parsed), {}};
  lp.properties = lp.unit.properties;
  for (const std::string& text : o.properties) {
    auto prop = mcsym::text::parse_property(lp.unit.program, text);
    if (!prop.ok()) {
      std::cerr << "mcsym: bad --property '" << text << "':";
      for (const auto& d : prop.diagnostics) std::cerr << " " << d.message;
      std::cerr << "\n";
      return std::nullopt;
    }
    lp.properties.push_back(std::move(*prop.property));
  }
  return lp;
}

/// Executes once under the selected scheduler, recording into `trace`.
mcsym::mcapi::RunResult record(const Options& o, const mcsym::mcapi::Program& program,
                               mcsym::trace::Trace& trace) {
  mcsym::mcapi::System sys(program);
  mcsym::trace::Recorder rec(trace);
  if (o.spec.request.round_robin) {
    mcsym::mcapi::RoundRobinScheduler sched;
    return mcsym::mcapi::run(sys, sched, &rec);
  }
  mcsym::mcapi::RandomScheduler sched(o.spec.request.trace_seed);
  return mcsym::mcapi::run(sys, sched, &rec);
}

/// Records the run `enumerate`, `smt` and `diagnose` reason about, and refuses it the
/// way `check` does: a step-limited or structurally incomplete trace (a
/// recv_i left without its wait) is not a checkable artifact. Returns 0
/// when `trace` can be encoded, else the input-error exit code after a
/// diagnostic.
int record_checkable(const Options& o, const mcsym::mcapi::Program& program,
                     mcsym::trace::Trace& trace) {
  const auto result = record(o, program, trace);
  if (result.outcome == mcsym::mcapi::RunResult::Outcome::kStepLimit) {
    return fail("recorded execution hit the step limit");
  }
  if (const auto error = trace.validate()) {
    return fail("recorded execution left a structurally incomplete trace (" +
                *error + "); try another --seed");
  }
  return 0;
}

const char* outcome_name(mcsym::mcapi::RunResult::Outcome oc) {
  using Outcome = mcsym::mcapi::RunResult::Outcome;
  switch (oc) {
    case Outcome::kHalted: return "halted";
    case Outcome::kViolation: return "assertion violation";
    case Outcome::kDeadlock: return "deadlock";
    case Outcome::kStepLimit: return "step limit";
    case Outcome::kDiverged: return "diverged";
  }
  return "?";
}

int cmd_run(const Options& o) {
  const auto lp = load(o);
  if (!lp) return 2;
  mcsym::trace::Trace trace(lp->unit.program);
  const auto result = record(o, lp->unit.program, trace);
  std::ostringstream report;
  report << "outcome: " << outcome_name(result.outcome) << " after " << result.steps
         << " steps; " << trace.size() << " events, " << trace.sends().size()
         << " sends, " << trace.receives().size() << " receives\n";
  const int rc = write_output(o, report.str());
  if (rc != 0) return rc;
  return result.outcome == mcsym::mcapi::RunResult::Outcome::kViolation ? 1 : 0;
}

int cmd_trace(const Options& o) {
  const auto lp = load(o);
  if (!lp) return 2;
  mcsym::trace::Trace trace(lp->unit.program);
  const auto result = record(o, lp->unit.program, trace);
  if (!result.completed() &&
      result.outcome != mcsym::mcapi::RunResult::Outcome::kViolation) {
    std::cerr << "mcsym: recorded execution did not complete ("
              << outcome_name(result.outcome) << ")\n";
  }
  return write_output(o, trace.to_text());
}

int cmd_verify(const Options& o) {
  const auto lp = load(o);
  if (!lp) return 2;

  mcsym::check::VerifyRequest req = o.spec.request;
  req.properties = lp->properties;

  Verifier verifier;
  const auto vr = verifier.verify(lp->unit.program, req);

  if (o.spec.json) {
    const int rc = write_output(o, mcsym::check::report_to_json(vr));
    if (rc != 0) return rc;
    return mcsym::check::verdict_exit_code(vr.verdict);
  }

  std::ostringstream report;
  report << "verdict: " << mcsym::check::verdict_name(vr.verdict);
  if (vr.cancelled) report << " (cancelled)";
  report << "\n";
  const auto& names = lp->unit.program.interner();
  for (const auto& v : vr.violations) {
    report << "violation: " << lp->unit.program.thread(v.thread).name << " op#"
           << v.op_index << ": " << mcsym::text::cond_to_text(v.cond, names)
           << "\n";
  }
  if (!vr.witness_schedule.empty()) {
    report << "witness schedule: " << vr.witness_schedule.size()
           << " actions (replayable)\n";
  }
  if (vr.verdict == mcsym::check::Verdict::kDeadlock ||
      !vr.deadlock_schedule.empty()) {
    report << "deadlock schedule: " << vr.deadlock_schedule.size()
           << " actions (replayable; 0 = the initial state deadlocks)\n";
  }
  if (vr.verdict == mcsym::check::Verdict::kNonTermination) {
    report << "non-termination lasso: " << vr.lasso_stem.size()
           << " stem + " << vr.lasso_cycle.size()
           << " cycle actions (replay the stem, then the cycle returns to "
              "the same state with no message matched)\n";
  }
  for (const auto& run : vr.engines) {
    report << "engine " << mcsym::check::engine_name(run.engine) << ": "
           << mcsym::check::verdict_name(run.verdict)
           << (run.truncated ? " (truncated)" : "") << ";";
    for (const auto& [key, value] : run.counters) {
      report << " " << key << "=" << value;
    }
    report << "\n";
  }
  for (const auto& d : vr.disagreements) {
    report << "disagreement: " << d << "\n";
  }
  const int rc = write_output(o, report.str());
  if (rc != 0) return rc;
  return mcsym::check::verdict_exit_code(vr.verdict);
}

int cmd_verify_batch(const Options& o) {
  std::ifstream manifest(o.file, std::ios::binary);
  if (!manifest) return fail("cannot open '" + o.file + "'");
  VerifierService service({o.cache_capacity});
  std::ostringstream out;
  const int exit_code = service.run_batch(manifest, out, o.spec, o.properties);
  const int rc = write_output(o, out.str());
  return rc != 0 ? rc : exit_code;
}

// Serve: one service for the whole session, so the verdict cache
// accumulates across requests; the protocol is VerifierService::serve's.
// Command-line request options are the defaults each header overrides.
int cmd_serve(const Options& o) {
  VerifierService service({o.cache_capacity});
  service.serve(std::cin, std::cout, o.spec, o.properties);
  return 0;
}

int cmd_check(const Options& o) {
  const auto lp = load(o);
  if (!lp) return 2;

  // Thin wrapper over the Verifier facade's symbolic engine: the facade
  // records the trace, runs the SMT pipeline, and (with --replay) replays
  // the witness; this command just formats the raw per-trace result.
  mcsym::check::VerifyRequest req;
  req.engine = mcsym::check::Engine::kSymbolic;
  req.trace_seed = o.spec.request.trace_seed;
  req.round_robin = o.spec.request.round_robin;
  req.symbolic = o.spec.request.symbolic;
  req.properties = lp->properties;
  req.replay_witnesses = o.replay;

  Verifier verifier;
  const auto vr = verifier.verify(lp->unit.program, req);
  if (vr.trace_checks.empty()) {
    return fail("recorded execution did not produce a trace");
  }
  const auto& tc = vr.trace_checks.front();
  if (!tc.checked) {
    // The recording itself ended the story before a symbolic query made
    // sense; report what happened instead of a bogus verdict.
    using Outcome = mcsym::mcapi::RunResult::Outcome;
    if (tc.recorded == Outcome::kDeadlock) {
      const int rc = write_output(
          o, "deadlock: the recorded execution deadlocked; its trace is a "
             "prefix artifact, not a checkable one (use `mcsym verify` for "
             "a whole-program verdict)\n");
      return rc != 0 ? rc : 1;
    }
    if (tc.recorded == Outcome::kStepLimit) {
      return fail("recorded execution hit the step limit");
    }
    return fail("recorded execution left a structurally incomplete trace "
                "(the violation stopped it mid-request); try another --seed");
  }
  const auto& verdict = tc.verdict;
  const auto& trace = tc.trace;

  const bool assert_props = req.symbolic.encode.property_mode ==
                            mcsym::encode::PropertyMode::kAssert;
  std::ostringstream report;
  switch (verdict.result) {
    case mcsym::smt::SolveResult::kSat:
      report << (assert_props ? "SAT: a fully correct execution exists"
                                : "SAT: a property violation is reachable")
             << "\n";
      break;
    case mcsym::smt::SolveResult::kUnsat:
      report << (assert_props ? "UNSAT: no fully correct execution"
                                : "UNSAT: no execution of this trace violates the "
                                  "properties")
             << "\n";
      break;
    case mcsym::smt::SolveResult::kUnknown:
      report << "UNKNOWN: solver budget exhausted\n";
      break;
  }
  report << "stats: " << verdict.encode_stats.clock_vars << " clocks, "
         << verdict.encode_stats.id_vars << " match ids, "
         << verdict.encode_stats.match_disjuncts << " match disjuncts, "
         << verdict.sat_conflicts << " conflicts, " << verdict.sat_decisions
         << " decisions\n";

  if (verdict.witness.has_value() && o.witness) {
    report << "\n" << verdict.witness->to_string(trace);
  }
  if (verdict.witness.has_value() && o.replay) {
    // The facade already replayed the witness (continue-past-violation, so
    // the whole modeled execution was realized, not just the prefix).
    if (!tc.replay.has_value()) {
      report << "replay: FAILED to realize the witness (encoding bug?)\n";
    } else {
      report << "replay: witness realized in " << tc.replay->script.size()
             << " steps; in-program asserts "
             << (tc.replay->violation ? "fired" : "held");
      if (tc.replay->violations.size() > 1) {
        report << " (" << tc.replay->violations.size()
               << " violations along this execution)";
      }
      if (!verdict.witness->violated.empty()) {
        report << "; end-of-run properties violated as listed above";
      }
      report << "\n";
    }
  }
  const int rc = write_output(o, report.str());
  if (rc != 0) return rc;
  switch (verdict.result) {
    case mcsym::smt::SolveResult::kSat: return 1;
    case mcsym::smt::SolveResult::kUnsat: return 0;
    case mcsym::smt::SolveResult::kUnknown: return 3;  // --conflicts ran out
  }
  return 3;
}

int cmd_enumerate(const Options& o) {
  const auto lp = load(o);
  if (!lp) return 2;

  // Thin wrapper over the Verifier facade's enumeration: the command
  // records the trace (and refuses one that cannot be encoded); the
  // symbolic Figure-4 pipeline and the optional explicit / MCC
  // cross-checks live in the facade.
  mcsym::check::EnumerateRequest er;
  er.symbolic = o.spec.request.symbolic;
  er.with_explicit = o.with_explicit;
  er.with_mcc = o.with_mcc;
  er.explicit_max_states = o.spec.request.budget.max_states;
  er.explicit_max_seconds = o.spec.request.budget.max_seconds;

  mcsym::trace::Trace recorded(lp->unit.program);
  if (const int rc = record_checkable(o, lp->unit.program, recorded)) return rc;
  Verifier verifier;
  const auto en = verifier.enumerate(lp->unit.program, recorded, er);
  const auto& enumeration = en.symbolic;
  const auto& trace = en.trace;

  std::ostringstream report;
  report << enumeration.matchings.size() << " feasible pairing(s)"
         << (enumeration.truncated ? " (truncated)" : "") << ", "
         << enumeration.solver_calls << " solver calls\n";
  std::size_t index = 1;
  for (const auto& matching : enumeration.matchings) {
    report << "pairing " << index++ << ":\n";
    for (const auto& [recv, send] : matching) {
      const auto& r = trace.event(recv).ev;
      const auto& s = trace.event(send).ev;
      report << "  " << lp->unit.program.thread(s.thread).name << ":send#"
             << s.op_index << " (value " << s.value << ") -> "
             << lp->unit.program.thread(r.thread).name << ":recv#" << r.op_index
             << "\n";
    }
  }

  // A truncated set is a lower bound: compare nothing against it.
  const bool truncated = en.truncated_any();
  if (en.explicit_truth.has_value()) {
    const auto& truth = *en.explicit_truth;
    report << "explicit-state ground truth: " << truth.matchings.size()
           << " pairing(s)" << (truth.truncated ? " (truncated)" : "");
    if (!truncated) {
      report << (truth.matchings == enumeration.matchings ? " — agrees"
                                                          : " — MISMATCH");
    }
    report << "\n";
  }
  if (en.mcc.has_value()) {
    const auto& restricted = *en.mcc;
    report << "MCC-style baseline (no delay nondeterminism): "
           << restricted.matchings.size() << " pairing(s)"
           << (restricted.truncated ? " (truncated)" : "");
    if (!truncated &&
        restricted.matchings.size() < enumeration.matchings.size()) {
      report << " — misses "
             << enumeration.matchings.size() - restricted.matchings.size()
             << " behavior(s) (the Figure-4b gap)";
    }
    report << "\n";
  }
  const int rc = write_output(o, report.str());
  if (rc != 0) return rc;
  return truncated ? 3 : 0;
}

/// Parses "tS:send#K -> tR:recv#J" (or the reversed "tR:recv#J <- tS:send#K")
/// into trace event indices.
std::optional<mcsym::check::PairProposal> parse_pair(
    const std::string& text, const mcsym::mcapi::Program& program,
    const mcsym::trace::Trace& trace) {
  auto bad = [&](const std::string& why) {
    std::cerr << "mcsym: bad --pair '" << text << "': " << why << "\n";
    return false;
  };

  std::string lhs;
  std::string rhs;
  bool lhs_is_send = true;
  if (const auto arrow = text.find("->"); arrow != std::string::npos) {
    lhs = text.substr(0, arrow);
    rhs = text.substr(arrow + 2);
  } else if (const auto rev = text.find("<-"); rev != std::string::npos) {
    lhs = text.substr(0, rev);
    rhs = text.substr(rev + 2);
    lhs_is_send = false;
  } else {
    bad("expected 'tS:send#K -> tR:recv#J'");
    return std::nullopt;
  }

  // "thread:kind#ordinal"
  auto parse_ref = [&](std::string s, bool expect_send,
                       mcsym::trace::EventIndex& out) -> bool {
    // Trim.
    while (!s.empty() && s.front() == ' ') s.erase(s.begin());
    while (!s.empty() && s.back() == ' ') s.pop_back();
    const auto colon = s.find(':');
    const auto hash = s.find('#');
    if (colon == std::string::npos || hash == std::string::npos || hash < colon) {
      return bad("malformed endpoint '" + s + "'");
    }
    const std::string thread_name = s.substr(0, colon);
    const std::string kind = s.substr(colon + 1, hash - colon - 1);
    const std::uint32_t ordinal =
        static_cast<std::uint32_t>(std::strtoul(s.c_str() + hash + 1, nullptr, 10));
    if (kind != (expect_send ? "send" : "recv")) {
      return bad(std::string("expected '") + (expect_send ? "send" : "recv") +
                 "', got '" + kind + "'");
    }
    for (mcsym::mcapi::ThreadRef t = 0; t < program.num_threads(); ++t) {
      if (program.thread(t).name != thread_name) continue;
      const mcsym::trace::EventIndex ev = trace.find(t, ordinal);
      if (ev == mcsym::trace::kNoEvent) {
        return bad("no event '" + s + "' in the trace");
      }
      using Kind = mcsym::mcapi::ExecEvent::Kind;
      const Kind k = trace.event(ev).ev.kind;
      const bool ok_kind = expect_send
                               ? k == Kind::kSend
                               : (k == Kind::kRecv || k == Kind::kRecvIssue);
      if (!ok_kind) {
        return bad("'" + s + "' is not a " + (expect_send ? "send" : "receive") +
                   " event");
      }
      out = ev;
      return true;
    }
    return bad("unknown thread '" + thread_name + "'");
  };

  mcsym::check::PairProposal p;
  const std::string& send_text = lhs_is_send ? lhs : rhs;
  const std::string& recv_text = lhs_is_send ? rhs : lhs;
  if (!parse_ref(send_text, /*expect_send=*/true, p.send)) return std::nullopt;
  if (!parse_ref(recv_text, /*expect_send=*/false, p.recv)) return std::nullopt;
  return p;
}

int cmd_diagnose(const Options& o) {
  const auto lp = load(o);
  if (!lp) return 2;
  if (o.pairs.empty()) return fail("diagnose needs at least one --pair");
  mcsym::trace::Trace trace(lp->unit.program);
  if (const int rc = record_checkable(o, lp->unit.program, trace)) return rc;

  std::vector<mcsym::check::PairProposal> proposals;
  for (const std::string& text : o.pairs) {
    const auto p = parse_pair(text, lp->unit.program, trace);
    if (!p) return 2;
    proposals.push_back(*p);
  }

  const mcsym::check::Diagnosis d = mcsym::check::diagnose_pairing(
      trace, proposals, o.spec.request.symbolic.encode);

  std::ostringstream report;
  auto pair_name = [&](const mcsym::check::PairProposal& p) {
    const auto& s = trace.event(p.send).ev;
    const auto& r = trace.event(p.recv).ev;
    return lp->unit.program.thread(s.thread).name + ":send#" +
           std::to_string(s.op_index) + " -> " +
           lp->unit.program.thread(r.thread).name + ":recv#" +
           std::to_string(r.op_index);
  };
  if (d.feasible) {
    report << "feasible: some execution realizes every proposed pair\n";
    if (d.witness) report << "\n" << d.witness->to_string(trace);
  } else {
    report << "infeasible: no execution realizes the proposed pairs together\n";
    if (!d.blamed_pairs.empty()) {
      report << "conflicting pairs:\n";
      for (const auto& p : d.blamed_pairs) report << "  " << pair_name(p) << "\n";
    }
    if (!d.blamed_groups.empty()) {
      report << "violated constraint groups:";
      for (const auto& g : d.blamed_groups) report << " " << g;
      report << "\n";
    }
  }
  const int rc = write_output(o, report.str());
  if (rc != 0) return rc;
  return d.feasible ? 0 : 1;
}

int cmd_smt(const Options& o) {
  const auto lp = load(o);
  if (!lp) return 2;
  mcsym::trace::Trace trace(lp->unit.program);
  if (const int rc = record_checkable(o, lp->unit.program, trace)) return rc;

  // Build the encoding exactly as `check` would, then print the assertions.
  const SymbolicOptions& so = o.spec.request.symbolic;
  const mcsym::check::SymbolicChecker checker(trace, so);
  mcsym::smt::Solver solver;
  mcsym::encode::Encoder encoder(solver, trace, checker.match_set(), so.encode);
  (void)encoder.encode(lp->properties);
  return write_output(o, mcsym::smt::to_smtlib(solver.terms(), solver.assertions()));
}

int cmd_solve(const Options& o) {
  const auto source = slurp(o.file);
  if (!source) return 2;
  mcsym::smt::Solver solver;
  const auto parsed = mcsym::smt::parse_smtlib(solver.terms(), *source);
  if (!parsed.ok()) {
    std::cerr << "mcsym: " << o.file << ": " << parsed.error << "\n";
    return 2;
  }
  for (const mcsym::smt::TermId t : parsed.script->assertions) {
    solver.assert_term(t);
  }
  const mcsym::smt::SolveResult result = solver.check();
  std::ostringstream report;
  switch (result) {
    case mcsym::smt::SolveResult::kSat: {
      report << "sat\n";
      // Mirror (get-model) for the declared integers, which is what the
      // encoder's problems quantify over.
      for (const mcsym::smt::TermId t : parsed.script->declared_ints) {
        report << "  " << solver.terms().var_name(t) << " = "
               << solver.model_int(t) << "\n";
      }
      break;
    }
    case mcsym::smt::SolveResult::kUnsat: report << "unsat\n"; break;
    case mcsym::smt::SolveResult::kUnknown: report << "unknown\n"; break;
  }
  const int rc = write_output(o, report.str());
  if (rc != 0) return rc;
  return result == mcsym::smt::SolveResult::kSat ? 1 : 0;
}

int cmd_fmt(const Options& o) {
  const auto source = slurp(o.file);
  if (!source) return 2;
  ParseOutcome out = mcsym::text::parse_program(*source);
  if (!out.ok()) {
    std::cerr << "mcsym: " << o.file << " has errors:\n" << out.error_text() << "\n";
    return 2;
  }
  return write_output(o, mcsym::text::program_to_text(
                             out.parsed->program, out.parsed->properties,
                             out.parsed->name));
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const auto options = parse_args(argc, argv, error);
  if (!options) {
    if (!error.empty()) return fail(error);
    std::cerr << kUsage;
    return 2;
  }
  if (options->command == "run") return cmd_run(*options);
  if (options->command == "trace") return cmd_trace(*options);
  if (options->command == "verify") {
    return options->batch ? cmd_verify_batch(*options) : cmd_verify(*options);
  }
  if (options->command == "serve") return cmd_serve(*options);
  if (options->command == "check") return cmd_check(*options);
  if (options->command == "enumerate") return cmd_enumerate(*options);
  if (options->command == "diagnose") return cmd_diagnose(*options);
  if (options->command == "smt") return cmd_smt(*options);
  if (options->command == "solve") return cmd_solve(*options);
  if (options->command == "fmt") return cmd_fmt(*options);
  return fail("unknown command '" + options->command + "'");
}
