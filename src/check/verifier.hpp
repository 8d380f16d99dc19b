// One verification facade over every engine in the repo.
//
// The paper's pitch is a single question — "does some execution consistent
// with this program's behavior violate a property?" — but the engines that
// answer it (SymbolicChecker's per-trace SMT pipeline, the exhaustive
// ExplicitChecker, DporChecker in optimal and sleep-set modes, and the
// differential harness's cross-checking glue) each grew their own options,
// budgets, and verdict vocabulary. `Verifier::verify` is the one entry
// point: a VerifyRequest selects an engine (or kPortfolio, which runs
// several and cross-checks agreement exactly the way the differential
// harness does), carries one shared Budget and an optional
// progress/cancellation callback, and a VerifyReport normalizes the answer
// into one verdict enum with the witness or deadlock schedule attached,
// per-engine stats, and a stable JSON serialization (report_to_json).
//
// The per-engine headers stay as the internal layer this facade drives —
// tests that pin exploration counters or matching sets still construct
// engines directly; everything that just wants a verdict goes through here.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "check/dpor.hpp"
#include "check/explicit_checker.hpp"
#include "check/symbolic_checker.hpp"
#include "check/witness_replay.hpp"
#include "match/match_set.hpp"
#include "mcapi/executor.hpp"
#include "mcapi/system.hpp"
#include "trace/trace.hpp"

namespace mcsym::check {

enum class Engine : std::uint8_t {
  kSymbolic,      // record trace(s), SMT-check each (the paper's pipeline)
  kExplicit,      // exhaustive explicit-state ground truth
  kDporOptimal,   // source-set/wakeup-tree DPOR (default: fastest sound engine)
  kDporSleepSet,  // historical sleep-set baseline
  kPortfolio,     // several engines + the differential harness's agreement checks
};

[[nodiscard]] const char* engine_name(Engine engine);
[[nodiscard]] std::optional<Engine> engine_from_name(std::string_view name);

/// One budget shared by every engine a request runs. Wall clock is a *joint*
/// budget: in portfolio mode each engine gets what the previous ones left.
struct Budget {
  /// Wall-clock seconds across the whole verify() call; 0 = unlimited.
  double max_seconds = 0;
  /// Explicit-state engine: states expanded before truncation.
  std::uint64_t max_states = 10'000'000;
  /// DPOR engines: transitions executed before truncation.
  std::uint64_t max_transitions = 50'000'000;
  /// Symbolic engine: CDCL conflict budget per solver query; 0 = unbounded.
  std::uint64_t solver_conflicts = 0;
  /// Steps per concrete trace-recording run (symbolic / portfolio).
  std::uint64_t max_run_steps = 1u << 20;
};

/// Progress callback payload. Fired between stages and, via the engines'
/// `interrupted` hooks, periodically during long explorations. Returning
/// false from the callback cancels the verification: the engine abandons
/// its search and the report comes back kBudgetExhausted with `cancelled`.
struct Progress {
  Engine engine;
  const char* stage;  // "record-trace", "solve", "explore", "replay", ...
  double seconds;     // elapsed since verify() started
};
using ProgressFn = std::function<bool(const Progress&)>;

struct VerifyRequest {
  Engine engine = Engine::kDporOptimal;
  Budget budget;
  mcapi::DeliveryMode mode = mcapi::DeliveryMode::kArbitraryDelay;

  /// Worker threads. >1 shards optimal-DPOR exploration across that many
  /// threads (DporOptions::workers), shards the symbolic stage's per-trace
  /// pipeline (record, encode, solve, witness replay) across that many
  /// workers claiming trace indices from a queue, and makes portfolio mode
  /// run every engine concurrently under the same joint wall-clock budget.
  /// Sharded production is judged serially in trace-index order, so
  /// verdicts, matchings, witnesses and counters stay identical to serial
  /// at every worker count. The progress callback is then fired from
  /// several threads and must be thread-safe; cancellation still stops
  /// every engine. 1 = fully serial (default, byte-identical reports to
  /// previous releases).
  std::uint32_t workers = 1;

  /// Symbolic / portfolio: how many traces to record and check, and the
  /// scheduler seed of the first. Trace i runs RandomScheduler(trace_seed +
  /// i) with a cycling delivery bias, so consecutive traces sample
  /// different schedule shapes.
  std::uint64_t trace_seed = 1;
  std::uint32_t traces = 1;
  /// Record trace(s) under the deterministic round-robin scheduler instead.
  bool round_robin = false;

  /// Symbolic engine knobs (encoding, match generation). The solver
  /// conflict budget comes from `budget`, not from here.
  SymbolicOptions symbolic;
  /// Extra end-of-run properties, conjoined with in-program assertions.
  std::vector<encode::Property> properties;

  /// Stateful exploration for the explicit and DPOR engines (see
  /// check/state_space.hpp): visited-state matching through an LRU-bounded
  /// store, on-stack cycle detection, and kNonTermination verdicts with a
  /// replayable lasso witness when a non-progressive cycle is realized. On
  /// loop-free programs reports are byte-identical to stateless runs apart
  /// from the extra state-space counters; on cyclic programs this is what
  /// makes the search terminate with a classification. Forces DPOR serial
  /// (workers only shard the symbolic stage / portfolio engines).
  bool stateful = false;
  /// Visited-store capacity in states for stateful mode; 0 = unbounded.
  std::size_t state_capacity = VisitedStateStore::kDefaultCapacity;

  /// Portfolio: also run the sleep-set DPOR baseline (A/B cross-check).
  bool check_dpor_modes = true;
  /// Replay every SAT witness concretely (continue-past-violation mode, so
  /// multi-violation executions are reported in full).
  bool replay_witnesses = true;

  ProgressFn progress;  // optional; see Progress
};

enum class Verdict : std::uint8_t {
  kSafe,             // engine completed: no reachable violation (or, for the
                     // symbolic engine, none consistent with the trace(s))
  kViolation,        // a property violation is reachable (witness attached)
  kDeadlock,         // a deadlock is reachable (schedule attached)
  kNonTermination,   // stateful mode: a non-progressive cycle is realized
                     // (lasso witness attached — see lasso_stem/lasso_cycle)
  kBudgetExhausted,  // search truncated or cancelled before an answer
  kUnknown,          // no verdict: portfolio disagreement / assert-props mode
};

[[nodiscard]] const char* verdict_name(Verdict verdict);

/// The CLI and service exit-code contract for a verdict: 0 safe,
/// 1 violation or deadlock, 3 budget exhausted / no verdict,
/// 4 non-termination (2 is reserved for usage and input errors).
[[nodiscard]] int verdict_exit_code(Verdict verdict);

/// One engine's contribution to a report: its verdict, whether its search
/// truncated, and its counters (insertion-ordered, so the JSON key order is
/// stable across runs and platforms).
struct EngineRun {
  Engine engine;
  Verdict verdict = Verdict::kUnknown;
  bool truncated = false;
  double seconds = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// Per-trace symbolic detail, kept so thin wrappers (the CLI's `check`)
/// can print witnesses and raw SAT/UNSAT results without re-running
/// anything. Not part of the JSON contract.
struct TraceCheck {
  trace::Trace trace;
  mcapi::RunResult::Outcome recorded = mcapi::RunResult::Outcome::kHalted;
  bool checked = false;     // false: skipped (step limit / unusable trace)
  bool has_asserts = false; // trace carries assert events
  SymbolicVerdict verdict;  // meaningful when checked
  std::optional<ReplayedWitness> replay;  // when a SAT witness was replayed
};

/// Portfolio bookkeeping: the differential harness's counters, surfaced so
/// it (and the JSON report) can tell how much cross-checking actually
/// happened instead of passing vacuously.
struct PortfolioStats {
  std::uint64_t traces_checked = 0;
  std::uint64_t sat_verdicts = 0;
  std::uint64_t unsat_verdicts = 0;
  std::uint64_t witnesses_replayed = 0;
  std::uint64_t traces_skipped = 0;   // step-limit runs, unusable traces
  std::uint64_t dpor_skipped = 0;     // DPOR runs lost to truncation
  bool deadlock_reachable = false;
  std::uint64_t deadlock_schedules_replayed = 0;
  std::uint64_t deadlocked_runs = 0;  // concrete recording runs that hung
  /// Sleep-blocked paths optimal DPOR started on programs containing
  /// observer ops (test / wait_any) — counted, not a disagreement; on
  /// observer-free programs any redundancy is a disagreement.
  std::uint64_t optimal_redundant_paths = 0;
};

struct VerifyReport {
  Engine engine = Engine::kDporOptimal;
  Verdict verdict = Verdict::kUnknown;

  /// First violation of the reported witness execution (kViolation).
  std::optional<mcapi::Violation> violation;
  /// Every violation of that execution, in schedule order — more than one
  /// when a witness was replayed continue-past-violation and several
  /// asserts fail along the same execution. Across multiple traces the
  /// facade keeps the most informative validated witness (the replay
  /// exhibiting the most violations).
  std::vector<mcapi::Violation> violations;
  /// Schedule reaching the violation (kViolation) — replayable.
  std::vector<mcapi::Action> witness_schedule;
  /// Schedule reaching the deadlock (kDeadlock) — replayable.
  std::vector<mcapi::Action> deadlock_schedule;
  /// Stateful mode, kNonTermination: replay `lasso_stem` from the initial
  /// state to enter the cycle, then `lasso_cycle` returns to the same
  /// semantic state with no message matched in between — the realized
  /// livelock witness. Empty otherwise.
  std::vector<mcapi::Action> lasso_stem;
  std::vector<mcapi::Action> lasso_cycle;

  std::vector<EngineRun> engines;       // one per engine actually run
  std::vector<std::string> disagreements;  // portfolio cross-check failures
  std::optional<PortfolioStats> portfolio;
  std::vector<TraceCheck> trace_checks; // symbolic / portfolio detail

  bool cancelled = false;  // progress callback returned false
  double seconds = 0;

  /// The verified program; set by verify() for serialization (thread and
  /// endpoint names, condition spellings). Borrowed: the caller keeps the
  /// program alive, exactly as the engines do.
  const mcapi::Program* program = nullptr;

  [[nodiscard]] bool violation_found() const {
    return verdict == Verdict::kViolation;
  }
  [[nodiscard]] bool agreed() const { return disagreements.empty(); }
};

/// Stable JSON serialization of a report — the machine contract of
/// `mcsym verify --json`. Schema "mcsym.verify/1"; field order is fixed and
/// golden-tested, so downstream parsers may rely on it. Timing fields are
/// the only nondeterministic content (tests zero them via
/// zero_report_seconds).
[[nodiscard]] std::string report_to_json(const VerifyReport& report);

/// Zeroes every wall-clock field (report + per-engine), making
/// report_to_json output deterministic. Used by golden tests.
void zero_report_seconds(VerifyReport& report);

/// Unified matching-set enumeration (the Figure-4 experiment): records a
/// trace (or takes one), enumerates feasible send/receive pairings
/// symbolically, and optionally cross-checks against the explicit
/// trace-filtered ground truth, the MCC-style global-FIFO baseline, and the
/// precise abstract-execution DFS.
struct EnumerateRequest {
  std::uint64_t trace_seed = 1;
  bool round_robin = false;
  SymbolicOptions symbolic;
  bool with_explicit = false;  // explicit-state trace-filtered ground truth
  bool with_mcc = false;       // delay-free global-FIFO baseline
  bool with_precise = false;   // precise abstract-execution DFS
  std::uint64_t explicit_max_states = 10'000'000;
  std::uint64_t feasible_max_paths = 1u << 20;
};

struct EnumerateReport {
  explicit EnumerateReport(trace::Trace recorded) : trace(std::move(recorded)) {}

  trace::Trace trace;  // the recorded trace all sets refer to
  SymbolicEnumeration symbolic;
  std::optional<ExplicitResult> explicit_truth;
  std::optional<ExplicitResult> mcc;
  std::set<match::Matching> precise;
  bool precise_truncated = false;
  /// Cross-check failures among the requested enumerations (symbolic vs
  /// explicit, symbolic vs precise). MCC is a deliberately weaker baseline,
  /// so its (expected) gap is not a disagreement.
  std::vector<std::string> disagreements;

  [[nodiscard]] bool truncated_any() const;
};

class Verifier {
 public:
  /// Answers "does some execution of `program` violate a property or
  /// deadlock?" with the engine(s) the request selects. The program must
  /// outlive the returned report (which borrows it for serialization).
  [[nodiscard]] VerifyReport verify(const mcapi::Program& program,
                                    VerifyRequest request = {});

  /// Enumerates the feasible matchings of one recorded trace.
  [[nodiscard]] EnumerateReport enumerate(const mcapi::Program& program,
                                          EnumerateRequest request = {});
  /// Same, against a caller-provided trace of `program`.
  [[nodiscard]] EnumerateReport enumerate(const mcapi::Program& program,
                                          const trace::Trace& trace,
                                          EnumerateRequest request = {});
};

}  // namespace mcsym::check
