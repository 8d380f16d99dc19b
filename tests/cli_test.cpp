// End-to-end tests of the `mcsym` command-line driver: every subcommand is
// exercised against the shipped .mcp examples, checking stdout content and
// exit codes (0 = verified/ok, 1 = violation reachable, 2 = input error).
//
// The binary path and example directory come in through compile definitions
// so the tests run from any working directory.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <string>

#ifndef MCSYM_CLI_PATH
#error "MCSYM_CLI_PATH must be defined by the build"
#endif
#ifndef MCSYM_EXAMPLES_DIR
#error "MCSYM_EXAMPLES_DIR must be defined by the build"
#endif

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

CliResult run_cli(const std::string& args) {
  const std::string command = std::string(MCSYM_CLI_PATH) + " " + args + " 2>&1";
  CliResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  std::size_t n = 0;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string figure1() { return std::string(MCSYM_EXAMPLES_DIR) + "/figure1.mcp"; }

/// A mcsym.verify/1 report with its wall-clock fields ("seconds" and the
/// "*_micros" counters) zeroed: what stays is fixed by the request.
std::string mask_timing(const std::string& json) {
  static const std::regex kTiming(R"(("seconds"|_micros"): [0-9.eE+-]+)");
  return std::regex_replace(json, kTiming, "$1: 0");
}

TEST(CliTest, UsageOnNoArguments) {
  const CliResult r = run_cli("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CliTest, UnknownCommand) {
  const CliResult r = run_cli("frobnicate " + figure1());
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown command"), std::string::npos);
}

TEST(CliTest, MissingFile) {
  const CliResult r = run_cli("run /nonexistent/path.mcp");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("cannot open"), std::string::npos);
}

TEST(CliTest, RunReportsOutcomeAndEventCounts) {
  const CliResult r = run_cli("run " + figure1());
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("outcome: halted"), std::string::npos);
  EXPECT_NE(r.output.find("3 sends"), std::string::npos);
  EXPECT_NE(r.output.find("3 receives"), std::string::npos);
}

TEST(CliTest, TraceEmitsOneEventPerLine) {
  const CliResult r = run_cli("trace " + figure1());
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("send"), std::string::npos);
  EXPECT_NE(r.output.find("recv"), std::string::npos);
  // 6 communication events in Figure 1.
  int lines = 0;
  for (const char c : r.output) lines += c == '\n';
  EXPECT_EQ(lines, 6);
}

TEST(CliTest, CheckFindsTheFigure4bViolation) {
  const CliResult r = run_cli("check " + figure1() + " --witness --replay");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("SAT: a property violation is reachable"),
            std::string::npos);
  EXPECT_NE(r.output.find("A saw send(Y) first"), std::string::npos);
  EXPECT_NE(r.output.find("replay: witness realized"), std::string::npos);

  // --conflicts reaches check's solver query: a one-conflict budget gives
  // no verdict, which is exit 3, not a verified 0.
  const CliResult starved = run_cli("check " + figure1() + " --conflicts 1");
  EXPECT_EQ(starved.exit_code, 3) << starved.output;
  EXPECT_NE(starved.output.find("UNKNOWN: solver budget exhausted"),
            std::string::npos);
}

TEST(CliTest, DelayIgnorantBaselineMissesTheViolation) {
  const CliResult r = run_cli("check " + figure1() + " --delay-ignorant");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("UNSAT"), std::string::npos);
}

TEST(CliTest, PreciseMatchGenerationAgrees) {
  const CliResult r = run_cli("check " + figure1() + " --precise");
  EXPECT_EQ(r.exit_code, 1) << r.output;
}

TEST(CliTest, ExtraPropertyFlagIsConjoined) {
  // t1.C is always 30, so this extra property is violated in every
  // execution; the verdict must stay SAT even with --delay-ignorant.
  const CliResult r = run_cli("check " + figure1() +
                              " --delay-ignorant --property 't1.C == 0'");
  EXPECT_EQ(r.exit_code, 1) << r.output;
}

TEST(CliTest, BadPropertyFlagIsRejected) {
  const CliResult r = run_cli("check " + figure1() + " --property 'tX.A == 1'");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("bad --property"), std::string::npos);
}

TEST(CliTest, AssertPropsModeFindsCorrectExecution) {
  // Some execution satisfies A == 20 (the Figure-4a pairing), so asserting
  // the property instead of negating it is SAT as well.
  const CliResult r = run_cli("check " + figure1() + " --assert-props");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("SAT: a fully correct execution exists"),
            std::string::npos);
}

TEST(CliTest, EnumerateAgreesWithExplicitAndExposesMccGap) {
  const CliResult r = run_cli("enumerate " + figure1() + " --explicit --mcc");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("2 feasible pairing(s)"), std::string::npos);
  EXPECT_NE(r.output.find("agrees"), std::string::npos);
  EXPECT_NE(r.output.find("misses 1 behavior(s)"), std::string::npos);
}

TEST(CliTest, EnumerateHonoursTheStateBudget) {
  // One explicit state cannot enumerate figure1: both explicit runs stop
  // truncated, nothing is compared against them, and the exit is 3.
  const CliResult r =
      run_cli("enumerate " + figure1() + " --explicit --mcc --max-states 1");
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("ground truth: 0 pairing(s) (truncated)\n"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("baseline (no delay nondeterminism): 0 pairing(s) "
                          "(truncated)\n"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("agrees"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("MISMATCH"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("misses"), std::string::npos) << r.output;
}

TEST(CliTest, SmtDumpIsWellFormed) {
  const CliResult r = run_cli("smt " + figure1());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("(set-logic QF_IDL)"), std::string::npos);
  EXPECT_NE(r.output.find("(declare-fun"), std::string::npos);
  EXPECT_NE(r.output.find("(assert"), std::string::npos);
  EXPECT_NE(r.output.find("(check-sat)"), std::string::npos);
}

TEST(CliTest, FmtIsIdempotent) {
  const std::string tmp1 = testing::TempDir() + "/mcsym_fmt1.mcp";
  const std::string tmp2 = testing::TempDir() + "/mcsym_fmt2.mcp";
  const CliResult first = run_cli("fmt " + figure1() + " -o " + tmp1);
  ASSERT_EQ(first.exit_code, 0) << first.output;
  const CliResult second = run_cli("fmt " + tmp1 + " -o " + tmp2);
  ASSERT_EQ(second.exit_code, 0) << second.output;

  std::ifstream f1(tmp1), f2(tmp2);
  const std::string c1((std::istreambuf_iterator<char>(f1)),
                       std::istreambuf_iterator<char>());
  const std::string c2((std::istreambuf_iterator<char>(f2)),
                       std::istreambuf_iterator<char>());
  EXPECT_FALSE(c1.empty());
  EXPECT_EQ(c1, c2);
}

TEST(CliTest, ParseErrorsCarryLineNumbers) {
  const std::string bad = testing::TempDir() + "/mcsym_bad.mcp";
  {
    std::ofstream out(bad);
    out << "thread t\n  recv nowhere -> x\n";
  }
  const CliResult r = run_cli("check " + bad);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("line 2"), std::string::npos);
  EXPECT_NE(r.output.find("unknown endpoint"), std::string::npos);
}

TEST(CliTest, OutputFileFlagWritesFile) {
  const std::string tmp = testing::TempDir() + "/mcsym_trace.txt";
  const CliResult r = run_cli("trace " + figure1() + " -o " + tmp);
  EXPECT_EQ(r.exit_code, 0);
  std::ifstream in(tmp);
  ASSERT_TRUE(in.good());
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_FALSE(first_line.empty());
}

TEST(CliTest, SelectServerVerdictFollowsTheTracedWinner) {
  // Per-trace scope of the technique: the select property holds for every
  // execution consistent with a trace where A won, and is refuted from a
  // trace where B won.
  const std::string file = std::string(MCSYM_EXAMPLES_DIR) + "/select_server.mcp";
  const CliResult a_won = run_cli("check " + file + " --seed 1");
  EXPECT_EQ(a_won.exit_code, 0) << a_won.output;
  const CliResult b_won = run_cli("check " + file + " --seed 2");
  EXPECT_EQ(b_won.exit_code, 1) << b_won.output;

  const CliResult e = run_cli("enumerate " + file + " --seed 2 --explicit");
  EXPECT_EQ(e.exit_code, 0);
  EXPECT_NE(e.output.find("agrees"), std::string::npos);
}

TEST(CliTest, DiagnoseVerbExplainsPairings) {
  const CliResult feasible = run_cli(
      "diagnose " + figure1() + " --pair 't1:send#1 -> t0:recv#0'");
  EXPECT_EQ(feasible.exit_code, 0) << feasible.output;
  EXPECT_NE(feasible.output.find("feasible"), std::string::npos);

  const CliResult doubled = run_cli(
      "diagnose " + figure1() +
      " --pair 't2:send#0 -> t0:recv#0' --pair 't2:send#0 -> t0:recv#1'");
  EXPECT_EQ(doubled.exit_code, 1) << doubled.output;
  EXPECT_NE(doubled.output.find("uniqueness"), std::string::npos);

  const CliResult bad = run_cli("diagnose " + figure1() + " --pair 'nonsense'");
  EXPECT_EQ(bad.exit_code, 2);

  const CliResult none = run_cli("diagnose " + figure1());
  EXPECT_EQ(none.exit_code, 2);
  EXPECT_NE(none.output.find("at least one --pair"), std::string::npos);
}

TEST(CliTest, SolveRunsOnDumpedProblems) {
  const std::string tmp = testing::TempDir() + "/mcsym_dump.smt2";
  const CliResult dump = run_cli("smt " + figure1() + " -o " + tmp);
  ASSERT_EQ(dump.exit_code, 0) << dump.output;
  const CliResult solve = run_cli("solve " + tmp);
  EXPECT_EQ(solve.exit_code, 1) << solve.output;  // SAT (property negated)
  EXPECT_NE(solve.output.find("sat"), std::string::npos);
  EXPECT_NE(solve.output.find("clk_"), std::string::npos) << "model echoed";
}

// The `verify` exit-code contract: 0 = safe, 1 = violation or deadlock
// reachable, 2 = usage error, 3 = budget exhausted / no verdict. Scripts
// and CI gates key off these, so each code is pinned here.
TEST(CliTest, VerifyExitCodeContract) {
  // 0: figure1 has no in-program asserts, so the whole-program engines
  // prove it safe (the end-of-run property is symbolic-only).
  const CliResult safe = run_cli("verify " + figure1() + " --engine=explicit");
  EXPECT_EQ(safe.exit_code, 0) << safe.output;
  EXPECT_NE(safe.output.find("verdict: safe"), std::string::npos);

  // 1 (violation): the portfolio folds the symbolic property verdict in.
  const CliResult violation =
      run_cli("verify " + figure1() + " --engine=portfolio");
  EXPECT_EQ(violation.exit_code, 1) << violation.output;
  EXPECT_NE(violation.output.find("verdict: violation"), std::string::npos);

  // 1 (deadlock): a receive nothing ever feeds.
  const std::string stuck = testing::TempDir() + "/mcsym_stuck.mcp";
  {
    std::ofstream out(stuck);
    out << "thread t0\n  endpoint e0\n  recv e0 -> A\n";
  }
  const CliResult deadlock = run_cli("verify " + stuck + " --engine=dpor");
  EXPECT_EQ(deadlock.exit_code, 1) << deadlock.output;
  EXPECT_NE(deadlock.output.find("verdict: deadlock"), std::string::npos);
  EXPECT_NE(deadlock.output.find("deadlock schedule:"), std::string::npos);

  // `check` on a program whose recorded run deadlocks: the trace is a
  // prefix artifact, so instead of a bogus symbolic verdict (or a
  // misleading usage error) the CLI reports the concrete deadlock.
  const CliResult check_deadlock = run_cli("check " + stuck);
  EXPECT_EQ(check_deadlock.exit_code, 1) << check_deadlock.output;
  EXPECT_NE(check_deadlock.output.find("deadlock:"), std::string::npos);

  // 2: usage error (unknown engine).
  const CliResult usage = run_cli("verify " + figure1() + " --engine=bogus");
  EXPECT_EQ(usage.exit_code, 2);
  EXPECT_NE(usage.output.find("unknown engine"), std::string::npos);

  // 3: budget exhausted before a verdict.
  const CliResult budget =
      run_cli("verify " + figure1() + " --engine=explicit --max-states 1");
  EXPECT_EQ(budget.exit_code, 3) << budget.output;
  EXPECT_NE(budget.output.find("verdict: budget-exhausted"), std::string::npos);
}

TEST(CliTest, VerifyJsonEmitsTheReportContract) {
  const CliResult r =
      run_cli("verify " + figure1() + " --engine=portfolio --json");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("\"schema\": \"mcsym.verify/1\""), std::string::npos);
  EXPECT_NE(r.output.find("\"verdict\": \"violation\""), std::string::npos);
  EXPECT_NE(r.output.find("\"witness_schedule\": ["), std::string::npos);
  EXPECT_NE(r.output.find("\"portfolio\": {"), std::string::npos);
  // All four engines appear in the portfolio report.
  for (const char* engine : {"\"explicit\"", "\"dpor\"", "\"dpor-sleepset\"",
                             "\"symbolic\""}) {
    EXPECT_NE(r.output.find(engine), std::string::npos) << engine;
  }
}

TEST(CliTest, VerifyWorkersFlagShardsThePortfolio) {
  // --workers 4 runs the portfolio engines concurrently: same verdict, exit
  // code and report as the serial run, timing fields aside.
  const CliResult serial =
      run_cli("verify " + figure1() + " --engine=portfolio --workers 1 --json");
  const CliResult r =
      run_cli("verify " + figure1() + " --engine=portfolio --workers 4 --json");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("\"verdict\": \"violation\""), std::string::npos);
  EXPECT_EQ(mask_timing(r.output), mask_timing(serial.output));

  // The single DPOR engine agrees with the serial deadlock verdict.
  const std::string stuck = testing::TempDir() + "/mcsym_stuck_workers.mcp";
  {
    std::ofstream out(stuck);
    out << "thread t0\n  endpoint e0\n  recv e0 -> A\n";
  }
  const CliResult deadlock =
      run_cli("verify " + stuck + " --engine=dpor --workers 4");
  EXPECT_EQ(deadlock.exit_code, 1) << deadlock.output;
  EXPECT_NE(deadlock.output.find("verdict: deadlock"), std::string::npos);
}

TEST(CliTest, VerifyWorkersLeaveTheDporReportUnchanged) {
  // Optimal DPOR explores serially at every worker count, so --workers 4,
  // auto and its alias 0 all print the --workers 1 report (how set_option
  // resolves auto is pinned in service_test).
  const std::string verify = "verify " + figure1() + " --engine=dpor --json";
  const CliResult serial = run_cli(verify + " --workers 1");
  EXPECT_EQ(serial.exit_code, 0) << serial.output;
  EXPECT_NE(serial.output.find("\"verdict\": \"safe\""), std::string::npos);
  for (const char* flag : {"4", "auto", "0"}) {
    SCOPED_TRACE(flag);
    const CliResult r = run_cli(verify + " --workers " + flag);
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_EQ(mask_timing(r.output), mask_timing(serial.output));
  }
}

TEST(CliTest, SeedSelectsDifferentSchedules) {
  // Different seeds may record different traces, but verdicts must agree —
  // the encoding quantifies over all executions consistent with the trace.
  const CliResult a = run_cli("check " + figure1() + " --seed 1");
  const CliResult b = run_cli("check " + figure1() + " --seed 99");
  EXPECT_EQ(a.exit_code, 1);
  EXPECT_EQ(b.exit_code, 1);
}

TEST(CliTest, BatchVerifiesManifestWithSharedCache) {
  const std::string manifest = testing::TempDir() + "/mcsym_manifest.txt";
  {
    std::ofstream out(manifest);
    out << "# repeated entries share one verdict cache\n"
        << figure1() << "\n"
        << figure1() << "\n"
        << "/nonexistent/path.mcp\n";
  }
  const CliResult r = run_cli("verify " + manifest + " --batch");
  // Worst entry wins: the unreadable path dominates the two safe verdicts.
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("\"schema\":\"mcsym.batch/1\""), std::string::npos);
  // The second identical entry must be served from the cache.
  EXPECT_NE(r.output.find("\"cache_hit\":true"), std::string::npos);
  EXPECT_NE(r.output.find("\"cache_hits\":1"), std::string::npos);
  EXPECT_NE(r.output.find("cannot open"), std::string::npos);
  EXPECT_NE(r.output.find("\"summary\":true"), std::string::npos);

  // --no-cache turns hits off without changing verdicts or exit codes.
  const CliResult cold = run_cli("verify " + manifest + " --batch --no-cache");
  EXPECT_EQ(cold.exit_code, 2);
  EXPECT_EQ(cold.output.find("\"cache_hit\":true"), std::string::npos);
}

TEST(CliTest, ServeAnswersRepeatsMalformedAndExhaustionWithoutExiting) {
  // One scripted session exercises the whole protocol: a fresh request, a
  // repeat (cache hit), an unknown command, a bad header, an unparseable
  // program, a starved budget — the loop must answer each and only exit
  // at `quit`, with code 0.
  std::ifstream example(figure1());
  ASSERT_TRUE(example.good());
  const std::string program((std::istreambuf_iterator<char>(example)),
                            std::istreambuf_iterator<char>());
  const std::string requests = testing::TempDir() + "/mcsym_serve_in.txt";
  {
    std::ofstream out(requests);
    out << "verify id=first\n" << program << ".\n";
    out << "verify id=again\n" << program << ".\n";
    out << "bogus\n";
    out << "verify not-an-option\n" << program << ".\n";
    out << "verify id=broken\nthread t0\n  garbage\n.\n";
    out << "verify id=starved max-transitions=1\n" << program << ".\n";
    out << "stats\n";
    out << "quit\n";
  }
  const CliResult r = run_cli("serve < " + requests);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"schema\":\"mcsym.serve/1\""), std::string::npos);
  EXPECT_NE(r.output.find("\"id\":\"first\",\"ok\":true"), std::string::npos);
  // The repeat is a cache hit; the starved request (different budget =
  // different key) is answered with exit 3 and does not kill the server.
  EXPECT_NE(r.output.find("\"id\":\"again\",\"ok\":true,"), std::string::npos);
  EXPECT_NE(r.output.find("\"cache_hit\":true"), std::string::npos);
  EXPECT_NE(r.output.find("unknown command 'bogus'"), std::string::npos);
  EXPECT_NE(r.output.find("malformed option 'not-an-option'"),
            std::string::npos);
  EXPECT_NE(r.output.find("\"id\":\"broken\",\"ok\":false"), std::string::npos);
  EXPECT_NE(r.output.find("\"verdict\":\"budget-exhausted\""),
            std::string::npos);
  EXPECT_NE(r.output.find("\"exit\":3"), std::string::npos);
  EXPECT_NE(r.output.find("\"stats\":true"), std::string::npos);
  // The stats line counts exactly one hit and the three engine runs.
  EXPECT_NE(r.output.find("\"cache_hits\":1"), std::string::npos);
}

TEST(CliTest, ServeTimeoutCancelsViaTheProgressPath) {
  // A sub-microsecond timeout cancels even figure1: the reply must be a
  // budget-exhausted envelope (exit 3), and the server must keep serving.
  std::ifstream example(figure1());
  const std::string program((std::istreambuf_iterator<char>(example)),
                            std::istreambuf_iterator<char>());
  const std::string requests = testing::TempDir() + "/mcsym_serve_to.txt";
  {
    std::ofstream out(requests);
    out << "verify id=t1 timeout=0.0000001 engine=portfolio traces=3\n"
        << program << ".\n";
    out << "verify id=t2\n" << program << ".\n";
    out << "quit\n";
  }
  const CliResult r = run_cli("serve < " + requests);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"id\":\"t1\""), std::string::npos);
  EXPECT_NE(r.output.find("\"cancelled\":true"), std::string::npos);
  EXPECT_NE(r.output.find("\"id\":\"t2\",\"ok\":true"), std::string::npos);
}

TEST(CliTest, RequestOptionValuesAreValidated) {
  // Request options share the service's option table with serve headers:
  // a malformed number is a usage error (exit 2), never a wrapped value.
  for (const char* bad : {"--traces -1", "--seed abc", "--workers=4x",
                          "--max-seconds -3", "--state-capacity 1e3"}) {
    SCOPED_TRACE(bad);
    const CliResult r =
        run_cli("verify " + figure1() + " --engine=symbolic " + bad);
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("bad value"), std::string::npos) << r.output;
  }
  // --timeout works on the command line as it does in a serve header.
  const CliResult timed = run_cli("verify " + figure1() +
                                  " --engine=portfolio --traces 3 "
                                  "--timeout 0.0000001");
  EXPECT_EQ(timed.exit_code, 3) << timed.output;
  EXPECT_NE(timed.output.find("(cancelled)"), std::string::npos)
      << timed.output;
}

std::string livelock() {
  return std::string(MCSYM_EXAMPLES_DIR) + "/livelock.mcp";
}

TEST(CliTest, VerifyStatefulClassifiesTheLivelock) {
  // Stateless explicit: a vacuous "safe" (exit 0) — the engine fingerprint-
  // prunes the spin states without classifying the infinite behavior.
  const CliResult vacuous =
      run_cli("verify " + livelock() + " --engine=explicit");
  EXPECT_EQ(vacuous.exit_code, 0) << vacuous.output;
  EXPECT_NE(vacuous.output.find("verdict: safe"), std::string::npos);

  // --stateful: non-termination verdict, exit code 4, and the lasso witness
  // both in the text summary and the JSON report (with the store counters).
  const CliResult r = run_cli("verify " + livelock() +
                              " --engine=explicit --stateful --json");
  EXPECT_EQ(r.exit_code, 4) << r.output;
  EXPECT_NE(r.output.find("\"verdict\": \"non-termination\""),
            std::string::npos);
  EXPECT_NE(r.output.find("\"lasso_stem\": ["), std::string::npos);
  EXPECT_NE(r.output.find("\"lasso_cycle\": ["), std::string::npos);
  EXPECT_NE(r.output.find("\"state_hits\""), std::string::npos);
  EXPECT_NE(r.output.find("\"cycles_found\""), std::string::npos);

  const CliResult text =
      run_cli("verify " + livelock() + " --engine=explicit --stateful");
  EXPECT_EQ(text.exit_code, 4) << text.output;
  EXPECT_NE(text.output.find("non-termination lasso:"), std::string::npos);
}

TEST(CliTest, VerifyStateCapacityImpliesStatefulOnTheDefaultEngine) {
  // --state-capacity alone turns stateful mode on; the default (DPOR)
  // engine classifies the livelock the same way.
  const CliResult r = run_cli("verify " + livelock() + " --state-capacity 64");
  EXPECT_EQ(r.exit_code, 4) << r.output;
  EXPECT_NE(r.output.find("verdict: non-termination"), std::string::npos);
}

TEST(CliTest, EnumerateAndSmtRefuseTheLivelockTrace) {
  // The recorded run spins until the step limit, leaving each recv_i
  // without its wait. Both trace tools refuse it as `check` does: a
  // diagnostic and the input-error exit, not an abort.
  for (const char* command : {"enumerate ", "smt "}) {
    const CliResult r = run_cli(command + livelock());
    EXPECT_EQ(r.exit_code, 2) << command << r.output;
    EXPECT_NE(r.output.find("mcsym: recorded execution hit the step limit"),
              std::string::npos)
        << command << r.output;
    EXPECT_EQ(r.output.find("assertion failed"), std::string::npos)
        << command << r.output;
  }
}

TEST(CliTest, DiagnoseRefusesAStepLimitedTrace) {
  // b posts a recv_i and spins forever before its wait, so the recorded
  // run hits the step limit with the receive unfinished. `diagnose`
  // refuses it like `smt` and `enumerate` do instead of aborting on the
  // incomplete trace.
  const std::string file = testing::TempDir() + "/mcsym_step_limited.mcp";
  {
    std::ofstream out(file);
    out << "program step_limited\n\n"
           "thread a\n  endpoint ea\n  send ea -> eb : 7\n\n"
           "thread b\n  endpoint eb\n  recv_i eb -> x req 0\n  label spin\n"
           "  assign z = 1\n  if z == 1 goto spin\n  wait 0\n";
  }
  const CliResult r = run_cli("diagnose " + file + " --pair 'a:send#0 -> b:recv#0'");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("recorded execution hit the step limit"),
            std::string::npos)
      << r.output;
}

TEST(CliTest, BatchRanksNonTerminationBetweenViolationAndBudget) {
  const std::string manifest = testing::TempDir() + "/mcsym_manifest_nt.txt";
  {
    std::ofstream out(manifest);
    out << figure1() << "\n" << livelock() << "\n";
  }
  // Safe (figure1 under explicit) + non-termination (livelock): worst wins.
  const CliResult r =
      run_cli("verify " + manifest + " --batch --engine=explicit --stateful");
  EXPECT_EQ(r.exit_code, 4) << r.output;
  EXPECT_NE(r.output.find("\"verdict\":\"non-termination\",\"exit\":4"),
            std::string::npos);
  EXPECT_NE(r.output.find("\"verdict\":\"safe\",\"exit\":0"),
            std::string::npos);
}

TEST(CliTest, ServeStatefulOptionAndVerdictCache) {
  std::ifstream example(livelock());
  ASSERT_TRUE(example.good());
  const std::string program((std::istreambuf_iterator<char>(example)),
                            std::istreambuf_iterator<char>());
  const std::string requests = testing::TempDir() + "/mcsym_serve_nt.txt";
  {
    std::ofstream out(requests);
    // Same program with and without stateful=1: different cache keys,
    // different verdicts. The repeat must hit the cache — non-termination
    // is a definitive (cacheable) verdict.
    out << "verify id=nt1 stateful=1 engine=explicit\n" << program << ".\n";
    out << "verify id=nt2 stateful=1 engine=explicit\n" << program << ".\n";
    out << "verify id=plain engine=explicit\n" << program << ".\n";
    out << "quit\n";
  }
  const CliResult r = run_cli("serve < " + requests);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"id\":\"nt1\""), std::string::npos);
  EXPECT_NE(r.output.find("\"verdict\":\"non-termination\",\"exit\":4"),
            std::string::npos);
  EXPECT_NE(r.output.find("\"id\":\"nt2\",\"ok\":true"), std::string::npos);
  EXPECT_NE(r.output.find("\"cache_hit\":true"), std::string::npos);
  EXPECT_NE(r.output.find("\"id\":\"plain\",\"ok\":true"), std::string::npos);
  EXPECT_NE(r.output.find("\"verdict\":\"safe\",\"exit\":0"),
            std::string::npos);
}

TEST(CliTest, ServeJsonOptionAppendsTheReport) {
  std::ifstream example(figure1());
  const std::string program((std::istreambuf_iterator<char>(example)),
                            std::istreambuf_iterator<char>());
  const std::string requests = testing::TempDir() + "/mcsym_serve_json.txt";
  {
    std::ofstream out(requests);
    out << "verify id=j1 json=1\n" << program << ".\nquit\n";
  }
  const CliResult r = run_cli("serve < " + requests);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"schema\": \"mcsym.verify/1\""),
            std::string::npos)
      << r.output;
}

}  // namespace
