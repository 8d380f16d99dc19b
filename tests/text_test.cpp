// Program text format: parsing, printing, diagnostics, and the roundtrip
// guarantees (print is a fixed point; parsed programs behave identically to
// their builder-constructed originals).
#include <gtest/gtest.h>

#include <string>

#include "check/random_program.hpp"
#include "support/rng.hpp"
#include "check/symbolic_checker.hpp"
#include "check/workloads.hpp"
#include "mcapi/executor.hpp"
#include "text/program_text.hpp"
#include "trace/trace.hpp"

namespace mcsym::text {
namespace {

constexpr const char* kFigure1 = R"(
# The paper's Figure 1.
program figure1

thread t0
  endpoint e0
  recv e0 -> A
  recv e0 -> B

thread t1
  endpoint e1
  recv e1 -> C
  send e1 -> e0 : 10

thread t2
  endpoint e2
  send e2 -> e0 : 20
  send e2 -> e1 : 30
)";

trace::Trace record(const mcapi::Program& p, std::uint64_t seed) {
  mcapi::System sys(p);
  trace::Trace tr(p);
  trace::Recorder rec(tr);
  mcapi::RandomScheduler sched(seed);
  const auto r = mcapi::run(sys, sched, &rec);
  // Assertion violations are fine (several workloads carry racy asserts on
  // purpose); only hangs would invalidate the comparison.
  EXPECT_NE(r.outcome, mcapi::RunResult::Outcome::kDeadlock);
  EXPECT_NE(r.outcome, mcapi::RunResult::Outcome::kStepLimit);
  return tr;
}

TEST(ProgramTextTest, ParsesFigure1) {
  const ParseOutcome out = parse_program(kFigure1);
  ASSERT_TRUE(out.ok()) << out.error_text();
  EXPECT_EQ(out.parsed->name, "figure1");
  const mcapi::Program& p = out.parsed->program;
  EXPECT_EQ(p.num_threads(), 3u);
  EXPECT_EQ(p.num_endpoints(), 3u);
  EXPECT_EQ(p.thread(0).name, "t0");
  EXPECT_EQ(p.thread(0).code.size(), 2u);
  EXPECT_EQ(p.thread(1).code.size(), 2u);
  EXPECT_EQ(p.endpoint(0).owner, 0u);
  EXPECT_EQ(p.endpoint(1).owner, 1u);
}

TEST(ProgramTextTest, ParsedFigure1HasTwoMatchings) {
  const ParseOutcome out = parse_program(kFigure1);
  ASSERT_TRUE(out.ok()) << out.error_text();
  const trace::Trace tr = record(out.parsed->program, 7);
  check::SymbolicChecker checker(tr);
  EXPECT_EQ(checker.enumerate_matchings().matchings.size(), 2u);
}

TEST(ProgramTextTest, ParsedFigure1MatchesBuilderTwin) {
  const ParseOutcome out = parse_program(kFigure1);
  ASSERT_TRUE(out.ok()) << out.error_text();
  const mcapi::Program builder = check::workloads::figure1();

  const trace::Trace from_text = record(out.parsed->program, 11);
  const trace::Trace from_builder = record(builder, 11);
  EXPECT_EQ(from_text.to_text(), from_builder.to_text());
}

TEST(ProgramTextTest, ControlFlowRoundtripsAndRuns) {
  const char* source = R"(
thread looper
  endpoint in
  assign x = 0
  label top
  assign x = x + 1
  if x < 3 goto top
  assert x == 3

thread feeder
  endpoint out
  send out -> in : 99
)";
  // The message is never received: sends are non-blocking, so this still
  // terminates (one in-transit message at exit) and the assert holds.
  const ParseOutcome out = parse_program(source);
  ASSERT_TRUE(out.ok()) << out.error_text();

  mcapi::System sys(out.parsed->program);
  mcapi::RoundRobinScheduler sched;
  const auto r = mcapi::run(sys, sched, nullptr);
  EXPECT_TRUE(r.completed());
  EXPECT_FALSE(sys.has_violation());

  const std::string text1 = program_to_text(out.parsed->program);
  const ParseOutcome again = parse_program(text1);
  ASSERT_TRUE(again.ok()) << again.error_text();
  EXPECT_EQ(program_to_text(again.parsed->program), text1);
}

TEST(ProgramTextTest, NonblockingFormsParse) {
  const char* source = R"(
thread rx
  endpoint ep
  recv_i ep -> a req 0
  recv_i ep -> b req 1
  wait 1
  wait 0
  assert a != b

thread tx
  endpoint src
  send src -> ep : 1
  send src -> ep : 2
)";
  const ParseOutcome out = parse_program(source);
  ASSERT_TRUE(out.ok()) << out.error_text();
  const auto& code = out.parsed->program.thread(0).code;
  ASSERT_EQ(code.size(), 5u);
  EXPECT_EQ(code[0].kind, mcapi::OpKind::kRecvNb);
  EXPECT_EQ(code[0].req, 0u);
  EXPECT_EQ(code[2].kind, mcapi::OpKind::kWait);
  EXPECT_EQ(code[2].req, 1u);
  EXPECT_EQ(out.parsed->program.thread(0).num_requests, 2u);
}

TEST(ProgramTextTest, NegativeConstantsAndOffsets) {
  const char* source = R"(
thread t
  endpoint e
  assign x = -5
  assign y = x + 3
  assign z = y - 7
  assert z == -9
)";
  const ParseOutcome out = parse_program(source);
  ASSERT_TRUE(out.ok()) << out.error_text();
  mcapi::System sys(out.parsed->program);
  mcapi::RoundRobinScheduler sched;
  (void)mcapi::run(sys, sched, nullptr);
  EXPECT_FALSE(sys.has_violation()) << "-5 + 3 - 7 == -9";
}

TEST(ProgramTextTest, PropertiesParseWithLabelsAndOffsets) {
  const std::string source = std::string(kFigure1) +
                             "property \"A saw Y\" t0.A == 20\n"
                             "property t0.B - 10 != t1.C\n";
  const ParseOutcome out = parse_program(source);
  ASSERT_TRUE(out.ok()) << out.error_text();
  ASSERT_EQ(out.parsed->properties.size(), 2u);
  EXPECT_EQ(out.parsed->properties[0].label, "A saw Y");
  EXPECT_TRUE(out.parsed->properties[0].lhs.is_var);
  EXPECT_EQ(out.parsed->properties[0].rhs.k, 20);
  EXPECT_EQ(out.parsed->properties[1].lhs.k, -10);
  EXPECT_EQ(out.parsed->properties[1].rel, mcapi::Rel::kNe);
  EXPECT_EQ(out.parsed->properties[1].label, "t0.B - 10 != t1.C");
}

// --- Diagnostics ---------------------------------------------------------------

testing::AssertionResult has_error(const ParseOutcome& out, std::string_view needle) {
  if (out.ok()) return testing::AssertionFailure() << "parse unexpectedly succeeded";
  for (const Diagnostic& d : out.diagnostics) {
    if (d.message.find(needle) != std::string::npos) {
      return testing::AssertionSuccess();
    }
  }
  return testing::AssertionFailure()
         << "no diagnostic contains '" << needle << "'; got:\n"
         << out.error_text();
}

TEST(ProgramTextErrorsTest, EmptyUnit) {
  EXPECT_TRUE(has_error(parse_program(""), "no 'thread' blocks"));
  EXPECT_TRUE(has_error(parse_program("# only a comment\n"), "no 'thread' blocks"));
}

TEST(ProgramTextErrorsTest, UnknownInstruction) {
  EXPECT_TRUE(has_error(parse_program("thread t\n  frobnicate e0\n"),
                        "unknown instruction 'frobnicate'"));
}

TEST(ProgramTextErrorsTest, UnknownEndpoint) {
  EXPECT_TRUE(has_error(parse_program("thread t\n  recv nowhere -> x\n"),
                        "unknown endpoint 'nowhere'"));
}

TEST(ProgramTextErrorsTest, ForeignEndpointOwnership) {
  const char* recv_foreign = R"(
thread a
  endpoint ea
thread b
  endpoint eb
  recv ea -> x
)";
  EXPECT_TRUE(has_error(parse_program(recv_foreign), "not owned by thread 'b'"));

  const char* send_foreign = R"(
thread a
  endpoint ea
thread b
  endpoint eb
  send ea -> eb : 1
)";
  EXPECT_TRUE(has_error(parse_program(send_foreign), "not owned by thread 'b'"));
}

TEST(ProgramTextErrorsTest, DuplicateNames) {
  EXPECT_TRUE(has_error(parse_program("thread t\nthread t\n"),
                        "duplicate thread name 't'"));
  // With bodies: the duplicate has no builder to receive its instructions.
  EXPECT_TRUE(has_error(parse_program("thread t\n  nop\nthread t\n  nop\n"),
                        "duplicate thread name 't'"));
  EXPECT_TRUE(has_error(parse_program("thread t\n  endpoint e\n  endpoint e\n"),
                        "duplicate endpoint name 'e'"));
  EXPECT_TRUE(has_error(
      parse_program("thread t\n  label l\n  label l\n"), "duplicate label 'l'"));
}

TEST(ProgramTextErrorsTest, UnknownLabel) {
  EXPECT_TRUE(has_error(parse_program("thread t\n  goto nowhere\n"),
                        "unknown label 'nowhere'"));
  EXPECT_TRUE(has_error(parse_program("thread t\n  assign x = 0\n  if x == 0 goto gone\n"),
                        "unknown label 'gone'"));
}

TEST(ProgramTextErrorsTest, InstructionOutsideThread) {
  EXPECT_TRUE(has_error(parse_program("recv e -> x\nthread t\n"),
                        "outside any thread block"));
}

TEST(ProgramTextErrorsTest, MalformedTokens) {
  EXPECT_TRUE(has_error(parse_program("thread t\n  assign x = \"oops\n"),
                        "unterminated string"));
  EXPECT_TRUE(has_error(parse_program("thread t\n  assign x = 1 ; 2\n"),
                        "unexpected character"));
  EXPECT_TRUE(has_error(parse_program("thread t\n  wait 99999999999999999999\n"),
                        "out of range"));
}

TEST(ProgramTextErrorsTest, TrailingTokens) {
  EXPECT_TRUE(has_error(parse_program("thread t\n  nop nop\n"), "trailing tokens"));
}

TEST(ProgramTextErrorsTest, DuplicateProgramHeader) {
  EXPECT_TRUE(has_error(parse_program("program a\nprogram b\nthread t\n"),
                        "duplicate 'program' header"));
}

TEST(ProgramTextErrorsTest, AllErrorsReportedWithLines) {
  const char* source = R"(thread t
  frobnicate
  recv nowhere -> x
)";
  const ParseOutcome out = parse_program(source);
  ASSERT_FALSE(out.ok());
  ASSERT_EQ(out.diagnostics.size(), 2u);
  EXPECT_EQ(out.diagnostics[0].line, 2u);
  EXPECT_EQ(out.diagnostics[1].line, 3u);
}

TEST(ProgramTextErrorsTest, PropertyDiagnostics) {
  const std::string base = kFigure1;
  EXPECT_TRUE(has_error(parse_program(base + "property tX.A == 1\n"),
                        "unknown thread 'tX'"));
  EXPECT_TRUE(has_error(parse_program(base + "property t0.bogus == 1\n"),
                        "no local named 'bogus'"));
  EXPECT_TRUE(has_error(parse_program(base + "property t0.A ==\n"), "operand"));
}

TEST(ProgramTextErrorsTest, StandaloneProperty) {
  const ParseOutcome base = parse_program(kFigure1);
  ASSERT_TRUE(base.ok());
  const mcapi::Program& p = base.parsed->program;

  const PropertyParseResult good = parse_property(p, "\"check\" t0.A == t0.B");
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.property->label, "check");
  EXPECT_TRUE(good.property->rhs.is_var);

  EXPECT_FALSE(parse_property(p, "t9.A == 1").ok());
  EXPECT_FALSE(parse_property(p, "t0.A").ok());
  EXPECT_FALSE(parse_property(p, "").ok());
  EXPECT_FALSE(parse_property(p, "t0.A == 1 extra").ok());
}

// A `property` line and --property share one parser: the same body gives
// the same property and the same diagnostic. Only the label rule differs:
// a line renders its operands, --property keeps the body text.
TEST(ProgramTextErrorsTest, PropertyLineAndStandaloneAgree) {
  const ParseOutcome base = parse_program(kFigure1);
  ASSERT_TRUE(base.ok());
  const mcapi::Program& p = base.parsed->program;

  const char* body = "t0.B-10 != -3";
  const ParseOutcome line =
      parse_program(std::string(kFigure1) + "property " + body + "\n");
  ASSERT_TRUE(line.ok()) << line.error_text();
  const PropertyParseResult standalone = parse_property(p, body);
  ASSERT_TRUE(standalone.ok());
  const encode::Property& a = line.parsed->properties.at(0);
  const encode::Property& b = *standalone.property;
  EXPECT_EQ(a.lhs.thread, b.lhs.thread);
  EXPECT_EQ(a.lhs.var, b.lhs.var);
  EXPECT_EQ(a.lhs.k, b.lhs.k);
  EXPECT_EQ(a.rel, b.rel);
  EXPECT_EQ(a.rhs.k, b.rhs.k);
  EXPECT_EQ(a.label, "t0.B - 10 != -3");
  EXPECT_EQ(b.label, body);

  for (const char* bad : {"tX.A == 1", "t0.bogus == 1", "t0.A ==",
                          "t0.A == 1 extra"}) {
    const ParseOutcome bad_line =
        parse_program(std::string(kFigure1) + "property " + bad + "\n");
    const PropertyParseResult bad_standalone = parse_property(p, bad);
    ASSERT_EQ(bad_line.diagnostics.size(), 1u) << bad;
    ASSERT_EQ(bad_standalone.diagnostics.size(), 1u) << bad;
    EXPECT_EQ(bad_line.diagnostics[0].message,
              bad_standalone.diagnostics[0].message)
        << bad;
  }
}

// --- Printer -------------------------------------------------------------------

TEST(ProgramPrinterTest, EscapesPropertyLabels) {
  const ParseOutcome base = parse_program(kFigure1);
  ASSERT_TRUE(base.ok());
  encode::Property prop = encode::make_property(
      "tricky \"quote\" and \\slash", encode::Operand::final_var(0, "A"),
      mcapi::Rel::kEq, encode::Operand::constant(1));

  const std::string text =
      program_to_text(base.parsed->program, {&prop, 1}, "esc");
  const ParseOutcome again = parse_program(text);
  ASSERT_TRUE(again.ok()) << again.error_text();
  ASSERT_EQ(again.parsed->properties.size(), 1u);
  EXPECT_EQ(again.parsed->properties[0].label, "tricky \"quote\" and \\slash");
}

class WorkloadRoundtripTest
    : public ::testing::TestWithParam<std::pair<const char*, mcapi::Program (*)()>> {};

TEST_P(WorkloadRoundtripTest, PrintIsAFixedPoint) {
  const auto& [name, make] = GetParam();
  const mcapi::Program original = make();
  const std::string text1 = program_to_text(original, {}, name);
  const ParseOutcome out = parse_program(text1);
  ASSERT_TRUE(out.ok()) << "workload " << name << ":\n" << out.error_text();
  EXPECT_EQ(out.parsed->name, name);
  const std::string text2 = program_to_text(out.parsed->program, {}, name);
  EXPECT_EQ(text1, text2) << "workload " << name;
}

TEST_P(WorkloadRoundtripTest, ParsedProgramBehavesIdentically) {
  const auto& [name, make] = GetParam();
  const mcapi::Program original = make();
  const ParseOutcome out = parse_program(program_to_text(original, {}, name));
  ASSERT_TRUE(out.ok()) << out.error_text();
  for (const std::uint64_t seed : {1ull, 42ull}) {
    const trace::Trace a = record(original, seed);
    const trace::Trace b = record(out.parsed->program, seed);
    EXPECT_EQ(a.to_text(), b.to_text()) << "workload " << name << " seed " << seed;
  }
}

mcapi::Program make_figure1() { return check::workloads::figure1(); }
mcapi::Program make_race() { return check::workloads::message_race(3, 2); }
mcapi::Program make_pipeline() { return check::workloads::pipeline(3, 2); }
mcapi::Program make_scatter() { return check::workloads::scatter_gather(3); }
mcapi::Program make_nb() { return check::workloads::nonblocking_gather(3); }
mcapi::Program make_ring() { return check::workloads::ring(4); }
mcapi::Program make_relay() { return check::workloads::relay_race(2); }
mcapi::Program make_window() { return check::workloads::nonblocking_window(); }
mcapi::Program make_reversed() { return check::workloads::reversed_waits(); }
mcapi::Program make_branchy() { return check::workloads::branchy_race(); }

INSTANTIATE_TEST_SUITE_P(
    Workloads, WorkloadRoundtripTest,
    ::testing::Values(std::pair{"figure1", &make_figure1},
                      std::pair{"message_race", &make_race},
                      std::pair{"pipeline", &make_pipeline},
                      std::pair{"scatter_gather", &make_scatter},
                      std::pair{"nonblocking_gather", &make_nb},
                      std::pair{"ring", &make_ring},
                      std::pair{"relay_race", &make_relay},
                      std::pair{"nonblocking_window", &make_window},
                      std::pair{"reversed_waits", &make_reversed},
                      std::pair{"branchy_race", &make_branchy}),
    [](const auto& param_info) { return std::string(param_info.param.first); });

class RandomRoundtripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomRoundtripTest, PrintParsePrintIsStable) {
  const std::uint64_t seed = GetParam();
  check::RandomProgramOptions opts;
  opts.allow_nonblocking = (seed % 2) == 0;
  const mcapi::Program p = check::random_program(seed, opts);
  const std::string text1 = program_to_text(p);
  const ParseOutcome out = parse_program(text1);
  ASSERT_TRUE(out.ok()) << "seed " << seed << ":\n" << out.error_text();
  EXPECT_EQ(program_to_text(out.parsed->program), text1) << "seed " << seed;

  const trace::Trace a = record(p, seed ^ 0xfeed);
  const trace::Trace b = record(out.parsed->program, seed ^ 0xfeed);
  EXPECT_EQ(a.to_text(), b.to_text()) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRoundtripTest,
                         ::testing::Range<std::uint64_t>(0, 20));

// Robustness: randomly mutated program text must never crash the parser —
// it either parses (the mutation was benign) or reports diagnostics.
class ParserFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzzTest, MutatedSourceNeverCrashes) {
  const std::uint64_t seed = GetParam();
  check::RandomProgramOptions opts;
  opts.allow_nonblocking = true;
  std::string source = program_to_text(check::random_program(seed, opts));

  support::Rng rng(seed ^ 0xf022);
  constexpr char kNoise[] = "#:->=.,\"x0 \n<>!+-";
  for (int round = 0; round < 200; ++round) {
    std::string mutated = source;
    const int edits = 1 + static_cast<int>(rng.below(4));
    for (int e = 0; e < edits && !mutated.empty(); ++e) {
      const std::size_t pos = rng.below(mutated.size());
      switch (rng.below(3)) {
        case 0: mutated.erase(pos, 1); break;
        case 1: mutated[pos] = kNoise[rng.below(sizeof kNoise - 1)]; break;
        default:
          mutated.insert(pos, 1, kNoise[rng.below(sizeof kNoise - 1)]);
          break;
      }
    }
    const ParseOutcome out = parse_program(mutated);
    if (out.ok()) {
      // Whatever parsed must re-print and re-parse cleanly.
      const std::string printed = program_to_text(out.parsed->program);
      EXPECT_TRUE(parse_program(printed).ok()) << "seed " << seed;
    } else {
      EXPECT_FALSE(out.diagnostics.empty()) << "seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace mcsym::text
