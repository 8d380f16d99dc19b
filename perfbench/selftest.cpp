// Self-test of the benchmark's own code: percentile and tail rules, the
// quiet-slice filter, input fingerprints, the known-answer judge, and span
// self-time arithmetic.
// Run with `python3 perfbench/run.py --selftest`; exits nonzero on failure.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_stats.hpp"
#include "check/workloads.hpp"
#include "text/program_text.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using mcsym::check::Verdict;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void test_percentiles() {
  const auto v = one_to(100);
  expect(near(percentile(v, 50), 50), "p50 of 1..100 is 50 (nearest rank)");
  expect(near(percentile(v, 99), 99), "p99 of 1..100 is 99");
  expect(near(percentile(v, 100), 100), "p100 is the maximum");
  expect(near(percentile(one_to(1), 50), 1), "p50 of one sample is that sample");
  expect(near(percentile({}, 50), 0), "empty sample gives 0");
  expect(samples_beyond(100, 90) == 10, "10 of 100 samples lie beyond p90");
  expect(samples_beyond(1000, 99) == 10, "10 of 1000 samples lie beyond p99");
}

void test_tail() {
  Tail t = tail_of(one_to(1000));
  expect(near(t.percentile, 99) && near(t.value, 990) && t.beyond == 10 &&
             t.samples == 1000,
         "1000 samples: tail is p99 = 990 with 10 beyond");
  t = tail_of(one_to(999));
  expect(near(t.percentile, 95) && t.beyond >= 10,
         "999 samples: p99 has 9 beyond, so the tail drops to p95");
  t = tail_of(one_to(200));
  expect(near(t.percentile, 95) && t.beyond == 10, "200 samples: tail is p95");
  t = tail_of(one_to(100000));
  expect(near(t.percentile, 99), "the ladder stops at p99");
  t = tail_of(one_to(15));
  expect(near(t.percentile, 50), "too few samples: tail falls back to p50");
  t = tail_of(one_to(100000), 95);
  expect(near(t.percentile, 95) && near(t.value, 95000),
         "a p95 ceiling holds the tail at p95 however many samples");
  t = tail_of(one_to(150), 95);
  expect(near(t.percentile, 90) && t.beyond == 15,
         "below the ceiling the ladder still needs 10 samples beyond");
}

void test_quiet_slices() {
  const auto q = quiet_slices({1, 1, 1, 2, 1, 1});
  expect(q == std::vector<bool>({true, true, false, false, true}),
         "a slice next to a slow probe is not quiet");
  const auto slow = quiet_slices({2, 2, 2, 2});
  expect(slow == std::vector<bool>(3, true),
         "an evenly slow run keeps every slice");
  const auto mostly = quiet_slices({1, 1, 3, 3, 3, 3, 3, 3, 3});
  std::size_t kept = 0;
  for (bool b : mostly) kept += b ? 1 : 0;
  expect(kept * 4 >= mostly.size(), "at least a quarter of the slices is kept");
  expect(reference_probe() > 0, "the reference probe takes measurable time");
  // Set-ups 2 and 4 ran next to a slow probe; the median is over 1, 3, 5.
  QuietMedian m = quiet_median({0.10, 0.30, 0.12, 0.40, 0.11},
                               {1.0, 2.0, 1.0, 1.0, 1.1}, {1.0, 1.0, 1.05, 2.0, 1.0}, 1.0);
  expect(m.kept == 3 && near(m.value, 0.11), "set-ups beside a slow probe are left out");
  m = quiet_median({0.3, 0.1}, {2, 2}, {2, 2}, 1.0);
  expect(m.kept == 2 && near(m.value, 0.2), "no quiet set-up: the median of all");
}

void test_fingerprints() {
  const Workload a = make_workload(WorkloadKind::kDporParallel, 7, "examples");
  const Workload b = make_workload(WorkloadKind::kDporParallel, 7, "examples");
  const Workload c = make_workload(WorkloadKind::kDporParallel, 8, "examples");
  expect(input_fingerprint(a, 500) == input_fingerprint(b, 500),
         "same seed, same input fingerprint");
  expect(input_fingerprint(a, 500) != input_fingerprint(c, 500),
         "different seed, different input fingerprint");
  const Workload d = make_workload(WorkloadKind::kSymbolicTraces, 3, "examples");
  const Workload e = make_workload(WorkloadKind::kSymbolicTraces, 4, "examples");
  expect(input_fingerprint(d, 500) != input_fingerprint(e, 500),
         "different seed draws different random programs");
  const Workload replayed =
      make_workload(WorkloadKind::kSymbolicTraces, 3, "examples", &d.draws);
  expect(!d.draws.empty() && replayed.draws == d.draws &&
             input_fingerprint(replayed, 500) == input_fingerprint(d, 500),
         "regenerating from the chosen draws rebuilds the same inputs");
  Fingerprint f, g;
  f.mix("ab");
  f.mix("c");
  g.mix("a");
  g.mix("bc");
  expect(f.value() != g.value(), "fingerprint separates fields");
}

void test_oracle() {
  Workload w = make_workload(WorkloadKind::kDporParallel, 1, "examples");
  const KnownAnswer mr33 = known_answer(w.inputs[2]);
  expect(mr33.decided && mr33.verdict == Verdict::kSafe &&
             mr33.executions == 1680u,
         "message_race(3,3): safe with 1680 = 9!/(3!)^3 executions");
  expect(judge(mr33, Verdict::kSafe, 1680).empty(), "the right answer passes");
  expect(!judge(mr33, Verdict::kViolation, 1680).empty(),
         "a wrong verdict is flagged");
  expect(!judge(mr33, Verdict::kSafe, 1679).empty(),
         "a wrong execution count is flagged");
  expect(!judge(mr33, Verdict::kBudgetExhausted, std::nullopt).empty(),
         "budget exhaustion is a failure");
  Input fig;
  fig.name = "figure1 with an assertion";
  auto f = mcsym::check::workloads::figure1_with_property();
  fig.program = std::move(f.program);
  const KnownAnswer explicit_answer = known_answer(fig);
  expect(explicit_answer.decided &&
             explicit_answer.verdict == Verdict::kViolation,
         "explicit reference: figure1's assertion A == Y is violated");
  expect(!judge(explicit_answer, Verdict::kSafe, std::nullopt).empty(),
         "a safe verdict on a violating program is flagged");
  const KnownAnswer undecided;
  expect(!judge(undecided, Verdict::kSafe, std::nullopt).empty(),
         "an input without a known answer never counts as correct");
}

void test_rename() {
  const std::string src =
      "program p\nthread a\n  endpoint e\n  recv e -> x\n"
      "property \"x seen\" a.x == 1\n";
  const std::string r = alpha_rename(src, 5);
  expect(r != src, "renaming changes the spelling");
  expect(r.find("\"x seen\"") != std::string::npos, "quoted labels are kept");
  const auto parsed = mcsym::text::parse_program(r);
  expect(parsed.ok(), "the renamed text still parses");
}

void test_self_time() {
  // request [0,10] -> a [1,4] -> a.1 [2,3]; request -> b [5,9].
  std::vector<Span> spans = {
      {"request", 0, 10, -1, 7}, {"a", 1, 4, 0, 7}, {"a.1", 2, 3, 1, 7},
      {"b", 5, 9, 0, 7}};
  const auto self = self_times(spans);
  expect(near(self[0], 3), "request self = 10 - 3 - 4");
  expect(near(self[1], 2), "a self = 3 - 1");
  expect(near(self[2], 1) && near(self[3], 4), "leaves keep their duration");
  spans.push_back({"a", 11, 12, -1, 8});
  const auto by_name = self_time_by_name(spans);
  expect(near(by_name.at("a"), 3), "self time sums per name");
  SpanRecorder rec;
  rec.open("outer", 1);
  rec.open("inner", 1);
  rec.close();
  rec.close();
  expect(rec.spans()[1].parent == 0 && rec.spans()[0].parent == -1 &&
             rec.spans()[1].request == 1,
         "recorder nests spans and tags the request");
}

}  // namespace

int main() {
  test_percentiles();
  test_tail();
  test_quiet_slices();
  test_fingerprints();
  test_oracle();
  test_rename();
  test_self_time();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
