// The end-to-end benchmark harness: one closed-loop client sends the
// requests of one workload to mcsym, in process, one at a time, and prints
// every metric by name and unit; the last line is the JSON result.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--examples DIR] [--spans-out FILE]
//
// --trace 0 measures the end-to-end metrics. --trace 1 measures half the
// time untraced and half traced, and prints the per-layer metrics: spans
// recorded around the calls into each layer from this file, plus the
// counters mcsym exports in mcsym.verify/1. See README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_stats.hpp"
#include "check/service.hpp"
#include "check/verifier.hpp"
#include "check/witness_replay.hpp"
#include "mcapi/executor.hpp"
#include "mcapi/scheduler.hpp"
#include "text/program_text.hpp"
#include "trace/trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using mcsym::check::Engine;
using mcsym::check::Verdict;
using mcsym::check::VerifyReport;

constexpr int kSetups = 5;           // set-up repetitions; setup_s is their median
constexpr int kWarmupPasses = 3;     // passes over every input before timing
constexpr std::size_t kServeWarmup = 4000;  // requests that fill the cache
constexpr int kSpeedupRounds = 5;    // serial/w=2 pairs per input (traced run)
constexpr int kLayerRounds = 3;      // passes of the traced run's layer pass
constexpr double kTraceSlice = 0.5;  // seconds per untraced/traced slice
constexpr double kProbeInterval = 0.02;  // seconds between reference probes
/// The reference probe's time on a quiet host (its 10th percentile over a
/// run on the 4-vCPU Xeon VM the bounds were set on). Timings are reported
/// at this host speed: scaled by kProbeNominal / the run's own probe p10.
constexpr double kProbeNominal = 170e-6;

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// This process's peak resident set (VmHWM). getrusage's ru_maxrss would
/// also count the parent's footprint, which survives fork and exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile(v, 50);
}

/// Threads a request keeps busy: the most workers any input asks for.
unsigned busy_threads(const Workload& w) {
  unsigned n = 1;
  for (const Input& in : w.inputs) n = std::max(n, in.request.workers);
  return n;
}

/// What one request returned, kept for the known-answer check.
struct Outcome {
  std::uint32_t input = 0;
  Verdict verdict = Verdict::kUnknown;
  std::optional<std::uint64_t> executions;
  std::string error;  // parse failure
  bool operator==(const Outcome&) const = default;
};

/// The distinct outcomes of each input and how many requests returned
/// each: what the known-answer check judges. A few entries per input, so
/// the record does not grow with the number of requests.
struct Tally {
  struct Entry {
    Outcome outcome;
    std::uint64_t count = 0;
  };
  std::vector<std::vector<Entry>> by_input;
  std::uint64_t requests = 0;

  explicit Tally(std::size_t inputs) : by_input(inputs) {}
  void add(const Outcome& o) {
    ++requests;
    for (Entry& e : by_input[o.input]) {
      if (e.outcome == o) {
        ++e.count;
        return;
      }
    }
    by_input[o.input].push_back({o, 1});
  }
};

/// Per-layer accumulators of the traced run (README.md, "Per-layer").
struct Layers {
  // check/dpor: per request, and per distinct input for the counts.
  std::vector<double> dpor_run_ms;
  double dpor_seconds = 0;
  std::uint64_t dpor_request_transitions = 0;
  std::uint64_t executions = 0, transitions = 0, races = 0, wakeup_nodes = 0;
  // check/state_space (stateful inputs, per distinct input).
  std::uint64_t visited_states = 0, state_hits = 0, cycles_found = 0;
  // check/dpor_parallel: sums over requests.
  std::uint64_t steals = 0, claim_conflicts = 0, steal_failures = 0;
  std::uint64_t duplicates = 0, parallel_executions = 0, max_replay_depth = 0;
  double cpu_per_wall = 0;
  double speedup_w2 = 0;
  // symbolic: per request timings, per distinct input counts.
  std::vector<double> matchgen_ms, encode_ms, solve_ms;
  std::uint64_t pairs = 0, constraints = 0, conflicts = 0, solver_calls = 0;
  std::uint64_t traces_recorded = 0, traces_skipped = 0;
  // serve.
  double hit_ratio = 0;
  std::uint64_t evictions = 0;
  std::vector<bool> seen;  // distinct inputs already counted
};

/// One set-up: the workload's inputs, its request stream, and the
/// in-process service or verifier the client talks to.
class Runner {
 public:
  Runner(WorkloadKind kind, std::uint64_t seed, const std::string& examples,
         const std::vector<std::uint64_t>& draws)
      : workload_(make_workload(kind, seed, examples, &draws)),
        stream_(workload_),
        service_(mcsym::check::VerifierService::Options{workload_.cache_capacity}) {}
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  const Workload& workload() const { return workload_; }
  RequestStream& stream() { return stream_; }
  const mcsym::check::VerifierService& service() const { return service_; }

  /// Warms caches and the allocator: every input kWarmupPasses times, and
  /// for serve_mixed enough traffic to bring the verdict cache to its
  /// steady mix of hits and evictions.
  void warm_up() {
    for (int pass = 0; pass < kWarmupPasses; ++pass) {
      for (std::uint32_t i = 0; i < workload_.inputs.size(); ++i) {
        (void)serve({i, false}, nullptr, 0, nullptr);
      }
    }
    if (workload_.kind == WorkloadKind::kServeMixed) {
      for (std::size_t i = 0; i < kServeWarmup; ++i) {
        (void)serve(stream_.next(), nullptr, 0, nullptr);
      }
    }
  }

  /// Sends one request and waits for its verdict. With `spans` set, the
  /// request is traced and `layers` accumulates the per-layer numbers.
  Outcome serve(const Request& r, SpanRecorder* spans, std::uint64_t id,
                Layers* layers);

  /// Traced run, dpor_parallel: geometric mean over inputs of serial time
  /// over w=2 time, medians of interleaved pairs.
  double speedup_w2();

  /// Traced run: the layer calls a request makes inside the service or the
  /// symbolic checker (parse, cache key, report serialization; trace
  /// recording, witness replay), timed on their own over every input,
  /// kLayerRounds times. They run apart from the traced requests so that
  /// they neither slow those requests down nor warm caches for them.
  void layer_pass(SpanRecorder& spans, std::uint64_t first_id);

 private:
  Outcome serve_source(const Request& r, SpanRecorder* spans, std::uint64_t id);

  Workload workload_;
  RequestStream stream_;
  mcsym::check::VerifierService service_;
  mcsym::check::Verifier verifier_;
};

void count_dpor(const Input& in, const VerifyReport& report, Layers& l,
                bool first) {
  for (const auto& run : report.engines) {
    if (run.engine != Engine::kDporOptimal) continue;
    l.dpor_run_ms.push_back(run.seconds * 1e3);
    l.dpor_seconds += run.seconds;
  }
  l.dpor_request_transitions += report_counter(report, "transitions");
  if (in.request.workers > 1) {
    l.steals += report_counter(report, "steals");
    l.claim_conflicts += report_counter(report, "claim_conflicts");
    l.steal_failures += report_counter(report, "steal_failures");
    l.duplicates += report_counter(report, "parallel_duplicates");
    l.parallel_executions += report_counter(report, "executions");
    l.max_replay_depth =
        std::max(l.max_replay_depth, report_counter(report, "max_replay_depth"));
  }
  if (!first) return;
  l.executions += report_counter(report, "executions");
  l.transitions += report_counter(report, "transitions");
  l.races += report_counter(report, "races_detected");
  l.wakeup_nodes += report_counter(report, "wakeup_nodes");
  l.visited_states += report_counter(report, "visited_states");
  l.state_hits += report_counter(report, "state_hits");
  l.cycles_found += report_counter(report, "cycles_found");
}

void count_symbolic(const VerifyReport& report, Layers& l, bool first) {
  double matchgen = 0, encode = 0, solve = 0;
  for (const auto& tc : report.trace_checks) {
    matchgen += tc.verdict.matchgen_seconds;
    encode += tc.verdict.encode_seconds;
    solve += tc.verdict.solve_seconds;
  }
  l.matchgen_ms.push_back(matchgen * 1e3);
  l.encode_ms.push_back(encode * 1e3);
  l.solve_ms.push_back(solve * 1e3);
  if (!first) return;
  l.pairs += report_counter(report, "match_disjuncts");
  l.constraints +=
      report_counter(report, "unique_constraints") + report_counter(report, "fifo_constraints");
  l.conflicts += report_counter(report, "conflicts");
  l.solver_calls += report_counter(report, "solver_calls");
  l.traces_recorded += report_counter(report, "traces_recorded");
  l.traces_skipped += report_counter(report, "traces_skipped");
}

Outcome Runner::serve(const Request& r, SpanRecorder* spans, std::uint64_t id,
                      Layers* layers) {
  if (workload_.kind == WorkloadKind::kServeMixed) {
    return serve_source(r, spans, id);
  }
  const Input& in = workload_.inputs[r.input];
  Outcome out;
  out.input = r.input;
  ScopedSpan request(spans, "request", id);
  VerifyReport report;
  {
    ScopedSpan span(spans, "verifier.verify", id);
    report = verifier_.verify(in.program, in.request);
  }
  out.verdict = report.verdict;
  if (in.request.engine == Engine::kDporOptimal) {
    out.executions = report_counter(report, "executions");
  }
  if (layers != nullptr) {
    const bool first = !layers->seen[r.input];
    layers->seen[r.input] = true;
    if (in.request.engine == Engine::kSymbolic) {
      count_symbolic(report, *layers, first);
    } else {
      count_dpor(in, report, *layers, first);
    }
  }
  return out;
}

Outcome Runner::serve_source(const Request& r, SpanRecorder* spans,
                             std::uint64_t id) {
  const Input& in = workload_.inputs[r.input];
  const std::string& text = r.renamed ? in.renamed : in.source;
  Outcome out;
  out.input = r.input;
  ScopedSpan request(spans, "request", id);
  const std::size_t call = spans ? spans->open("service.verify_source", id) : 0;
  const auto reply = service_.verify_source(text, in.request);
  out.verdict = reply.verdict;
  if (!reply.ok) out.error = reply.error;
  if (spans != nullptr) {
    spans->close();
    // Named by path once known, so hit and miss latencies separate.
    spans->rename(call, reply.cache_hit ? "service.hit" : "service.miss");
  }
  return out;
}

double Runner::speedup_w2() {
  double log_sum = 0;
  for (const Input& in : workload_.inputs) {
    std::vector<double> serial, parallel;
    for (int round = 0; round < kSpeedupRounds; ++round) {
      auto req = in.request;
      req.workers = 1;
      double t0 = now_seconds();
      (void)verifier_.verify(in.program, req);
      serial.push_back(now_seconds() - t0);
      req.workers = 2;
      t0 = now_seconds();
      (void)verifier_.verify(in.program, req);
      parallel.push_back(now_seconds() - t0);
    }
    log_sum += std::log(median_of(serial) / median_of(parallel));
  }
  return std::exp(log_sum / static_cast<double>(workload_.inputs.size()));
}

void Runner::layer_pass(SpanRecorder& spans, std::uint64_t first_id) {
  const bool serve = workload_.kind == WorkloadKind::kServeMixed;
  std::vector<VerifyReport> reports;  // serve_mixed: what a miss serializes
  if (serve) {
    for (const Input& in : workload_.inputs) {
      reports.push_back(verifier_.verify(in.program, in.request));
    }
  }
  std::uint64_t id = first_id;
  for (int round = 0; round < kLayerRounds; ++round) {
    for (std::size_t i = 0; i < workload_.inputs.size(); ++i, ++id) {
      const Input& in = workload_.inputs[i];
      if (serve) {
        for (const std::string* text : {&in.source, &in.renamed}) {
          {
            ScopedSpan span(&spans, "text.parse", id);
            (void)mcsym::text::parse_program(*text);
          }
          ScopedSpan span(&spans, "service.cache_key", id);
          (void)service_.cache_key(*text, in.request);
        }
        ScopedSpan span(&spans, "verifier.serialize", id);
        (void)mcsym::check::report_to_json(reports[i]);
        continue;
      }
      if (in.request.engine != Engine::kSymbolic) continue;
      const VerifyReport report = verifier_.verify(in.program, in.request);
      {
        // The first trace's scheduler, as the checker records it.
        ScopedSpan span(&spans, "trace.record", id);
        mcsym::mcapi::System system(in.program, in.request.mode);
        mcsym::trace::Trace trace(in.program);
        mcsym::trace::Recorder recorder(trace);
        mcsym::mcapi::RandomScheduler scheduler(in.request.trace_seed);
        (void)mcsym::mcapi::run(system, scheduler, &recorder,
                                in.request.budget.max_run_steps);
      }
      for (const auto& tc : report.trace_checks) {
        if (!tc.verdict.witness.has_value()) continue;
        ScopedSpan span(&spans, "witness_replay.replay", id);
        mcsym::check::ReplayOptions ro;
        ro.continue_past_violation = true;
        (void)mcsym::check::schedule_from_witness(in.program, tc.trace,
                                                  *tc.verdict.witness, ro);
      }
    }
  }
}

/// A timed closed loop's record: every request's latency, and the reference
/// probes run between requests every kProbeInterval seconds. Probe j
/// precedes slice j, the requests slice_start[j] .. slice_start[j + 1] - 1;
/// the last probe follows the last slice.
struct Phase {
  std::vector<float> latencies;  // seconds, in request order
  std::vector<std::size_t> slice_start;
  std::vector<double> probes;  // reference-probe times (seconds)
  double seconds = 0;
  /// The loop also ends when this many requests are recorded, so that a
  /// latency buffer sized in advance never grows.
  std::size_t max_requests = SIZE_MAX;
};

/// The requests of a phase's quiet slices: what the timing metrics use.
struct Quiet {
  std::vector<double> latencies;  // sorted, seconds
  double busy = 0;                // sum of their latencies
  std::size_t slices = 0, total_slices = 0;
  [[nodiscard]] double verdicts_per_s() const {
    return static_cast<double>(latencies.size()) / busy;
  }
};

Quiet quiet_part(const Phase& phase) {
  const std::vector<bool> quiet = quiet_slices(phase.probes);
  Quiet q;
  q.total_slices = quiet.size();
  for (std::size_t j = 0; j < quiet.size(); ++j) {
    if (!quiet[j]) continue;
    ++q.slices;
    for (std::size_t i = phase.slice_start[j]; i < phase.slice_start[j + 1]; ++i) {
      q.latencies.push_back(phase.latencies[i]);
      q.busy += phase.latencies[i];
    }
  }
  std::sort(q.latencies.begin(), q.latencies.end());
  return q;
}

/// Runs the reference probe on as many threads as a request keeps busy and
/// opens the next slice of `phase`.
void add_probe(unsigned threads, Phase& phase) {
  phase.probes.push_back(reference_probe(threads));
  phase.slice_start.push_back(phase.latencies.size());
}

/// Sends requests for `seconds`, appending to `phase` and `tally`.
void run_phase(Runner& runner, double seconds, SpanRecorder* spans,
               Layers* layers, Tally& tally, Phase& phase) {
  const unsigned threads = busy_threads(runner.workload());
  const double start = now_seconds();
  double now = start;
  double last_probe = start;
  add_probe(threads, phase);
  while (now - start < seconds && phase.latencies.size() < phase.max_requests) {
    if (now - last_probe >= kProbeInterval) {
      add_probe(threads, phase);
      last_probe = now_seconds();
    }
    const Request r = runner.stream().next();
    const double t0 = now_seconds();
    const Outcome out = runner.serve(r, spans, tally.requests, layers);
    now = now_seconds();
    phase.latencies.push_back(static_cast<float>(now - t0));
    tally.add(out);
  }
  add_probe(threads, phase);
  phase.seconds += now - start;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  const std::vector<double> self = self_times(spans);
  out << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"name\":\"" << s.name << "\",\"start\":" << format_number(s.start)
        << ",\"end\":" << format_number(s.end) << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"self\":" << format_number(self[i])
        << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::vector<Metric> per_layer_metrics(const Layers& l,
                                      const std::vector<Span>& spans,
                                      double overhead) {
  auto p50_span = [&spans](std::string_view name, double scale) {
    return percentile(durations_of(spans, name), 50) * scale;
  };
  return {
      {"dpor.us_per_transition",
       ratio(l.dpor_seconds * 1e6, static_cast<double>(l.dpor_request_transitions)),
       "us"},
      {"dpor.run_ms_p50", median_of(l.dpor_run_ms), "ms"},
      {"dpor.races_per_execution",
       ratio(static_cast<double>(l.races), static_cast<double>(l.executions)),
       "ratio"},
      {"dpor.wakeup_nodes", static_cast<double>(l.wakeup_nodes), "count"},
      {"dpor.executions", static_cast<double>(l.executions), "count"},
      {"dpor.transitions", static_cast<double>(l.transitions), "count"},
      {"state_space.visited_states", static_cast<double>(l.visited_states),
       "count"},
      {"state_space.hit_ratio",
       ratio(static_cast<double>(l.state_hits),
             static_cast<double>(l.visited_states)),
       "ratio"},
      {"state_space.cycles_found", static_cast<double>(l.cycles_found), "count"},
      {"dpor_parallel.speedup_w2", l.speedup_w2, "ratio"},
      {"dpor_parallel.productive_steal_ratio",
       ratio(static_cast<double>(l.steals) - static_cast<double>(l.claim_conflicts),
             static_cast<double>(l.steals)),
       "ratio"},
      {"dpor_parallel.steal_failures", static_cast<double>(l.steal_failures),
       "count"},
      {"dpor_parallel.duplicate_ratio",
       ratio(static_cast<double>(l.duplicates),
             static_cast<double>(l.parallel_executions)),
       "ratio"},
      {"dpor_parallel.max_replay_depth", static_cast<double>(l.max_replay_depth),
       "count"},
      {"dpor_parallel.cpu_per_wall", l.cpu_per_wall, "ratio"},
      {"trace.record_us_p50", p50_span("trace.record", 1e6), "us"},
      {"match.matchgen_ms_p50", median_of(l.matchgen_ms), "ms"},
      {"match.pairs", static_cast<double>(l.pairs), "count"},
      {"encode.encode_ms_p50", median_of(l.encode_ms), "ms"},
      {"encode.constraints", static_cast<double>(l.constraints), "count"},
      {"smt.solve_ms_p50", median_of(l.solve_ms), "ms"},
      {"smt.conflicts", static_cast<double>(l.conflicts), "count"},
      {"smt.solver_calls", static_cast<double>(l.solver_calls), "count"},
      {"witness_replay.replay_ms_p50", p50_span("witness_replay.replay", 1e3),
       "ms"},
      {"symbolic.skipped_ratio",
       ratio(static_cast<double>(l.traces_skipped),
             static_cast<double>(l.traces_recorded)),
       "ratio"},
      {"text.parse_us_p50", p50_span("text.parse", 1e6), "us"},
      {"service.key_us_p50", p50_span("service.cache_key", 1e6), "us"},
      {"service.hit_us_p50", p50_span("service.hit", 1e6), "us"},
      {"service.miss_ms_p50", p50_span("service.miss", 1e3), "ms"},
      {"verifier.serialize_us_p50", p50_span("verifier.serialize", 1e6), "us"},
      {"service.hit_ratio", l.hit_ratio, "ratio"},
      {"service.evictions", static_cast<double>(l.evictions), "count"},
      {"trace_overhead_ratio", overhead, "ratio"},
  };
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string examples = "examples";
  std::string spans_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = std::stoi(value);
    } else if (key == "--examples") {
      a.examples = value;
    } else if (key == "--spans-out") {
      a.spans_out = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.seconds <= 0 || (a.trace != 0 && a.trace != 1)) {
    throw std::invalid_argument("--seconds must be > 0 and --trace 0 or 1");
  }
  return a;
}

int run(const Args& args) {
  const auto kind = workload_from_name(args.workload);
  if (!kind) throw std::invalid_argument("unknown workload " + args.workload);

  // The band search that picks the seed's random programs runs once and
  // untimed: how many candidates it verifies depends on the seed, not on
  // mcsym's set-up cost. Every timed set-up regenerates the chosen programs.
  std::vector<std::uint64_t> draws;
  double max_requests_per_s = 0;
  std::size_t input_count = 0;
  unsigned threads = 1;
  {
    Workload searched = make_workload(*kind, args.seed, args.examples);
    draws = std::move(searched.draws);
    max_requests_per_s = searched.max_requests_per_s;
    input_count = searched.inputs.size();
    threads = busy_threads(searched);
  }

  // The timed phase's latency buffer, sized and touched now so that the
  // resident set it adds is the same in every run: peak_rss_mb leaves it out.
  Phase phase;
  if (args.trace == 0) {
    phase.max_requests =
        static_cast<std::size_t>(std::ceil(args.seconds * max_requests_per_s));
    phase.latencies.resize(phase.max_requests);
    phase.latencies.clear();
  }
  const double buffer_mb =
      static_cast<double>(phase.latencies.capacity() * sizeof(float)) / (1024.0 * 1024.0);

  // A set-up builds the runner: the workload regenerated from the draws,
  // its service, and the warm-up. Returns its duration in seconds.
  std::unique_ptr<Runner> runner;
  const auto set_up = [&] {
    runner.reset();
    const double t0 = now_seconds();
    runner = std::make_unique<Runner>(*kind, args.seed, args.examples, draws);
    runner->warm_up();
    return now_seconds() - t0;
  };
  const auto print_fingerprint = [&] {
    const Workload& w = runner->workload();
    std::printf("workload %s seed %llu: %zu inputs, input fingerprint %s\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                w.inputs.size(), input_fingerprint(w).c_str());
  };

  std::vector<Metric> metrics;
  Tally tally(input_count);
  if (args.trace == 0) {
    // kSetups set-ups spread over the run: each builds a fresh runner that
    // serves the next 1/kSetups of the timed phase, so the set-ups sample
    // the host across the run, not at one moment. Settled probes bracket
    // each; setup_s is the median of the quiet set-ups.
    std::vector<double> setups, before, after;
    for (int k = 0; k < kSetups; ++k) {
      before.push_back(settled_probe(threads));
      setups.push_back(set_up());
      after.push_back(settled_probe(threads));
      if (k == 0) print_fingerprint();
      run_phase(*runner, args.seconds / kSetups, nullptr, nullptr, tally, phase);
    }
    // Read before the known-answer check, whose reference engines are not
    // part of serving.
    const double rss_mb = peak_rss_mb() - buffer_mb;
    const Workload& w = runner->workload();
    const Quiet quiet = quiet_part(phase);
    const Tail tail = tail_of(quiet.latencies, w.tail_percentile);
    std::vector<double> probes = phase.probes;
    std::sort(probes.begin(), probes.end());
    const double fast = percentile(probes, 10);
    const double speed = kProbeNominal / fast;
    const QuietMedian setup = quiet_median(setups, before, after, fast);
    std::printf(
        "quiet slices: %zu of %zu, %zu of %zu requests and %zu of %zu set-ups "
        "timed; reference probe p10 %.1f us, timings scaled by %.4f\n",
        quiet.slices, quiet.total_slices, quiet.latencies.size(),
        phase.latencies.size(), setup.kept, setups.size(), fast * 1e6, speed);
    std::printf("unscaled: %.6g verdicts/s, p50 %.6g ms, tail %.6g ms, set-up %.6g s\n",
                quiet.verdicts_per_s(), percentile(quiet.latencies, 50) * 1e3,
                tail.value * 1e3, setup.value);
    std::printf("latency_tail_ms is p%g of %zu samples (%zu beyond)\n",
                tail.percentile, tail.samples, tail.beyond);
    metrics = {
        {"verdicts_per_s", quiet.verdicts_per_s() / speed, "1/s"},
        {"latency_p50_ms", percentile(quiet.latencies, 50) * speed * 1e3, "ms"},
        {"latency_tail_ms", tail.value * speed * 1e3, "ms"},
        {"setup_s", setup.value * speed, "s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  } else {
    (void)set_up();
    print_fingerprint();
    SpanRecorder spans;
    Layers layers;
    layers.seen.assign(input_count, false);
    const auto stats0 = runner->service().stats();
    // Untraced and traced slices alternate, so host drift over the run
    // falls on both halves alike.
    Phase traced;
    double cpu = 0;
    while (phase.seconds < args.seconds / 2) {
      run_phase(*runner, kTraceSlice, nullptr, nullptr, tally, phase);
      const double cpu0 = process_cpu_seconds();
      run_phase(*runner, kTraceSlice, &spans, &layers, tally, traced);
      cpu += process_cpu_seconds() - cpu0;
    }
    if (*kind == WorkloadKind::kDporParallel) {
      layers.cpu_per_wall = cpu / traced.seconds;
      layers.speedup_w2 = runner->speedup_w2();
    }
    if (*kind == WorkloadKind::kServeMixed) {
      const auto& s = runner->service().stats();
      layers.hit_ratio = ratio(static_cast<double>(s.cache_hits - stats0.cache_hits),
                               static_cast<double>(s.requests - stats0.requests));
      layers.evictions = s.cache_evictions - stats0.cache_evictions;
    }
    runner->layer_pass(spans, tally.requests);
    metrics = per_layer_metrics(layers, spans.spans(),
                                quiet_part(traced).verdicts_per_s() /
                                    quiet_part(phase).verdicts_per_s());
    std::printf("self time by span (traced half and layer pass):\n");
    for (const auto& [name, self] : self_time_by_name(spans.spans())) {
      std::printf("  %-26s %10.3f ms\n", name.c_str(), self * 1e3);
    }
    if (!args.spans_out.empty()) write_spans(args.spans_out, spans.spans());
  }

  // Known-answer check, after the timed phase and outside every metric.
  const Workload& w = runner->workload();
  const double oracle_start = now_seconds();
  std::uint64_t failed = 0;
  std::size_t checked = 0;
  std::vector<std::string> reasons;
  for (std::size_t i = 0; i < w.inputs.size(); ++i) {
    if (tally.by_input[i].empty()) continue;
    ++checked;
    const KnownAnswer answer = known_answer(w.inputs[i]);
    for (const Tally::Entry& e : tally.by_input[i]) {
      const Outcome& o = e.outcome;
      const std::string why = o.error.empty()
                                  ? judge(answer, o.verdict, o.executions)
                                  : "parse error: " + o.error;
      if (why.empty()) continue;
      failed += e.count;
      if (reasons.size() < 10) reasons.push_back(w.inputs[i].name + ": " + why);
    }
  }
  std::printf(
      "known answers: %zu inputs checked in %.2f s, %llu of %llu requests failed\n",
      checked, now_seconds() - oracle_start, static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(tally.requests));
  for (const std::string& r : reasons) std::printf("  FAILED %s\n", r.c_str());
  for (const Metric& m : metrics) {
    std::printf("%-40s %16s %s\n", m.name.c_str(), format_number(m.value).c_str(),
                m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.requests);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            format_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
