#include "workloads.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "bench_stats.hpp"
#include "check/random_program.hpp"
#include "check/workloads.hpp"
#include "text/program_text.hpp"

namespace perfbench {

using mcsym::check::Engine;
using mcsym::check::RandomProgramOptions;
using mcsym::check::Verdict;
using mcsym::check::Verifier;
using mcsym::check::VerifyRequest;
using mcsym::mcapi::OpKind;
using mcsym::mcapi::Program;
namespace wl = mcsym::check::workloads;

namespace {

constexpr const char* kNames[] = {"dpor_exhaustive", "dpor_parallel",
                                  "symbolic_traces", "serve_mixed"};

/// Wall-clock guard on every request: a request that needs it has failed.
constexpr double kRequestSeconds = 20;

/// serve_mixed traffic shape (README.md, "serve_mixed").
constexpr std::size_t kServeHot = 40;    // random programs in the Zipf set
constexpr std::size_t kServeCold = 120;  // random programs in rotation
constexpr double kServeColdShare = 0.10;
constexpr double kServeAnchorShare = 0.40;
constexpr double kServeRenamedShare = 0.3;
constexpr double kServeZipf = 1.0;
constexpr std::size_t kServeCache = 32;

VerifyRequest base_request(Engine engine) {
  VerifyRequest req;
  req.engine = engine;
  req.budget.max_seconds = kRequestSeconds;
  return req;
}

Input& add(Workload& w, std::string name, Program program, VerifyRequest req,
           std::uint32_t weight) {
  Input& in = w.inputs.emplace_back();
  in.name = std::move(name);
  in.program = std::move(program);
  in.request = std::move(req);
  in.weight = weight;
  return in;
}

Input& add_closed_form(Workload& w, std::string name, Program program,
                       VerifyRequest req, std::uint32_t weight,
                       std::uint64_t executions) {
  Input& in = add(w, std::move(name), std::move(program), std::move(req), weight);
  in.answer = AnswerSource::kClosedForm;
  in.expected = Verdict::kSafe;
  in.expected_executions = executions;
  return in;
}

Input& add_pinned(Workload& w, std::string name, Program program,
                  VerifyRequest req, std::uint32_t weight, Verdict verdict) {
  Input& in = add(w, std::move(name), std::move(program), std::move(req), weight);
  in.answer = AnswerSource::kPinned;
  in.expected = verdict;
  return in;
}

std::uint64_t factorial(std::uint64_t n) {
  std::uint64_t f = 1;
  for (std::uint64_t i = 2; i <= n; ++i) f *= i;
  return f;
}

/// Closed form of message_race(s, m): (sm)! / (m!)^s Mazurkiewicz traces.
std::uint64_t message_race_traces(std::uint64_t s, std::uint64_t m) {
  std::uint64_t denom = 1;
  for (std::uint64_t i = 0; i < s; ++i) denom *= factorial(m);
  return factorial(s * m) / denom;
}

/// Control flow and observations fixed by the program text alone: no jumps
/// (one trace covers every execution's control flow) and no test/wait_any
/// (nothing observes timing).
bool branch_and_observer_free(const Program& p) {
  for (mcsym::mcapi::ThreadRef t = 0; t < p.num_threads(); ++t) {
    for (const auto& instr : p.thread(t).code) {
      if (instr.kind == OpKind::kJmp || instr.kind == OpKind::kJmpIf ||
          instr.kind == OpKind::kTest || instr.kind == OpKind::kWaitAny) {
        return false;
      }
    }
  }
  return true;
}

/// A random-program family of the benchmark: generator options, the band
/// of a deterministic work counter a draw must fall in, and the request
/// that serves it.
struct Family {
  const char* label;
  RandomProgramOptions options;
  const char* band_counter;  // counter of the warm-up report
  std::uint64_t lo;
  std::uint64_t hi;
  bool branch_free = false;
  /// serve_mixed: band on the rendered .mcp length, which sets the cost of
  /// a cache hit (parse plus canonical fingerprint).
  std::size_t min_text = 0;
  std::size_t max_text = 0;  // 0: no text band
};

RandomProgramOptions options(std::uint32_t threads) {
  RandomProgramOptions o;
  o.threads = threads;
  return o;
}

/// Where random programs come from: the seeded band search, or the seeds
/// an earlier search chose.
struct Draws {
  mcsym::support::Rng rng;
  const std::vector<std::uint64_t>* replay = nullptr;
};

std::string draw_name(std::uint64_t seed, const Family& family) {
  std::ostringstream name;
  name << "random_program(" << seed << ")/" << family.label << "/"
       << family.options.threads << "t";
  return name.str();
}

/// Draws one program of `family` from the seeded stream: candidates are
/// generated until one's warm-up verification lands its work counter
/// inside the band. Deterministic: only counters, never timings, decide.
void add_random(Workload& w, Draws& draws, const Family& family,
                const VerifyRequest& req, std::uint32_t weight) {
  if (draws.replay != nullptr) {
    const std::uint64_t seed = draws.replay->at(w.draws.size());
    add(w, draw_name(seed, family),
        mcsym::check::random_program(seed, family.options), req, weight);
    w.draws.push_back(seed);
    return;
  }
  Verifier verifier;
  for (int attempt = 0; attempt < 100000; ++attempt) {
    const std::uint64_t seed = draws.rng.next_u64();
    Program p = mcsym::check::random_program(seed, family.options);
    if (family.branch_free && !branch_and_observer_free(p)) continue;
    if (family.max_text > 0) {
      const std::size_t len = mcsym::text::program_to_text(p).size();
      if (len < family.min_text || len > family.max_text) continue;
    }
    VerifyRequest probe = req;
    probe.budget.max_transitions = 4 * family.hi;  // reject big ones early
    const auto report = verifier.verify(p, probe);
    if (report.verdict == Verdict::kBudgetExhausted) continue;
    const std::uint64_t work = report_counter(report, family.band_counter);
    if (work < family.lo || work > family.hi) continue;
    add(w, draw_name(seed, family), std::move(p), req, weight);
    w.draws.push_back(seed);
    return;
  }
  throw std::runtime_error(std::string("no draw in band for family ") +
                           family.label);
}

void make_dpor_exhaustive(Workload& w, Draws& rng) {
  const VerifyRequest serial = base_request(Engine::kDporOptimal);
  VerifyRequest stateful = serial;
  stateful.stateful = true;

  // Below the anchor: random draws of 0.1-0.5 ms and small closed forms.
  RandomProgramOptions asserts = options(4);
  asserts.add_asserts = true;
  RandomProgramOptions deadlocks = options(4);
  deadlocks.allow_deadlocks = true;
  RandomProgramOptions observers = options(4);
  observers.allow_nonblocking = observers.allow_test_poll =
      observers.allow_wait_any = observers.add_asserts = true;
  RandomProgramOptions loops = options(4);
  loops.allow_loops = true;
  const Family families[] = {
      {"plain", options(4), "transitions", 100, 400},
      {"asserts", asserts, "transitions", 100, 400},
      {"deadlocks", deadlocks, "transitions", 100, 400},
      {"observers", observers, "transitions", 100, 400},
  };
  for (int round = 0; round < 2; ++round) {
    for (const Family& f : families) add_random(w, rng, f, serial, 1);
  }
  RandomProgramOptions asserts5 = asserts;
  asserts5.threads = 5;
  RandomProgramOptions deadlocks5 = deadlocks;
  deadlocks5.threads = 5;
  add_random(w, rng, {"asserts", asserts5, "transitions", 100, 300}, serial, 1);
  add_random(w, rng, {"deadlocks", deadlocks5, "transitions", 100, 300}, serial, 1);
  for (int i = 0; i < 2; ++i) {
    add_random(w, rng, {"loops", loops, "transitions", 40, 400}, stateful, 1);
  }
  add_closed_form(w, "figure1", wl::figure1(), serial, 1, 2);
  add_closed_form(w, "pipeline(4,3)", wl::pipeline(4, 3), serial, 1, 1);
  add_closed_form(w, "message_race(3,2)", wl::message_race(3, 2), serial, 1,
                  message_race_traces(3, 2));
  // Counter-bounded service loops: finite and safe in every execution.
  add_pinned(w, "request_stream(3)", wl::request_stream(3), stateful, 1,
             Verdict::kSafe);
  add_pinned(w, "select_server_loop(2)", wl::select_server_loop(2), stateful,
             1, Verdict::kSafe);
  // The anchor (holds the median), then the heavy cluster (holds the tail).
  add_closed_form(w, "relay_race(3)", wl::relay_race(3), serial, 20,
                  factorial(6));
  // One request in 39: the p99 then sits near the middle of this
  // cluster's own spread, not in its upper tail.
  add_closed_form(w, "message_race(4,2)", wl::message_race(4, 2), serial, 1,
                  message_race_traces(4, 2));
  add_pinned(w, "select_server_loop(3)", wl::select_server_loop(3), stateful,
             1, Verdict::kSafe);
}

void make_dpor_parallel(Workload& w) {
  w.tail_percentile = 95;
  w.max_requests_per_s = 1000;
  VerifyRequest req = base_request(Engine::kDporOptimal);
  req.workers = 2;
  add_closed_form(w, "scatter_gather_safe(6)", wl::scatter_gather_safe(6), req,
                  1, factorial(6));
  add_closed_form(w, "token_fanout(6)", wl::token_fanout(6), req, 1,
                  factorial(6));
  add_closed_form(w, "message_race(3,3)", wl::message_race(3, 3), req, 3,
                  message_race_traces(3, 3));
  add_closed_form(w, "message_race(4,2)", wl::message_race(4, 2), req, 1,
                  message_race_traces(4, 2));
}

void make_symbolic_traces(Workload& w, Draws& rng) {
  w.max_requests_per_s = 10000;
  VerifyRequest req = base_request(Engine::kSymbolic);
  req.traces = 4;
  // Below the anchor: branch-free, observer-free random programs, where the
  // explicit verdict is the known answer, and three small pinned programs.
  RandomProgramOptions asserts = options(3);
  asserts.add_asserts = true;
  RandomProgramOptions nonblocking = options(4);
  nonblocking.allow_nonblocking = nonblocking.add_asserts = true;
  const Family families[] = {
      {"asserts", asserts, "match_disjuncts", 8, 20, true},
      {"nonblocking", nonblocking, "match_disjuncts", 8, 20, true},
  };
  for (int round = 0; round < 5; ++round) {
    for (const Family& f : families) add_random(w, rng, f, req, 1);
  }
  auto fig = wl::figure1_with_property();
  VerifyRequest with_property = req;
  with_property.properties = fig.properties;
  // Figure 4b: with network delays A can receive X, violating "A == Y".
  add_pinned(w, "figure1_with_property", std::move(fig.program),
             with_property, 1, Verdict::kViolation);
  // Four traces reach the branch whose assertion fails.
  add_pinned(w, "branchy_race", wl::branchy_race(), req, 1,
             Verdict::kViolation);
  // No assertions: every trace is a feasibility query, answered SAT.
  add_pinned(w, "select_server(2)", wl::select_server(2), req, 1,
             Verdict::kSafe);
  // Anchor and heavy cluster: assertion-free races, safe on every trace.
  add_pinned(w, "relay_race(2)", wl::relay_race(2), req, 12, Verdict::kSafe);
  add_pinned(w, "message_race(3,2)", wl::message_race(3, 2), req, 2,
             Verdict::kSafe);
  add_pinned(w, "relay_race(3)", wl::relay_race(3), req, 1, Verdict::kSafe);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void make_serve_mixed(Workload& w, Draws& rng,
                      const std::string& examples_dir) {
  w.cache_capacity = kServeCache;
  w.max_requests_per_s = 100000;
  const VerifyRequest req = base_request(Engine::kDporOptimal);
  RandomProgramOptions six = options(6);
  RandomProgramOptions six_asserts = six;
  six_asserts.add_asserts = true;
  const Family families[] = {
      {"plain", six, "transitions", 40, 100, false, 480, 620},
      {"asserts", six_asserts, "transitions", 40, 100, false, 480, 620},
  };
  for (std::size_t i = 0; i < kServeHot + kServeCold; ++i) {
    add_random(w, rng, families[i % 2], req, 1);
    if (i >= kServeHot) w.inputs.back().role = ServeRole::kCold;
  }
  // The anchor: a fixed program whose text is longer than every random
  // one's, so its hits are the dearest hits and the median falls on them.
  add_closed_form(w, "scatter_gather_safe(6)", wl::scatter_gather_safe(6), req,
                  1, factorial(6))
      .role = ServeRole::kAnchor;
  // The shipped examples. The livelock spins forever, so it is served
  // statefully (its known answer is non-termination).
  for (const char* file : {"figure1.mcp", "select_server.mcp", "livelock.mcp"}) {
    const std::string source = read_file(examples_dir + "/" + file);
    auto parsed = mcsym::text::parse_program(source);
    if (!parsed.ok()) throw std::runtime_error(parsed.error_text());
    VerifyRequest r = req;
    r.stateful = std::string_view(file) == "livelock.mcp";
    Input& in = add(w, std::string("examples/") + file,
                    std::move(parsed.parsed->program), r, 1);
    in.source = source;
  }
  for (std::size_t i = 0; i < w.inputs.size(); ++i) {
    Input& in = w.inputs[i];
    if (in.source.empty()) {
      in.source = mcsym::text::program_to_text(
          in.program, {}, std::string("p").append(std::to_string(i)));
    }
    in.renamed = alpha_rename(in.source, w.seed + i);
  }
}

}  // namespace

std::uint64_t report_counter(const mcsym::check::VerifyReport& report,
                             std::string_view name) {
  for (const auto& run : report.engines) {
    for (const auto& [key, value] : run.counters) {
      if (key == name) return value;
    }
  }
  return 0;
}

std::optional<WorkloadKind> workload_from_name(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kNames); ++i) {
    if (name == kNames[i]) return static_cast<WorkloadKind>(i);
  }
  return std::nullopt;
}

const char* workload_name(WorkloadKind kind) {
  return kNames[static_cast<std::size_t>(kind)];
}

Workload make_workload(WorkloadKind kind, std::uint64_t seed,
                       const std::string& examples_dir,
                       const std::vector<std::uint64_t>* draws) {
  Workload w;
  w.kind = kind;
  w.seed = seed;
  Draws rng{mcsym::support::Rng(seed * 0x9e3779b97f4a7c15ULL + 0x51ed270b),
            draws};
  switch (kind) {
    case WorkloadKind::kDporExhaustive: make_dpor_exhaustive(w, rng); break;
    case WorkloadKind::kDporParallel: make_dpor_parallel(w); break;
    case WorkloadKind::kSymbolicTraces: make_symbolic_traces(w, rng); break;
    case WorkloadKind::kServeMixed: make_serve_mixed(w, rng, examples_dir); break;
  }
  return w;
}

RequestStream::RequestStream(const Workload& workload)
    : workload_(&workload), rng_(workload.seed ^ 0x5eed5eed5eedULL) {
  if (workload.kind != WorkloadKind::kServeMixed) return;
  for (std::uint32_t i = 0; i < workload.inputs.size(); ++i) {
    switch (workload.inputs[i].role) {
      case ServeRole::kHot: hot_.push_back(i); break;
      case ServeRole::kCold: cold_.push_back(i); break;
      case ServeRole::kAnchor: anchor_ = i; break;
    }
  }
  // Popularity rank is a seeded permutation of the hot set.
  for (std::size_t i = hot_.size(); i > 1; --i) {
    std::swap(hot_[i - 1], hot_[rng_.below(i)]);
  }
  double total = 0;
  for (std::size_t r = 0; r < hot_.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kServeZipf);
    hot_cdf_.push_back(total);
  }
  for (double& c : hot_cdf_) c /= total;
}

Request RequestStream::next() {
  if (workload_->kind == WorkloadKind::kServeMixed) {
    const double u = rng_.next_double();
    if (u < kServeColdShare) return {cold_[cold_pos_++ % cold_.size()], false};
    const bool renamed = rng_.next_double() < kServeRenamedShare;
    if (u < kServeColdShare + kServeAnchorShare) return {anchor_, renamed};
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(hot_cdf_.begin(), hot_cdf_.end(), rng_.next_double()) -
        hot_cdf_.begin());
    return {hot_[std::min(rank, hot_.size() - 1)], renamed};
  }
  if (pos_ == cycle_.size()) {
    cycle_.clear();
    for (std::uint32_t i = 0; i < workload_->inputs.size(); ++i) {
      cycle_.insert(cycle_.end(), workload_->inputs[i].weight, i);
    }
    for (std::size_t i = cycle_.size(); i > 1; --i) {
      std::swap(cycle_[i - 1], cycle_[rng_.below(i)]);
    }
    pos_ = 0;
  }
  return {cycle_[pos_++], false};
}

std::string input_fingerprint(const Workload& workload, std::size_t requests) {
  Fingerprint fp;
  fp.mix(workload_name(workload.kind));
  for (const Input& in : workload.inputs) {
    fp.mix(in.name);
    fp.mix(in.source.empty() ? mcsym::text::program_to_text(
                                   in.program, in.request.properties, in.name)
                             : in.source);
    fp.mix(in.renamed);
    fp.mix(static_cast<std::uint64_t>(in.request.engine));
    fp.mix(in.request.workers);
    fp.mix(in.request.traces);
    fp.mix(static_cast<std::uint64_t>(in.request.stateful));
    fp.mix(in.weight);
  }
  RequestStream stream(workload);
  for (std::size_t i = 0; i < requests; ++i) {
    const Request r = stream.next();
    fp.mix(r.input * 2 + (r.renamed ? 1 : 0));
  }
  return fp.hex();
}

KnownAnswer known_answer(const Input& input) {
  KnownAnswer answer;
  if (input.answer != AnswerSource::kExplicit) {
    answer.verdict = *input.expected;
    answer.executions = input.expected_executions;
    answer.decided = true;
    return answer;
  }
  // The explicit engine is the reference; on the rare draw whose state
  // space outgrows its budget the sleep-set DPOR engine, a separate
  // exploration algorithm, answers instead.
  Verifier verifier;
  for (Engine engine : {Engine::kExplicit, Engine::kDporSleepSet}) {
    VerifyRequest req;
    req.engine = engine;
    req.stateful = input.request.stateful;
    req.budget.max_states = 300'000;
    req.budget.max_transitions = 5'000'000;
    const auto report = verifier.verify(input.program, req);
    if (report.verdict != Verdict::kBudgetExhausted) {
      answer.verdict = report.verdict;
      answer.decided = true;
      return answer;
    }
  }
  return answer;
}

std::string judge(const KnownAnswer& answer, Verdict verdict,
                  std::optional<std::uint64_t> executions) {
  if (!answer.decided) return "no reference engine decided the input";
  if (verdict == Verdict::kBudgetExhausted) return "budget exhausted";
  if (verdict != answer.verdict) {
    return std::string("verdict ") + mcsym::check::verdict_name(verdict) +
           ", known answer " + mcsym::check::verdict_name(answer.verdict);
  }
  if (answer.executions && executions && *answer.executions != *executions) {
    return "executions " + std::to_string(*executions) + ", closed form " +
           std::to_string(*answer.executions);
  }
  return {};
}

std::string alpha_rename(std::string_view source, std::uint64_t salt) {
  static const std::unordered_set<std::string_view> kKeywords = {
      "program", "thread", "endpoint", "send",   "recv",     "recv_i",
      "test",    "wait",   "wait_any", "assign", "label",    "if",
      "goto",    "assert", "nop",      "property", "req",
  };
  std::string prefix = "n";
  prefix += std::to_string(salt % 997);
  prefix += '_';
  std::unordered_map<std::string, std::string> names;
  std::string out;
  out.reserve(source.size() + source.size() / 4);
  std::size_t i = 0;
  while (i < source.size()) {
    const char c = source[i];
    if (c == '"' || c == '#') {  // quoted label / comment: copy verbatim
      const char end = c == '"' ? '"' : '\n';
      std::size_t j = source.find(end, i + 1);
      j = j == std::string_view::npos ? source.size() : j + (c == '"' ? 1 : 0);
      out.append(source.substr(i, j - i));
      i = j;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t j = i;
      while (j < source.size() &&
             (std::isalnum(static_cast<unsigned char>(source[j])) ||
              source[j] == '_')) {
        ++j;
      }
      const std::string word(source.substr(i, j - i));
      if (kKeywords.contains(word)) {
        out += word;
      } else {
        auto it = names.try_emplace(word, prefix + std::to_string(names.size()))
                      .first;
        out += it->second;
      }
      i = j;
      continue;
    }
    out += c;
    ++i;
  }
  return out;
}

}  // namespace perfbench
