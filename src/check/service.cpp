#include "check/service.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <thread>
#include <type_traits>
#include <utility>

#include "check/json_internal.hpp"
#include "mcapi/canonical.hpp"
#include "support/stats.hpp"
#include "text/program_text.hpp"

namespace mcsym::check {

namespace {

// Section tags for the non-program parts of the cache key, disjoint from
// the canonical_fingerprint tags so the streams cannot alias.
enum Tag : std::uint64_t {
  kTagProperties = 0x5e21ab00,
  kTagOperand,
  kTagConfig,
  kTagString,
};

void mix_string(support::StateHasher& h, std::string_view s) {
  h.mix(kTagString);
  h.mix(s.size());
  for (const char c : s) h.mix(static_cast<unsigned char>(c));
}

/// Canonicalizes one property operand: variable names resolve to the
/// owning thread's slot (the identity alpha-renaming preserves); the
/// spelling itself is never mixed.
void mix_operand(support::StateHasher& h, const mcapi::Program& program,
                 const encode::Operand& op) {
  h.mix(kTagOperand);
  h.mix(static_cast<std::uint64_t>(op.is_var));
  h.mix_signed(op.k);
  if (!op.is_var) return;
  h.mix(op.thread);
  mcapi::LocalSlot slot = mcapi::kNoSlot;
  if (op.thread < program.num_threads()) {
    const auto& names = program.thread(op.thread).slot_names;
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == op.var) {
        slot = static_cast<mcapi::LocalSlot>(i);
        break;
      }
    }
  }
  if (slot != mcapi::kNoSlot) {
    h.mix(slot);
  } else {
    // Unresolvable names cannot be canonicalized; fall back to spelling so
    // distinct unknowns at least stay distinct.
    mix_string(h, op.var);
  }
}

/// The semantic request configuration: everything that can change which
/// report is correct. Wall clock (budget.max_seconds), workers, and the
/// progress callback are deliberately absent — they only affect how fast
/// the answer arrives (reports are pinned worker-count-invariant).
void mix_request(support::StateHasher& h, const VerifyRequest& req) {
  h.mix(kTagConfig);
  h.mix(static_cast<std::uint64_t>(req.engine));
  h.mix(static_cast<std::uint64_t>(req.mode));
  h.mix(req.trace_seed);
  h.mix(req.traces);
  h.mix(static_cast<std::uint64_t>(req.round_robin));
  h.mix(static_cast<std::uint64_t>(req.check_dpor_modes));
  h.mix(static_cast<std::uint64_t>(req.replay_witnesses));
  // Stateful exploration changes the reachable verdict set (kNonTermination)
  // and the report's counters; the store capacity changes which searches
  // complete, so both join the key.
  h.mix(static_cast<std::uint64_t>(req.stateful));
  h.mix(static_cast<std::uint64_t>(req.state_capacity));
  // Non-wall-clock budgets gate how much of the state space an engine may
  // visit; only complete runs are cached, but a skipped symbolic trace
  // (max_run_steps) is not "truncation", so budgets stay in the key.
  h.mix(req.budget.max_states);
  h.mix(req.budget.max_transitions);
  h.mix(req.budget.solver_conflicts);
  h.mix(req.budget.max_run_steps);
  const SymbolicOptions& so = req.symbolic;
  h.mix(static_cast<std::uint64_t>(so.match_gen));
  h.mix(so.conflict_budget);
  h.mix(so.max_matchings);
  h.mix(static_cast<std::uint64_t>(so.overapprox.prune_program_order));
  const encode::EncodeOptions& eo = so.encode;
  h.mix(static_cast<std::uint64_t>(eo.fifo_non_overtaking));
  h.mix(static_cast<std::uint64_t>(eo.delay_ignorant));
  h.mix(static_cast<std::uint64_t>(eo.unique_all_pairs));
  h.mix(static_cast<std::uint64_t>(eo.unique_ladder));
  h.mix(static_cast<std::uint64_t>(eo.fifo_chain));
  h.mix(static_cast<std::uint64_t>(eo.anchor_nb_at_wait));
  h.mix(static_cast<std::uint64_t>(eo.order_endpoint_completions));
  h.mix(static_cast<std::uint64_t>(eo.initial_locals_zero));
  h.mix(static_cast<std::uint64_t>(eo.property_mode));
  h.mix(static_cast<std::uint64_t>(eo.defer_assertions));
}

support::Hash128 build_key(const mcapi::Program& program,
                           const std::vector<encode::Property>& properties,
                           const VerifyRequest& request) {
  support::StateHasher h;
  const support::Hash128 pf = mcapi::canonical_fingerprint(program);
  h.mix(pf.lo);
  h.mix(pf.hi);
  h.mix(kTagProperties);
  h.mix(properties.size());
  for (const encode::Property& p : properties) {
    mix_operand(h, program, p.lhs);
    h.mix(static_cast<std::uint64_t>(p.rel));
    mix_operand(h, program, p.rhs);
    // Labels are presentation, but they appear verbatim in violation
    // reports — two requests differing only in labels must not share a
    // cached document.
    mix_string(h, p.label);
  }
  mix_request(h, request);
  return h.digest();
}

/// Only definitive, complete answers are cacheable: a budget-starved or
/// cancelled report depends on how much work the budget bought, and must
/// never shadow the real verdict for a later (maybe better-funded) request.
bool cacheable(const VerifyReport& report) {
  if (report.cancelled) return false;
  if (report.verdict != Verdict::kSafe && report.verdict != Verdict::kViolation &&
      report.verdict != Verdict::kDeadlock &&
      report.verdict != Verdict::kNonTermination) {
    return false;
  }
  for (const EngineRun& run : report.engines) {
    if (run.truncated) return false;
  }
  return true;
}

struct ParsedRequest {
  bool ok = false;
  std::string error;
  text::ParsedProgram unit;
  std::vector<encode::Property> properties;
};

ParsedRequest parse_request(std::string_view source,
                            const std::vector<std::string>& extra_properties) {
  ParsedRequest pr;
  text::ParseOutcome out = text::parse_program(source);
  if (!out.ok()) {
    pr.error = out.error_text();
    return pr;
  }
  pr.unit = std::move(*out.parsed);
  pr.properties = pr.unit.properties;
  for (const std::string& text : extra_properties) {
    auto prop = text::parse_property(pr.unit.program, text);
    if (!prop.ok()) {
      pr.error = "bad property '" + text + "':";
      for (const auto& d : prop.diagnostics) pr.error += " " + d.message;
      return pr;
    }
    pr.properties.push_back(std::move(*prop.property));
  }
  pr.ok = true;
  return pr;
}

// --- request options -------------------------------------------------------

/// Parses a plain non-negative decimal that fits `out` — no sign, no
/// trailing characters, no overflow. "" on success, else the error text.
template <typename T>
std::string parse_number(std::string_view key, std::string_view value, T& out) {
  T parsed{};
  const char* const end = value.data() + value.size();
  const auto [stop, ec] = std::from_chars(value.data(), end, parsed);
  bool ok = !value.empty() && ec == std::errc() && stop == end;
  if constexpr (std::is_floating_point_v<T>) {
    ok = ok && std::isfinite(parsed) && parsed >= 0;
  }
  if (!ok) {
    return "bad value '" + std::string(value) + "' for " + std::string(key) +
           " (expected a non-negative number)";
  }
  out = parsed;
  return {};
}

// --- envelope lines ------------------------------------------------------------

constexpr const char* kBatchHead = "{\"schema\":\"mcsym.batch/1\",";
constexpr const char* kServeHead = "{\"schema\":\"mcsym.serve/1\",";

/// The counter run the batch summary and the serve `stats` line share.
std::string counters(const VerifierService::Stats& stats) {
  return "\"requests\":" + std::to_string(stats.requests) +
         ",\"parse_errors\":" + std::to_string(stats.parse_errors) +
         ",\"cache_hits\":" + std::to_string(stats.cache_hits) +
         ",\"cache_misses\":" + std::to_string(stats.cache_misses);
}

/// Writes one batch or serve envelope line: the schema, the "file"/"id"
/// label when `label` is non-empty, the request outcome, and — unless
/// `stats` is null, for a protocol error that never reached the service —
/// the cache fields with the service's cumulative counters. The envelope
/// is service-level bookkeeping; the mcsym.verify/1 report (when
/// requested) follows separately and is byte-identical across cache hits.
void write_envelope(std::ostream& out, const char* head,
                    const char* label_key, std::string_view label,
                    const VerifierService::Reply& reply,
                    const VerifierService::Stats* stats) {
  std::string line = head;
  if (!label.empty()) {
    line += std::string("\"") + label_key + "\":";
    json_detail::json_string(line, label);
    line += ',';
  }
  line += reply.ok ? "\"ok\":true,\"name\":" : "\"ok\":false,\"error\":";
  json_detail::json_string(line, reply.ok ? reply.name : reply.error);
  if (reply.ok) {
    line += std::string(",\"verdict\":\"") + verdict_name(reply.verdict) + '"';
    if (reply.cancelled) line += ",\"cancelled\":true";
  }
  line += ",\"exit\":" + std::to_string(reply.exit_code);
  if (stats != nullptr) {
    line += reply.cache_hit ? ",\"cache_hit\":true" : ",\"cache_hit\":false";
    line += ",\"cache_hits\":" + std::to_string(stats->cache_hits) +
            ",\"cache_misses\":" + std::to_string(stats->cache_misses) +
            ",\"seconds\":";
    json_detail::json_seconds(line, reply.seconds);
  }
  out << line << "}\n";
}

/// Worst-exit precedence for batch mode: usage/input errors dominate, then
/// findings (violations/deadlocks, then non-termination), then exhausted
/// budgets, then clean safes.
int combine_exit(int a, int b) {
  static constexpr int kRank[] = {0, 3, 4, 1, 2};  // by exit code 0..4
  return kRank[a] >= kRank[b] ? a : b;
}

/// getline without the trailing '\r' of CRLF input.
bool read_line(std::istream& in, std::string& line) {
  if (!std::getline(in, line)) return false;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

}  // namespace

std::string set_option(RequestSpec& spec, std::string_view key,
                       std::string_view value) {
  VerifyRequest& req = spec.request;
  encode::EncodeOptions& encoding = req.symbolic.encode;
  const bool on = value != "0";  // switches: anything but 0 turns them on
  std::string error;
  if (key == "engine") {
    const auto engine = engine_from_name(value);
    if (!engine.has_value()) {
      return "unknown engine '" + std::string(value) +
             "' (symbolic, explicit, dpor, dpor-sleepset, portfolio)";
    }
    req.engine = *engine;
  } else if (key == "seed") {
    error = parse_number(key, value, req.trace_seed);
  } else if (key == "traces") {
    error = parse_number(key, value, req.traces);
  } else if (key == "workers") {
    // "auto" or 0 resolve to the hardware concurrency (1 when the runtime
    // cannot report it); the clamp keeps a stray huge value from
    // oversubscribing the host. The request carries the resolved count, so
    // the parallel engine row echoes it.
    std::uint32_t n = 0;
    if (value != "auto") error = parse_number(key, value, n);
    if (n == 0) n = std::thread::hardware_concurrency();
    if (error.empty()) req.workers = std::clamp(n, 1u, 64u);
  } else if (key == "round-robin") {
    req.round_robin = on;
  } else if (key == "stateful") {
    req.stateful = on;
  } else if (key == "state-capacity") {
    req.stateful = true;  // a capacity only means anything stateful
    error = parse_number(key, value, req.state_capacity);
  } else if (key == "max-seconds") {
    error = parse_number(key, value, req.budget.max_seconds);
  } else if (key == "max-states" || key == "max-transitions") {
    // 0 = the facade default.
    const bool states = key == "max-states";
    std::uint64_t& budget =
        states ? req.budget.max_states : req.budget.max_transitions;
    error = parse_number(key, value, budget);
    if (budget == 0) {
      budget = states ? Budget().max_states : Budget().max_transitions;
    }
  } else if (key == "conflicts") {
    error = parse_number(key, value, req.budget.solver_conflicts);
  } else if (key == "timeout") {
    // The wall-clock limit rides the cancellation path: the progress
    // callback returns false once it passes and the engines unwind to a
    // kBudgetExhausted reply.
    double limit = 0;
    error = parse_number(key, value, limit);
    req.progress = nullptr;
    if (limit > 0) {
      req.progress = [limit](const Progress& p) { return p.seconds <= limit; };
    }
  } else if (key == "precise") {
    req.symbolic.match_gen = on ? MatchGen::kPrecise : MatchGen::kOverapprox;
  } else if (key == "no-fifo") {
    encoding.fifo_non_overtaking = !on;
  } else if (key == "delay-ignorant") {
    encoding.delay_ignorant = on;
  } else if (key == "assert-props") {
    encoding.property_mode =
        on ? encode::PropertyMode::kAssert : encode::PropertyMode::kNegate;
  } else if (key == "json") {
    spec.json = on;
  } else {
    return "unknown option '" + std::string(key) + "'";
  }
  return error;
}

bool is_switch_option(std::string_view key) {
  // Switches are exactly the options that accept any value, "" included.
  RequestSpec scratch;
  return set_option(scratch, key, "").empty();
}

VerifierService::VerifierService(Options options) : options_(options) {}

void VerifierService::clear_cache() {
  cache_.clear();
  lru_.clear();
}

void VerifierService::touch(Entry& entry, const support::Hash128& key) {
  lru_.erase(entry.lru);
  lru_.push_front(key);
  entry.lru = lru_.begin();
}

void VerifierService::store(const support::Hash128& key, Entry entry) {
  if (options_.cache_capacity == 0) return;
  while (cache_.size() >= options_.cache_capacity) {
    const support::Hash128 victim = lru_.back();
    lru_.pop_back();
    cache_.erase(victim);
    ++stats_.cache_evictions;
  }
  lru_.push_front(key);
  entry.lru = lru_.begin();
  cache_.emplace(key, std::move(entry));
  ++stats_.cache_stores;
}

VerifierService::KeyResult VerifierService::cache_key(
    std::string_view source, const VerifyRequest& request,
    const std::vector<std::string>& extra_properties) const {
  KeyResult kr;
  ParsedRequest pr = parse_request(source, extra_properties);
  if (!pr.ok) return kr;
  kr.ok = true;
  kr.key = build_key(pr.unit.program, pr.properties, request);
  return kr;
}

VerifierService::Reply VerifierService::verify_source(
    std::string_view source, const VerifyRequest& request,
    const std::vector<std::string>& extra_properties) {
  const support::Stopwatch timer;
  ++stats_.requests;
  Reply reply;

  ParsedRequest pr = parse_request(source, extra_properties);
  if (!pr.ok) {
    ++stats_.parse_errors;
    reply.error = std::move(pr.error);
    reply.exit_code = 2;
    reply.seconds = timer.seconds();
    return reply;
  }
  reply.ok = true;
  reply.name = pr.unit.name;

  const support::Hash128 key =
      build_key(pr.unit.program, pr.properties, request);
  if (options_.cache_capacity > 0) {
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++stats_.cache_hits;
      touch(it->second, key);
      reply.cache_hit = true;
      reply.verdict = it->second.verdict;
      reply.exit_code = it->second.exit_code;
      reply.report_json = it->second.report_json;  // byte-identical document
      reply.seconds = timer.seconds();
      return reply;
    }
  }

  ++stats_.cache_misses;
  VerifyRequest req = request;
  req.properties = pr.properties;
  const VerifyReport report = verifier_.verify(pr.unit.program, req);
  reply.cancelled = report.cancelled;
  reply.verdict = report.verdict;
  reply.exit_code = verdict_exit_code(report.verdict);
  reply.report_json = report_to_json(report);
  if (cacheable(report)) {
    Entry entry;
    entry.report_json = reply.report_json;
    entry.verdict = reply.verdict;
    entry.exit_code = reply.exit_code;
    store(key, std::move(entry));
  }
  reply.seconds = timer.seconds();
  return reply;
}

void VerifierService::serve(std::istream& in, std::ostream& out,
                            const RequestSpec& defaults,
                            const std::vector<std::string>& extra_properties) {
  auto error_reply = [&](const std::string& id, const std::string& message) {
    Reply error;
    error.error = message;
    write_envelope(out, kServeHead, "id", id, error, nullptr);
    out << ".\n" << std::flush;
  };
  std::string line;
  while (read_line(in, line)) {
    std::istringstream header(line);
    std::string command;
    header >> command;
    if (command.empty()) continue;
    if (command == "quit") return;
    if (command == "stats") {
      out << kServeHead << "\"stats\":true," << counters(stats_)
          << ",\"cache_stores\":" << stats_.cache_stores
          << ",\"cache_evictions\":" << stats_.cache_evictions
          << ",\"cache_size\":" << cache_.size() << "}\n.\n" << std::flush;
      continue;
    }
    if (command != "verify") {
      error_reply("", "unknown command '" + command + "'");
      continue;
    }

    // Header options override the defaults for this request only; the
    // first bad one ends the header.
    RequestSpec spec = defaults;
    std::string id;
    std::string error;
    std::string token;
    while (error.empty() && header >> token) {
      const auto eq = token.find('=');
      const std::string_view key = std::string_view(token).substr(0, eq);
      if (eq == std::string::npos) {
        error = "malformed option '" + token + "' (expected k=v)";
      } else if (key == "id") {
        id = token.substr(eq + 1);
      } else {
        error = set_option(spec, key, std::string_view(token).substr(eq + 1));
      }
    }

    // Consume the program body even when the header was bad, so the stream
    // stays framed on the next request.
    std::string body;
    bool terminated = false;
    while (!terminated && read_line(in, line)) {
      terminated = line == ".";
      if (!terminated) body += line + '\n';
    }
    if (!terminated) {
      error_reply(id, "unexpected EOF inside a request body");
      return;
    }
    if (!error.empty()) {
      error_reply(id, error);
      continue;
    }
    const Reply reply = verify_source(body, spec.request, extra_properties);
    write_envelope(out, kServeHead, "id", id, reply, &stats_);
    if (spec.json) out << reply.report_json;  // newline-terminated
    out << ".\n" << std::flush;
  }
}

int VerifierService::run_batch(std::istream& manifest, std::ostream& out,
                               const RequestSpec& spec,
                               const std::vector<std::string>& extra_properties) {
  int exit_code = 0;
  std::size_t entries = 0;
  std::string line;
  while (read_line(manifest, line)) {
    const auto start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    const std::string path =
        line.substr(start, line.find_last_not_of(" \t") - start + 1);
    ++entries;
    Reply reply;
    std::ifstream file(path, std::ios::binary);
    if (!file) {
      reply.error = "cannot open '" + path + "'";
    } else {
      std::ostringstream source;
      source << file.rdbuf();
      reply = verify_source(source.str(), spec.request, extra_properties);
    }
    write_envelope(out, kBatchHead, "file", path, reply, &stats_);
    if (spec.json) out << reply.report_json;  // newline-terminated
    exit_code = combine_exit(exit_code, reply.exit_code);
  }
  out << kBatchHead << "\"summary\":true,\"entries\":" << entries << ","
      << counters(stats_) << ",\"exit\":" << exit_code << "}\n";
  return exit_code;
}

}  // namespace mcsym::check
