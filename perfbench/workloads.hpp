// The benchmark's four workloads: seeded inputs, the request sequence a
// closed-loop client sends, and the known answer of every input.
//
// Each workload is a pool of inputs plus a weighting. The weights place
// the median request inside one "anchor" cluster of identical programs and
// the tail inside a heavier cluster, so neither percentile can fall into
// the gap between two program sizes whichever random draws a seed makes
// (see README.md, "Design against noise").
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "check/verifier.hpp"
#include "mcapi/program.hpp"
#include "support/rng.hpp"

namespace perfbench {

enum class WorkloadKind : std::uint8_t {
  kDporExhaustive,
  kDporParallel,
  kSymbolicTraces,
  kServeMixed,
};

[[nodiscard]] std::optional<WorkloadKind> workload_from_name(std::string_view name);
[[nodiscard]] const char* workload_name(WorkloadKind kind);

/// Where an input's known answer comes from.
enum class AnswerSource : std::uint8_t {
  kClosedForm,  // verdict and execution count fixed by a formula
  kPinned,      // verdict fixed by hand (documented beside the input)
  kExplicit,    // the explicit engine, after the timed phase
};

/// serve_mixed traffic classes: the anchor is one fixed program sent as a
/// fixed share of requests (always a hit, it holds the median); hot
/// programs share the rest by Zipf popularity; cold programs are sent in
/// rotation and always miss.
enum class ServeRole : std::uint8_t { kHot, kCold, kAnchor };

struct Input {
  std::string name;
  mcsym::mcapi::Program program;
  mcsym::check::VerifyRequest request;  // engine, workers, traces, properties
  /// serve_mixed: the .mcp text sent to the service and an alpha-renamed
  /// spelling of it (same canonical program, different bytes).
  std::string source;
  std::string renamed;
  AnswerSource answer = AnswerSource::kExplicit;
  std::optional<mcsym::check::Verdict> expected;     // kClosedForm / kPinned
  std::optional<std::uint64_t> expected_executions;  // kClosedForm
  std::uint32_t weight = 1;  // requests per cycle of the sequence
  ServeRole role = ServeRole::kHot;  // serve_mixed traffic class
};

struct Request {
  std::uint32_t input = 0;
  bool renamed = false;
};

/// One workload instance: everything derived from (kind, seed).
struct Workload {
  WorkloadKind kind = WorkloadKind::kDporExhaustive;
  std::uint64_t seed = 0;
  std::deque<Input> inputs;  // deque: reports borrow Input::program
  std::size_t cache_capacity = 0;  // serve_mixed verdict-cache size
  /// random_program seeds the band search chose, in the order drawn.
  std::vector<std::uint64_t> draws;
  /// The tail percentile's ceiling: p99 where a run completes thousands of
  /// requests, p95 on dpor_parallel, which completes about a thousand.
  double tail_percentile = 99;
  /// Sizes the timed phase's latency buffer: about ten times today's rate.
  double max_requests_per_s = 5000;
};

/// Builds the inputs of `kind` from `seed`. serve_mixed reads the shipped
/// .mcp examples from `examples_dir`. With `draws` (an earlier build's
/// Workload::draws for the same kind and seed) the random programs are
/// generated from those seeds without repeating the band search. Throws
/// std::runtime_error when an input cannot be built.
[[nodiscard]] Workload make_workload(
    WorkloadKind kind, std::uint64_t seed, const std::string& examples_dir,
    const std::vector<std::uint64_t>* draws = nullptr);

/// The request stream of a workload: an endless, seed-determined sequence.
/// dpor_*/symbolic_traces cycle through a seeded shuffle of the weighted
/// pool; serve_mixed mixes the anchor, Zipf-popular hot inputs and the cold
/// rotation, and respells some requests with their renamed text.
class RequestStream {
 public:
  explicit RequestStream(const Workload& workload);
  Request next();

 private:
  const Workload* workload_;
  mcsym::support::Rng rng_;
  std::vector<std::uint32_t> cycle_;  // dpor/symbolic: current shuffled cycle
  std::size_t pos_ = 0;
  std::vector<std::uint32_t> hot_;    // serve: popularity rank -> input
  std::vector<double> hot_cdf_;
  std::vector<std::uint32_t> cold_;
  std::size_t cold_pos_ = 0;
  std::uint32_t anchor_ = 0;
};

/// Fingerprint of the inputs and of the first `requests` requests: equal
/// fingerprints mean byte-identical request sequences.
[[nodiscard]] std::string input_fingerprint(const Workload& workload,
                                            std::size_t requests = 20000);

/// A counter of a report's engine rows by name; 0 when no row has it.
[[nodiscard]] std::uint64_t report_counter(
    const mcsym::check::VerifyReport& report, std::string_view name);

/// The known answer of one input, computed after the timed phase.
struct KnownAnswer {
  mcsym::check::Verdict verdict = mcsym::check::Verdict::kUnknown;
  std::optional<std::uint64_t> executions;
  bool decided = false;  // false: the reference engine ran out of budget
};
[[nodiscard]] KnownAnswer known_answer(const Input& input);

/// Why a served verdict does not count as correct; empty when it does.
[[nodiscard]] std::string judge(const KnownAnswer& answer,
                                mcsym::check::Verdict verdict,
                                std::optional<std::uint64_t> executions);

/// Alpha-renames every author-chosen identifier of .mcp text to a fresh
/// spelling derived from `salt`; keywords, numbers and quoted labels stay.
[[nodiscard]] std::string alpha_rename(std::string_view source,
                                       std::uint64_t salt);

}  // namespace perfbench
