// Measurement helpers of the end-to-end benchmark: nearest-rank
// percentiles, the tail-percentile rule, input fingerprints, and the span
// recorder of the traced run. Header-only and free of mcsym types so the
// self-test can pin the arithmetic without building a workload.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample with
/// at least p% of the samples at or below it. 0 for an empty sample.
inline double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Samples strictly above the nearest-rank p-th percentile position.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return n - std::min(rank, n);
}

/// The percentiles the tail metric may report. Capped at p99: on a
/// ten-second run p99.9 rests on a handful of requests that any scheduler
/// hiccup of the host moves.
inline constexpr double kTailLadder[] = {99, 95, 90, 75, 50};

struct Tail {
  double percentile = 50;  // which percentile the value is
  double value = 0;
  std::size_t samples = 0;  // sample count the percentile is taken over
  std::size_t beyond = 0;   // samples above it
};

/// The highest ladder percentile at or below `ceiling` with at least
/// `min_beyond` samples beyond it; p50 when even that has fewer. A workload
/// fixes its ceiling from its request volume, so which percentile a run
/// reports does not hinge on how many of its samples were quiet.
inline Tail tail_of(const std::vector<double>& sorted, double ceiling = 99,
                    std::size_t min_beyond = 10) {
  Tail t;
  t.samples = sorted.size();
  for (double p : kTailLadder) {
    if (p > ceiling) continue;
    if (samples_beyond(sorted.size(), p) >= min_beyond || p == 50) {
      t.percentile = p;
      break;
    }
  }
  t.value = percentile(sorted, t.percentile);
  t.beyond = samples_beyond(sorted.size(), t.percentile);
  return t;
}

/// FNV-1a, 64-bit: the input-sequence fingerprint. Two runs printing the
/// same fingerprint sent byte-identical requests in the same order.
class Fingerprint {
 public:
  void mix(std::string_view bytes) {
    for (unsigned char c : bytes) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
    h_ ^= 0xff;  // field separator: ("ab","c") != ("a","bc")
    h_ *= 0x100000001b3ULL;
  }
  void mix(std::uint64_t v) { mix(std::to_string(v)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const {
    static const char* kDigits = "0123456789abcdef";
    std::string s(16, '0');
    for (std::size_t i = 0; i < 16; ++i) s[15 - i] = kDigits[(h_ >> (4 * i)) & 0xf];
    return s;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host-interference probe: a fixed piece of standard-library work (a sort,
/// tree-map and hash-map traffic) that shares no code with mcsym. On a
/// shared host, other tenants slow every process down in bursts of about a
/// second; this probe slows down with them (less than mcsym does, but
/// clearly), so it tells quiet stretches of a run from disturbed ones.
/// Returns how long it took, in seconds (~0.2 ms on a 4-vCPU Xeon VM).
inline double reference_probe_once() {
  const double start = now_seconds();
  std::vector<std::uint32_t> d(1024);
  std::uint32_t x = 12345;
  for (auto& e : d) e = x = x * 1103515245u + 12345u;
  std::sort(d.begin(), d.end());
  std::map<std::uint32_t, std::uint32_t> tree;
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> hash;
  for (std::uint32_t i = 0; i < 400; ++i) {
    tree[d[(i * 7919) % d.size()]] = i;
    hash[d[i] % 128].push_back(i);
  }
  std::uint32_t acc = 0;
  for (std::uint32_t i = 0; i < 2500; ++i) {
    const auto it = tree.find(d[i % d.size()]);
    if (it != tree.end()) acc += it->second;
  }
  for (const auto& [key, list] : hash) acc += static_cast<std::uint32_t>(list.size());
  volatile std::uint32_t sink = 0;
  sink = acc;
  (void)sink;
  return now_seconds() - start;
}

/// The probe on `threads` threads at once, as many as a request keeps
/// busy, so that a disturbance on any of the CPUs they land on shows: the
/// slowest copy's time.
inline double reference_probe(unsigned threads = 1) {
  if (threads <= 1) return reference_probe_once();
  std::vector<double> times(threads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&times, t] { times[t] = reference_probe_once(); });
  }
  for (std::thread& th : pool) th.join();
  return *std::max_element(times.begin(), times.end());
}

/// The probe after other work: its first run reads slow on a quiet host
/// (cold caches), so this is the fastest of three.
inline double settled_probe(unsigned threads = 1) {
  return std::min({reference_probe(threads), reference_probe(threads),
                   reference_probe(threads)});
}

struct QuietMedian {
  double value = 0;
  std::size_t kept = 0;  // intervals the median is taken over
};

/// The median of the `values` of timed intervals whose settled probes
/// before and after both lie within `tolerance` of `fast`, the run's fast
/// probe level; the median of all values when no interval is quiet.
inline QuietMedian quiet_median(const std::vector<double>& values,
                                const std::vector<double>& before,
                                const std::vector<double>& after, double fast,
                                double tolerance = 1.12) {
  std::vector<double> kept;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (std::max(before[i], after[i]) <= tolerance * fast) kept.push_back(values[i]);
  }
  if (kept.empty()) kept = values;
  std::sort(kept.begin(), kept.end());
  const std::size_t n = kept.size();
  return {n % 2 == 1 ? kept[n / 2] : (kept[n / 2 - 1] + kept[n / 2]) / 2, n};
}

/// Which slices of a run were quiet. `probes` holds the reference-probe
/// time measured before slice j at index j and after the last slice at the
/// end, so slice j lies between probes j and j + 1. A slice is quiet when
/// the slower of its two probes is within `tolerance` of the run's fast
/// level (the 10th percentile of all probes). At least a quarter of the
/// slices are always kept: the quietest quarter, when the whole run was
/// disturbed.
inline std::vector<bool> quiet_slices(const std::vector<double>& probes,
                                      double tolerance = 1.12) {
  if (probes.size() < 2) return {};
  std::vector<double> sorted = probes;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> score(probes.size() - 1);
  for (std::size_t j = 0; j + 1 < probes.size(); ++j) {
    score[j] = std::max(probes[j], probes[j + 1]);
  }
  std::vector<double> sorted_score = score;
  std::sort(sorted_score.begin(), sorted_score.end());
  const double limit = std::max(tolerance * percentile(sorted, 10),
                                percentile(sorted_score, 25));
  std::vector<bool> quiet(score.size());
  for (std::size_t j = 0; j < score.size(); ++j) quiet[j] = score[j] <= limit;
  return quiet;
}

/// One timed interval of the traced run. Spans nest: `parent` indexes the
/// enclosing span in the recorder (-1 for a request root), and every span of
/// one request carries that request's id.
struct Span {
  std::string name;
  double start = 0;  // seconds, steady clock
  double end = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// In-memory span store. open()/close() nest like a call stack; nothing is
/// written until the run ends.
class SpanRecorder {
 public:
  std::size_t open(std::string name, std::uint64_t request) {
    Span s;
    s.name = std::move(name);
    s.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    s.request = request;
    s.start = now_seconds();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close() {
    spans_[stack_.back()].end = now_seconds();
    stack_.pop_back();
  }
  void rename(std::size_t index, std::string name) {
    spans_[index].name = std::move(name);
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name, std::uint64_t request)
      : rec_(rec) {
    if (rec_ != nullptr) rec_->open(std::move(name), request);
  }
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
};

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover. Children of one span run one after another,
/// so their union is the sum of their clipped durations.
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end - spans[i].start;
  }
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const double covered =
        std::max(0.0, std::min(s.end, p.end) - std::max(s.start, p.start));
    self[static_cast<std::size_t>(s.parent)] -= covered;
  }
  return self;
}

/// Total self time per span name, in seconds.
inline std::unordered_map<std::string, double> self_time_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::unordered_map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

/// Sorted durations (seconds) of every span called `name`.
inline std::vector<double> durations_of(const std::vector<Span>& spans,
                                        std::string_view name) {
  std::vector<double> d;
  for (const Span& s : spans) {
    if (s.name == name) d.push_back(s.end - s.start);
  }
  std::sort(d.begin(), d.end());
  return d;
}

}  // namespace perfbench
