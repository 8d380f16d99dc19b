// Verification as a service: the session layer above Verifier::verify.
//
// The engines answer one program per call and stay ignorant of traffic
// shape (the SimGrid mc_api precedent); this layer owns what repeated
// traffic needs. One VerifierService instance serves many requests —
// run_batch drives it across a manifest (`mcsym verify --batch`), serve
// keeps one alive for a long-running request loop (`mcsym serve`) —
// reusing the Verifier and, above all, a content-addressed verdict cache:
//
//  * The key canonicalizes the PROGRAM (mcapi::canonical_fingerprint —
//    alpha-renamed threads/endpoints/locals hash identically, any
//    structural or data change does not), the PROPERTIES (variable names
//    resolved to slots; labels included, they appear in reports), and the
//    semantic REQUEST CONFIG (engine, delivery mode, trace plan, encoding
//    knobs, non-wall-clock budgets). Wall-clock budget, worker count, and
//    the progress callback are excluded: they change how fast an answer
//    arrives, never which answer is correct.
//  * Only definitive, complete verdicts are cached (safe / violation /
//    deadlock / non-termination, not cancelled, no engine truncated), so a
//    budget-starved answer can never shadow a real one.
//  * A hit returns the stored mcsym.verify/1 JSON byte-for-byte (the
//    stored text IS the miss's serialization — timing fields show the
//    original run) without constructing a single engine. An LRU bound
//    keeps a long-lived server's memory flat.
//  * Lookup is two-level. An exact-text memo sits in front of the
//    canonical cache: it maps a SPELLING — the source bytes, the extra
//    property texts and a digest of the semantic request config — to the
//    canonical key its parse produced, and to the program name it parsed
//    to. A verbatim repeat is answered from the memo without parsing or
//    fingerprinting; the memo compares whole spellings, so it adds no
//    collision risk beyond the canonical key's. A first-seen spelling
//    (e.g. an alpha-renaming) takes the canonical path and, on a hit or a
//    store, is recorded. Spellings belong to their canonical entry: each
//    entry keeps its newest kSpellingsPerEntry, and evicting or clearing
//    the entry drops them, so the memo is bounded by the same LRU.
//
// The service also owns the wire protocol both front ends speak: one
// request-option table (set_option) for `--key value` flags and serve
// `key=value` headers, and the mcsym.batch/1 / mcsym.serve/1 envelope
// lines. The per-request mcsym.verify/1 contract is unchanged;
// service-level counters (hits/misses/stores) ride in the Reply and the
// service's envelope lines, never inside the report.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "check/verifier.hpp"
#include "support/hash.hpp"

namespace mcsym::check {

/// One request as either front end spells it: the Verifier request plus
/// whether the reply carries the full mcsym.verify/1 report.
struct RequestSpec {
  VerifyRequest request;
  bool json = false;
};

/// The request-option table both front ends share. `mcsym verify` maps
/// `--key value`, `--key=value` and a bare switch `--key` (as "1") onto it;
/// a serve header maps `key=value`. Options:
///
///   engine           symbolic | explicit | dpor | dpor-sleepset | portfolio
///   seed, traces     trace plan (first scheduler seed, traces to check)
///   workers          threads for the symbolic stage and the portfolio's
///                    engines (DPOR and explicit explore serially); `auto`
///                    or 0 = hardware concurrency, clamped to [1, 64]
///   round-robin, stateful                           switches (0 = off)
///   state-capacity   visited-store capacity; implies stateful
///   max-seconds, max-states, max-transitions, conflicts     budgets
///                    (max-states / max-transitions 0 = the facade default)
///   timeout          wall-clock seconds, enforced through the progress
///                    callback (0 = none)
///   precise, no-fifo, delay-ignorant, assert-props  encoding switches
///   json             append the mcsym.verify/1 report to the reply
///
/// Numbers must be plain non-negative decimals that fit their field.
/// Returns "" on success, otherwise the error text (spec is then
/// unspecified for that key).
[[nodiscard]] std::string set_option(RequestSpec& spec, std::string_view key,
                                     std::string_view value);

/// True when `key` is a switch in the option table — one that a bare
/// command-line `--key` turns on.
[[nodiscard]] bool is_switch_option(std::string_view key);

class VerifierService {
 public:
  struct Options {
    /// Cached verdicts kept (LRU eviction). 0 disables the cache.
    std::size_t cache_capacity = 256;
  };

  /// Outcome of one service request. `report_json` always carries the full
  /// mcsym.verify/1 document when ok — on a cache hit it is byte-identical
  /// to the serialization stored by the original miss.
  struct Reply {
    bool ok = false;        // false: source failed to parse (see error)
    bool cache_hit = false;
    bool cancelled = false;
    Verdict verdict = Verdict::kUnknown;
    /// verdict_exit_code, or 2 for an input error.
    int exit_code = 2;
    double seconds = 0;      // wall clock spent serving this request
    std::string name;        // program name from the source text
    std::string error;       // parse diagnostics when !ok
    std::string report_json; // mcsym.verify/1 (empty when !ok)
  };

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t parse_errors = 0;
    std::uint64_t cache_hits = 0;
    /// The subset of cache_hits answered from the exact-text memo, without
    /// parsing the source.
    std::uint64_t verbatim_hits = 0;
    std::uint64_t cache_misses = 0;  // served by running the engines
    std::uint64_t cache_stores = 0;  // fresh verdicts that were cacheable
    std::uint64_t cache_evictions = 0;
  };

  VerifierService() : VerifierService(Options()) {}
  explicit VerifierService(Options options);

  /// Spellings the exact-text memo keeps per cached verdict; the oldest is
  /// dropped first.
  static constexpr std::size_t kSpellingsPerEntry = 4;

  /// Serves one request: answers a verbatim repeat from the exact-text
  /// memo, otherwise parses `.mcp` source text and consults the canonical
  /// cache, and runs the engines only on a miss. `request.properties` is
  /// replaced by the source's `property` lines plus `extra_properties`
  /// (parsed against the program, as the CLI's --property); every other
  /// request field is honored as Verifier::verify would.
  Reply verify_source(std::string_view source, const VerifyRequest& request,
                      const std::vector<std::string>& extra_properties = {});

  /// Runs the line-oriented request loop until `quit` or EOF:
  ///
  ///   verify [k=v ...]      header (set_option keys, plus id=, which is
  ///     <.mcp lines>        echoed in the reply); the program text
  ///     .                   follows, ended by a line holding only "."
  ///   stats                 cumulative service counters
  ///   quit                  return (as does EOF)
  ///
  /// Header options override `defaults` for that request. Every reply is
  /// one mcsym.serve/1 envelope line, then (json=1, ok) the report, then a
  /// line holding only ".". Bad headers, unknown commands, unparseable
  /// programs and exhausted budgets each get a reply and the loop goes
  /// on; a bad header's body is still consumed, and EOF inside a body is
  /// answered with an error reply before returning.
  void serve(std::istream& in, std::ostream& out, const RequestSpec& defaults,
             const std::vector<std::string>& extra_properties = {});

  /// Verifies every `.mcp` path listed in `manifest` (one per line, blank
  /// lines and `#` comments skipped), writing one mcsym.batch/1 envelope
  /// line per entry (with spec.json, followed by its report) and a summary
  /// line. Returns the worst exit code: 2 > 1 > 4 > 3 > 0.
  int run_batch(std::istream& manifest, std::ostream& out,
                const RequestSpec& spec,
                const std::vector<std::string>& extra_properties = {});

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }
  /// Spellings held by the exact-text memo (at most kSpellingsPerEntry
  /// per cached verdict).
  [[nodiscard]] std::size_t memo_size() const { return memo_.size(); }
  void clear_cache();

  /// The cache key of one (source, request) pairing — exposed so tests can
  /// pin canonicalization (alpha-renames collide, mutants separate)
  /// without going through a full verification. ok=false when the source
  /// does not parse.
  struct KeyResult {
    bool ok = false;
    support::Hash128 key;
  };
  [[nodiscard]] KeyResult cache_key(
      std::string_view source, const VerifyRequest& request,
      const std::vector<std::string>& extra_properties = {}) const;

 private:
  struct Entry {
    std::string report_json;
    Verdict verdict = Verdict::kUnknown;
    int exit_code = 3;
    std::list<support::Hash128>::iterator lru;  // position in lru_ (MRU front)
    /// The memo_ keys that resolve to this entry, oldest first (at most
    /// kSpellingsPerEntry). Node-based map keys never move.
    std::vector<const std::string*> spellings;
  };

  /// What one spelling parsed to.
  struct Spelled {
    support::Hash128 key;
    std::string name;
  };

  void answer_hit(Entry& entry, const support::Hash128& key, Reply& reply);
  void touch(Entry& entry, const support::Hash128& key);
  Entry& store(const support::Hash128& key, Entry entry);  // capacity > 0
  void remember(Entry& entry, const support::Hash128& key,
                std::string spelling, std::string name);
  void forget_spellings(const Entry& entry);

  Options options_;
  Verifier verifier_;
  Stats stats_;
  std::unordered_map<support::Hash128, Entry> cache_;
  std::list<support::Hash128> lru_;  // front = most recently used
  std::unordered_map<std::string, Spelled> memo_;  // spelling -> parse
};

}  // namespace mcsym::check
