// VerifierService: the content-addressed verdict cache and its
// canonicalization contract.
//
// The load-bearing properties, each pinned here:
//  * alpha-renaming invariance — renaming every identifier in a program's
//    source (threads, endpoints, locals, labels) leaves the cache key
//    unchanged, across a seeded random-program battery;
//  * semantic sensitivity — flipping one payload constant or reordering
//    two distinct sends changes the key (a cache hit must never cross a
//    behavioral difference);
//  * byte-identical hits — a cache hit returns exactly the bytes the miss
//    serialized, and is ≥10x faster than running the engines;
//  * worker-count-blind hits — a verdict stored by a threaded miss is the
//    report a serial request computes, timing fields aside;
//  * the exact-text memo — a verbatim repeat is answered without parsing
//    and carries the name its spelling parsed to, a first-seen renaming
//    still takes the canonical path, any semantic config change misses
//    it, and it is bounded by (and cleared with) the LRU entries;
//  * only definitive complete verdicts are stored (no budget-exhausted or
//    cancelled entries), and the LRU bound holds.
//
// The wire protocol is pinned here too, in process: the request-option
// table's validation, the serve loop's framing (driven through string
// streams, including a seeded mutation battery over a request stream
// built from the shipped examples), and the batch envelope and summary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "check/random_program.hpp"
#include "check/service.hpp"
#include "check/verifier.hpp"
#include "mcapi/canonical.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "text/program_text.hpp"

#ifndef MCSYM_EXAMPLES_DIR
#error "MCSYM_EXAMPLES_DIR must be defined by the build"
#endif

namespace mcsym::check {
namespace {

/// Grammar keywords of the .mcp format; every other identifier token is an
/// author-chosen name that alpha-renaming may replace.
bool is_keyword(const std::string& word) {
  static const std::unordered_set<std::string> kKeywords = {
      "program", "thread", "endpoint", "send",   "recv",     "recv_i",
      "test",    "wait",   "wait_any", "assign", "label",    "if",
      "goto",    "assert", "nop",      "property", "req",
  };
  return kKeywords.contains(word);
}

/// Renames every non-keyword identifier in `.mcp` source text to a fresh
/// `<prefix><k>` name, consistently (same spelling -> same replacement).
/// This is a whole-program bijective alpha-renaming: threads, endpoints,
/// locals, and labels all change spelling, nothing else does. Quoted
/// strings (property labels) are left alone — labels are report content,
/// not names.
std::string alpha_rename(const std::string& source,
                         const std::string& prefix = "zz") {
  std::string out;
  out.reserve(source.size());
  std::unordered_map<std::string, std::string> renamed;
  std::size_t i = 0;
  bool in_quote = false;
  while (i < source.size()) {
    const char c = source[i];
    if (in_quote) {
      out += c;
      if (c == '"') in_quote = false;
      ++i;
      continue;
    }
    if (c == '"') {
      in_quote = true;
      out += c;
      ++i;
      continue;
    }
    if (c == '#') {  // comment to end of line: copy verbatim
      while (i < source.size() && source[i] != '\n') out += source[i++];
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t j = i;
      while (j < source.size() &&
             (std::isalnum(static_cast<unsigned char>(source[j])) ||
              source[j] == '_')) {
        ++j;
      }
      const std::string word = source.substr(i, j - i);
      if (is_keyword(word)) {
        out += word;
      } else {
        auto it = renamed.find(word);
        if (it == renamed.end()) {
          it = renamed.emplace(word, prefix + std::to_string(renamed.size()))
                   .first;
        }
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

/// Flips the last integer literal of the first `send` line (the payload
/// constant or expression offset). Empty string when the text has no send.
std::string flip_payload(const std::string& source) {
  std::size_t line_start = 0;
  while (line_start < source.size()) {
    std::size_t line_end = source.find('\n', line_start);
    if (line_end == std::string::npos) line_end = source.size();
    std::string line = source.substr(line_start, line_end - line_start);
    std::size_t first = line.find_first_not_of(" \t");
    if (first != std::string::npos && line.compare(first, 5, "send ") == 0) {
      // Find the last digit run on the line and bump it.
      std::size_t d = line.find_last_of("0123456789");
      if (d != std::string::npos) {
        std::size_t s = d;
        while (s > 0 && std::isdigit(static_cast<unsigned char>(line[s - 1]))) {
          --s;
        }
        const int value = std::stoi(line.substr(s, d - s + 1));
        line = line.substr(0, s) + std::to_string(value + 1) +
               line.substr(d + 1);
        return source.substr(0, line_start) + line + source.substr(line_end);
      }
    }
    line_start = line_end + 1;
  }
  return {};
}

/// Swaps the first pair of adjacent, textually distinct `send` lines
/// (different destination or payload, so the swap is a real behavioral
/// reordering). Empty string when no such pair exists.
std::string swap_adjacent_sends(const std::string& source) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos <= source.size()) {
    const std::size_t end = source.find('\n', pos);
    if (end == std::string::npos) {
      lines.push_back(source.substr(pos));
      break;
    }
    lines.push_back(source.substr(pos, end - pos));
    pos = end + 1;
  }
  auto is_send = [](const std::string& line) {
    const std::size_t first = line.find_first_not_of(" \t");
    return first != std::string::npos && line.compare(first, 5, "send ") == 0;
  };
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    if (is_send(lines[i]) && is_send(lines[i + 1]) &&
        lines[i] != lines[i + 1]) {
      std::swap(lines[i], lines[i + 1]);
      std::string out;
      for (std::size_t k = 0; k < lines.size(); ++k) {
        out += lines[k];
        if (k + 1 < lines.size()) out += '\n';
      }
      return out;
    }
  }
  return {};
}

TEST(ServiceCacheKey, AlphaRenamesHitMutantsMiss) {
  VerifierService service;
  VerifyRequest req;
  const std::uint64_t seeds = support::env_u64("MCSYM_TEST_ITERS", 40);
  std::uint64_t renamed_checked = 0;
  std::uint64_t payload_checked = 0;
  std::uint64_t reorder_checked = 0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    RandomProgramOptions opts;
    opts.threads = 3;
    opts.allow_nonblocking = (seed % 2) == 0;
    opts.allow_wait_any = (seed % 3) == 0;
    opts.add_asserts = (seed % 2) == 1;
    const mcapi::Program program = random_program(seed, opts);
    const std::string text = text::program_to_text(program, {}, "unit");
    const auto base = service.cache_key(text, req);
    ASSERT_TRUE(base.ok) << text;

    const std::string renamed = alpha_rename(text);
    ASSERT_NE(renamed, text) << "rename was a no-op for seed " << seed;
    const auto renamed_key = service.cache_key(renamed, req);
    ASSERT_TRUE(renamed_key.ok) << renamed;
    EXPECT_EQ(base.key, renamed_key.key)
        << "alpha-renaming changed the key for seed " << seed << "\n"
        << text << "\n--- renamed ---\n"
        << renamed;
    ++renamed_checked;

    if (const std::string flipped = flip_payload(text); !flipped.empty()) {
      const auto flipped_key = service.cache_key(flipped, req);
      ASSERT_TRUE(flipped_key.ok) << flipped;
      EXPECT_NE(base.key, flipped_key.key)
          << "payload flip kept the key for seed " << seed << "\n"
          << flipped;
      ++payload_checked;
    }
    if (const std::string swapped = swap_adjacent_sends(text);
        !swapped.empty()) {
      const auto swapped_key = service.cache_key(swapped, req);
      ASSERT_TRUE(swapped_key.ok) << swapped;
      EXPECT_NE(base.key, swapped_key.key)
          << "send reorder kept the key for seed " << seed << "\n"
          << swapped;
      ++reorder_checked;
    }
  }
  // The battery must actually exercise each direction, not vacuously pass.
  EXPECT_EQ(renamed_checked, seeds);
  EXPECT_GT(payload_checked, 0u);
  EXPECT_GT(reorder_checked, 0u);
}

TEST(ServiceCacheKey, FingerprintMatchesDirectCanonicalHash) {
  // cache_key is built on mcapi::canonical_fingerprint; sanity-pin the
  // underlying fingerprint's rename invariance without the service layer.
  const mcapi::Program program = random_program(7);
  const std::string text = text::program_to_text(program, {}, "unit");
  const auto reparsed = text::parse_program(alpha_rename(text));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(mcapi::canonical_fingerprint(program),
            mcapi::canonical_fingerprint(reparsed.parsed->program));
}

TEST(ServiceCacheKey, SemanticConfigSeparatesSpeedKnobsDoNot) {
  VerifierService service;
  const mcapi::Program program = random_program(3);
  const std::string text = text::program_to_text(program, {}, "unit");

  VerifyRequest base;
  const auto k0 = service.cache_key(text, base);
  ASSERT_TRUE(k0.ok);

  // Engine, budgets, and encoding knobs change which answer is computed.
  VerifyRequest other = base;
  other.engine = Engine::kSymbolic;
  EXPECT_NE(k0.key, service.cache_key(text, other).key);
  other = base;
  other.budget.max_transitions = 17;
  EXPECT_NE(k0.key, service.cache_key(text, other).key);
  other = base;
  other.symbolic.encode.fifo_non_overtaking = false;
  EXPECT_NE(k0.key, service.cache_key(text, other).key);
  other = base;
  other.trace_seed = 99;
  EXPECT_NE(k0.key, service.cache_key(text, other).key);

  // Workers and wall clock only change how fast it is computed.
  other = base;
  other.workers = 8;
  other.budget.max_seconds = 123.0;
  EXPECT_EQ(k0.key, service.cache_key(text, other).key);
}

TEST(ServiceCacheKey, PropertyLabelsAndOperandsAreKeyed) {
  VerifierService service;
  const mcapi::Program program = random_program(5);
  const std::string text = text::program_to_text(program, {}, "unit");
  VerifyRequest req;
  const auto plain = service.cache_key(text, req);
  ASSERT_TRUE(plain.ok);
  // random_program names its threads rt0... with locals v0/acc; build a
  // property against the first thread's first local.
  const std::string var = program.thread(0).slot_names.empty()
                              ? std::string()
                              : std::string(program.thread(0).slot_names[0]);
  if (var.empty()) GTEST_SKIP() << "seed produced a thread with no locals";
  const std::string body = program.thread(0).name + "." + var + " == 1";
  const auto with_prop = service.cache_key(text, req, {body});
  ASSERT_TRUE(with_prop.ok);
  EXPECT_NE(plain.key, with_prop.key);
  // Labels appear in reports, so label-only differences must separate too.
  const auto labeled =
      service.cache_key(text, req, {"\"pinned\" " + body});
  ASSERT_TRUE(labeled.ok);
  EXPECT_NE(with_prop.key, labeled.key);
}

TEST(ServiceCache, HitIsByteIdenticalAndFast) {
  VerifierService service;
  RandomProgramOptions opts;
  opts.threads = 4;
  opts.add_asserts = true;
  const mcapi::Program program = random_program(11, opts);
  const std::string text = text::program_to_text(program, {}, "unit");
  VerifyRequest req;
  req.engine = Engine::kDporOptimal;

  const auto miss = service.verify_source(text, req);
  ASSERT_TRUE(miss.ok) << miss.error;
  EXPECT_FALSE(miss.cache_hit);
  ASSERT_EQ(service.stats().cache_stores, 1u);

  const auto hit = service.verify_source(text, req);
  ASSERT_TRUE(hit.ok);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.verdict, miss.verdict);
  EXPECT_EQ(hit.exit_code, miss.exit_code);
  // The contract: the stored document IS the miss's serialization, byte
  // for byte — timing fields show the original run, nothing is recomputed.
  EXPECT_EQ(hit.report_json, miss.report_json);

  // A verbatim repeat is answered from the exact-text memo without even
  // parsing the source; no hit ever constructs an engine. The pinned floor
  // is 10x, with the battery's program chosen big enough that the real
  // ratio is orders of magnitude beyond it.
  EXPECT_GE(miss.seconds, 10 * hit.seconds)
      << "miss " << miss.seconds << "s vs hit " << hit.seconds << "s";

  // An alpha-renamed resubmission is the same cached problem.
  const auto renamed_hit = service.verify_source(alpha_rename(text), req);
  ASSERT_TRUE(renamed_hit.ok) << renamed_hit.error;
  EXPECT_TRUE(renamed_hit.cache_hit);
  EXPECT_EQ(renamed_hit.report_json, miss.report_json);
  EXPECT_EQ(service.stats().cache_hits, 2u);
  EXPECT_EQ(service.stats().cache_misses, 1u);
}

TEST(ServiceCache, IndefiniteVerdictsAreNotStored) {
  VerifierService service;
  RandomProgramOptions opts;
  opts.threads = 4;
  const mcapi::Program program = random_program(13, opts);
  const std::string text = text::program_to_text(program, {}, "unit");
  VerifyRequest req;
  req.engine = Engine::kDporOptimal;
  req.budget.max_transitions = 1;  // guarantees exhaustion on this program

  const auto starved = service.verify_source(text, req);
  ASSERT_TRUE(starved.ok);
  EXPECT_EQ(starved.verdict, Verdict::kBudgetExhausted);
  EXPECT_EQ(starved.exit_code, 3);
  EXPECT_EQ(service.cache_size(), 0u);
  EXPECT_EQ(service.stats().cache_stores, 0u);

  // The same request again runs the engines again — and a later
  // better-funded request gets the real verdict, not the starved one.
  const auto again = service.verify_source(text, req);
  EXPECT_FALSE(again.cache_hit);
  req.budget.max_transitions = 0;
  VerifyRequest funded;
  funded.engine = Engine::kDporOptimal;
  const auto real = service.verify_source(text, funded);
  ASSERT_TRUE(real.ok);
  EXPECT_NE(real.verdict, Verdict::kBudgetExhausted);
}

TEST(ServiceCache, LruBoundEvictsOldest) {
  VerifierService::Options options;
  options.cache_capacity = 2;
  VerifierService service(options);
  VerifyRequest req;
  std::vector<std::string> texts;
  for (std::uint64_t seed = 21; seed < 24; ++seed) {
    texts.push_back(
        text::program_to_text(random_program(seed), {}, "unit"));
  }
  for (const auto& text : texts) {
    ASSERT_TRUE(service.verify_source(text, req).ok);
  }
  EXPECT_EQ(service.cache_size(), 2u);
  EXPECT_EQ(service.stats().cache_evictions, 1u);
  // texts[0] was evicted; texts[1] and texts[2] still hit.
  EXPECT_TRUE(service.verify_source(texts[2], req).cache_hit);
  EXPECT_TRUE(service.verify_source(texts[1], req).cache_hit);
  EXPECT_FALSE(service.verify_source(texts[0], req).cache_hit);

  VerifierService::Options off;
  off.cache_capacity = 0;
  VerifierService uncached(off);
  ASSERT_TRUE(uncached.verify_source(texts[0], req).ok);
  EXPECT_FALSE(uncached.verify_source(texts[0], req).cache_hit);
  EXPECT_EQ(uncached.cache_size(), 0u);
}

TEST(ServiceCache, ParseErrorsReportNotCrash) {
  VerifierService service;
  VerifyRequest req;
  const auto reply = service.verify_source("thread t0\n  bogus\n", req);
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.exit_code, 2);
  EXPECT_FALSE(reply.error.empty());
  EXPECT_TRUE(reply.report_json.empty());
  EXPECT_EQ(service.stats().parse_errors, 1u);
  EXPECT_EQ(service.cache_size(), 0u);
}

// --- the exact-text memo in front of the canonical cache ------------------------

std::string example(const std::string& name) {
  std::ifstream in(std::string(MCSYM_EXAMPLES_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << name;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string parsed_name(const std::string& source) {
  const auto parsed = text::parse_program(source);
  EXPECT_TRUE(parsed.ok()) << parsed.error_text();
  return parsed.ok() ? parsed.parsed->name : std::string();
}

TEST(ServiceCache, VerbatimMemoAnswersARepeatWithoutParsing) {
  VerifierService service;
  const std::string text =
      text::program_to_text(random_program(11), {}, "unit");
  VerifyRequest req;
  req.engine = Engine::kDporOptimal;

  const auto miss = service.verify_source(text, req);
  ASSERT_TRUE(miss.ok) << miss.error;
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_EQ(service.memo_size(), 1u);  // the store recorded its spelling

  const auto hit = service.verify_source(text, req);
  ASSERT_TRUE(hit.ok);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.name, "unit");
  EXPECT_EQ(hit.verdict, miss.verdict);
  EXPECT_EQ(hit.exit_code, miss.exit_code);
  EXPECT_EQ(hit.report_json, miss.report_json);
  EXPECT_EQ(service.stats().cache_hits, 1u);
  EXPECT_EQ(service.stats().verbatim_hits, 1u);
  EXPECT_EQ(service.stats().cache_misses, 1u);
  EXPECT_EQ(service.stats().cache_stores, 1u);
}

TEST(ServiceCache, VerbatimMemoLeavesFirstSeenRenamingsToTheCanonicalPath) {
  VerifierService service;
  const std::string text =
      text::program_to_text(random_program(12), {}, "unit");
  const std::string renamed = alpha_rename(text);
  const std::string renamed_name = parsed_name(renamed);
  ASSERT_NE(renamed_name, "unit");
  VerifyRequest req;
  req.engine = Engine::kDporOptimal;

  const auto miss = service.verify_source(text, req);
  ASSERT_TRUE(miss.ok) << miss.error;

  // First sight of the renaming: parsed, canonically keyed, a hit that
  // names the program as this spelling does.
  const auto canonical = service.verify_source(renamed, req);
  ASSERT_TRUE(canonical.ok) << canonical.error;
  EXPECT_TRUE(canonical.cache_hit);
  EXPECT_EQ(canonical.name, renamed_name);
  EXPECT_EQ(canonical.report_json, miss.report_json);
  EXPECT_EQ(service.stats().verbatim_hits, 0u);
  EXPECT_EQ(service.memo_size(), 2u);

  // Its second send is verbatim, and each spelling keeps its own name.
  const auto again = service.verify_source(renamed, req);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.name, renamed_name);
  EXPECT_EQ(again.report_json, miss.report_json);
  EXPECT_EQ(service.stats().verbatim_hits, 1u);
  EXPECT_EQ(service.verify_source(text, req).name, "unit");
  EXPECT_EQ(service.stats().verbatim_hits, 2u);
  EXPECT_EQ(service.stats().cache_hits, 3u);
  EXPECT_EQ(service.stats().cache_misses, 1u);
}

TEST(ServiceCache, VerbatimMemoKeysTheSemanticConfig) {
  VerifierService service;
  const std::string fig = example("figure1.mcp");
  VerifyRequest req;
  req.engine = Engine::kDporOptimal;
  ASSERT_TRUE(service.verify_source(fig, req).ok);

  // The same bytes under a different semantic config are a different
  // problem: neither layer may answer them from the first entry.
  VerifyRequest stateful = req;
  stateful.stateful = true;
  VerifyRequest traces = req;
  traces.traces = 3;
  for (const VerifyRequest& other : {stateful, traces}) {
    const auto reply = service.verify_source(fig, other);
    ASSERT_TRUE(reply.ok) << reply.error;
    EXPECT_FALSE(reply.cache_hit);
  }
  for (const char* prop : {"t0.B == 10", "t0.B == 20"}) {
    const auto with_prop = service.verify_source(fig, req, {prop});
    ASSERT_TRUE(with_prop.ok) << with_prop.error;
    EXPECT_FALSE(with_prop.cache_hit) << prop;
  }
  EXPECT_EQ(service.stats().cache_misses, 5u);
  EXPECT_EQ(service.stats().verbatim_hits, 0u);

  // Speed knobs stay out of the spelling, as they stay out of the key.
  VerifyRequest faster = req;
  faster.workers = 2;
  faster.budget.max_seconds = 1000;
  EXPECT_TRUE(service.verify_source(fig, faster).cache_hit);
  EXPECT_TRUE(service.verify_source(fig, req, {"t0.B == 10"}).cache_hit);
  EXPECT_EQ(service.stats().verbatim_hits, 2u);
}

/// A mcsym.verify/1 report with its wall-clock fields ("seconds" and the
/// "*_micros" counters) zeroed: what stays is fixed by the request.
std::string mask_timing(const std::string& json) {
  static const std::regex kTiming(R"(("seconds"|_micros"): [0-9.eE+-]+)");
  return std::regex_replace(json, kTiming, "$1: 0");
}

TEST(ServiceCache, ThreadedMissServesTheSerialReport) {
  // Workers stay out of the key because no report depends on them: a
  // verdict stored by a workers=4 miss must be the very report a serial
  // request computes, so a workers=1 hit hands out no worker-only rows.
  const std::string fig = example("figure1.mcp");
  const auto parsed = text::parse_program(fig);
  ASSERT_TRUE(parsed.ok()) << parsed.error_text();
  for (const Engine engine : {Engine::kDporOptimal, Engine::kPortfolio}) {
    SCOPED_TRACE(engine_name(engine));
    VerifierService service;
    VerifyRequest req;
    req.engine = engine;
    req.workers = 4;
    const auto miss = service.verify_source(fig, req);
    ASSERT_TRUE(miss.ok) << miss.error;
    EXPECT_FALSE(miss.cache_hit);

    req.workers = 1;
    const auto hit = service.verify_source(fig, req);
    ASSERT_TRUE(hit.ok) << hit.error;
    EXPECT_TRUE(hit.cache_hit);

    VerifyRequest fresh = req;
    fresh.properties = parsed.parsed->properties;
    const VerifyReport report =
        Verifier().verify(parsed.parsed->program, fresh);
    EXPECT_EQ(mask_timing(hit.report_json),
              mask_timing(report_to_json(report)));
  }
}

TEST(ServiceCache, VerbatimMemoForgetsAnEvictedEntry) {
  VerifierService::Options options;
  options.cache_capacity = 1;
  VerifierService service(options);
  VerifyRequest req;
  const std::string first =
      text::program_to_text(random_program(21), {}, "first");
  const std::string second =
      text::program_to_text(random_program(22), {}, "second");

  const auto original = service.verify_source(first, req);
  ASSERT_TRUE(original.ok) << original.error;
  ASSERT_TRUE(service.verify_source(second, req).ok);  // evicts `first`
  EXPECT_EQ(service.stats().cache_evictions, 1u);
  EXPECT_EQ(service.memo_size(), 1u);

  const auto repeat = service.verify_source(first, req);
  ASSERT_TRUE(repeat.ok);
  EXPECT_FALSE(repeat.cache_hit);  // re-verified, not served from the memo
  EXPECT_EQ(repeat.verdict, original.verdict);
  EXPECT_EQ(service.stats().cache_misses, 3u);
  EXPECT_EQ(service.stats().verbatim_hits, 0u);
  EXPECT_EQ(service.memo_size(), 1u);
}

TEST(ServiceCache, VerbatimMemoKeepsABoundedSetOfSpellingsPerEntry) {
  VerifierService service;
  const std::string text =
      text::program_to_text(random_program(31), {}, "unit");
  VerifyRequest req;
  ASSERT_TRUE(service.verify_source(text, req).ok);

  std::vector<std::string> renamings;
  for (int i = 0; i < 100; ++i) {
    renamings.push_back(alpha_rename(text, std::string("v").append(std::to_string(i)) + "_"));
    const auto reply = service.verify_source(renamings.back(), req);
    ASSERT_TRUE(reply.ok) << reply.error;
    EXPECT_TRUE(reply.cache_hit);
    EXPECT_LE(service.memo_size(), VerifierService::kSpellingsPerEntry);
  }
  EXPECT_EQ(service.cache_size(), 1u);
  EXPECT_EQ(service.stats().verbatim_hits, 0u);

  // The newest spellings are kept, the oldest were dropped first.
  EXPECT_TRUE(service.verify_source(renamings.back(), req).cache_hit);
  EXPECT_EQ(service.stats().verbatim_hits, 1u);
  EXPECT_TRUE(service.verify_source(renamings.front(), req).cache_hit);
  EXPECT_EQ(service.stats().verbatim_hits, 1u);
  EXPECT_EQ(service.memo_size(), VerifierService::kSpellingsPerEntry);
}

TEST(ServiceCache, VerbatimMemoIsEmptyWhenClearedOrDisabled) {
  const std::string text =
      text::program_to_text(random_program(41), {}, "unit");
  VerifyRequest req;

  VerifierService service;
  ASSERT_TRUE(service.verify_source(text, req).ok);
  service.clear_cache();
  EXPECT_EQ(service.memo_size(), 0u);
  EXPECT_FALSE(service.verify_source(text, req).cache_hit);
  EXPECT_EQ(service.stats().verbatim_hits, 0u);

  VerifierService::Options off;
  off.cache_capacity = 0;
  VerifierService uncached(off);
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(uncached.verify_source(text, req).cache_hit);
  }
  EXPECT_EQ(uncached.stats().verbatim_hits, 0u);
  EXPECT_EQ(uncached.memo_size(), 0u);
}

TEST(ServiceCache, VerbatimMemoDoesNotRememberParseErrors) {
  VerifierService service;
  VerifyRequest req;
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(service.verify_source("thread t0\n  bogus\n", req).ok);
  }
  EXPECT_EQ(service.stats().parse_errors, 2u);
  EXPECT_EQ(service.memo_size(), 0u);
}

// --- request-option table ------------------------------------------------------

TEST(RequestOptions, NumbersAreValidatedOnce) {
  RequestSpec spec;
  EXPECT_EQ(set_option(spec, "traces", "3"), "");
  EXPECT_EQ(spec.request.traces, 3u);
  // Negative, non-numeric, trailing characters, empty, and values that
  // overflow the field are all rejected — and leave the field alone.
  for (const char* bad : {"-1", "abc", "3x", "", " 3", "+3", "4294967296"}) {
    SCOPED_TRACE(bad);
    const std::string error = set_option(spec, "traces", bad);
    EXPECT_NE(error.find("bad value '" + std::string(bad) + "' for traces"),
              std::string::npos)
        << error;
    EXPECT_EQ(spec.request.traces, 3u);
  }
  EXPECT_EQ(set_option(spec, "seed", "18446744073709551615"), "");
  EXPECT_EQ(spec.request.trace_seed, 18446744073709551615ull);
  EXPECT_NE(set_option(spec, "seed", "18446744073709551616"), "");
  EXPECT_NE(set_option(spec, "conflicts", "1e3"), "");
  EXPECT_EQ(set_option(spec, "max-seconds", "0.5"), "");
  EXPECT_EQ(spec.request.budget.max_seconds, 0.5);
  for (const char* bad : {"-1", "inf", "nan", "1s"}) {
    EXPECT_NE(set_option(spec, "max-seconds", bad), "") << bad;
  }
  // 0 means the facade default for the two search budgets.
  EXPECT_EQ(set_option(spec, "max-states", "7"), "");
  EXPECT_EQ(spec.request.budget.max_states, 7u);
  EXPECT_EQ(set_option(spec, "max-states", "0"), "");
  EXPECT_EQ(spec.request.budget.max_states, Budget().max_states);
}

TEST(RequestOptions, WorkersResolveAutoAndClamp) {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::uint32_t resolved = std::clamp(hw == 0 ? 1u : hw, 1u, 64u);
  RequestSpec spec;
  for (const char* value : {"auto", "0"}) {
    spec.request.workers = 1;
    EXPECT_EQ(set_option(spec, "workers", value), "") << value;
    EXPECT_EQ(spec.request.workers, resolved) << value;
  }
  EXPECT_EQ(set_option(spec, "workers", "500"), "");
  EXPECT_EQ(spec.request.workers, 64u);
  EXPECT_NE(set_option(spec, "workers", "4x"), "");
  EXPECT_NE(set_option(spec, "workers", "-2"), "");
}

TEST(RequestOptions, SwitchesEngineTimeoutAndUnknownKeys) {
  RequestSpec spec;
  EXPECT_TRUE(is_switch_option("json"));
  EXPECT_TRUE(is_switch_option("no-fifo"));
  EXPECT_FALSE(is_switch_option("seed"));
  EXPECT_FALSE(is_switch_option("frobnicate"));

  EXPECT_EQ(set_option(spec, "no-fifo", "1"), "");
  EXPECT_FALSE(spec.request.symbolic.encode.fifo_non_overtaking);
  EXPECT_EQ(set_option(spec, "no-fifo", "0"), "");
  EXPECT_TRUE(spec.request.symbolic.encode.fifo_non_overtaking);
  EXPECT_EQ(set_option(spec, "assert-props", "1"), "");
  EXPECT_EQ(spec.request.symbolic.encode.property_mode,
            encode::PropertyMode::kAssert);
  EXPECT_EQ(set_option(spec, "precise", "1"), "");
  EXPECT_EQ(spec.request.symbolic.match_gen, MatchGen::kPrecise);
  EXPECT_EQ(set_option(spec, "json", "1"), "");
  EXPECT_TRUE(spec.json);

  // A capacity only means anything stateful, so it turns stateful on.
  EXPECT_EQ(set_option(spec, "state-capacity", "64"), "");
  EXPECT_TRUE(spec.request.stateful);
  EXPECT_EQ(spec.request.state_capacity, 64u);

  EXPECT_EQ(set_option(spec, "timeout", "0.5"), "");
  ASSERT_TRUE(static_cast<bool>(spec.request.progress));
  EXPECT_TRUE(spec.request.progress({Engine::kDporOptimal, "explore", 0.4}));
  EXPECT_FALSE(spec.request.progress({Engine::kDporOptimal, "explore", 0.6}));
  EXPECT_EQ(set_option(spec, "timeout", "0"), "");
  EXPECT_FALSE(static_cast<bool>(spec.request.progress));

  EXPECT_EQ(set_option(spec, "engine", "explicit"), "");
  EXPECT_EQ(spec.request.engine, Engine::kExplicit);
  EXPECT_NE(set_option(spec, "engine", "bogus").find("unknown engine 'bogus'"),
            std::string::npos);
  EXPECT_EQ(set_option(spec, "frobnicate", "1"),
            "unknown option 'frobnicate'");
}

// --- serve and batch, in process -------------------------------------------------

std::string serve_session(VerifierService& service, const std::string& input,
                          const RequestSpec& defaults = {}) {
  std::istringstream in(input);
  std::ostringstream out;
  service.serve(in, out, defaults);
  return out.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Whether serve output is nothing but envelope lines, each followed by a
/// line holding only "." — the framing a client reads replies by (no
/// request here asks for the json report).
::testing::AssertionResult strictly_framed(const std::string& out) {
  const std::vector<std::string> lines = lines_of(out);
  if (!out.empty() && out.back() != '\n') {
    return ::testing::AssertionFailure() << "unterminated last line";
  }
  if (lines.size() % 2 != 0) {
    return ::testing::AssertionFailure() << "odd line count " << lines.size();
  }
  for (std::size_t i = 0; i < lines.size(); i += 2) {
    const std::string& env = lines[i];
    if (env.rfind("{\"schema\":\"mcsym.serve/1\",", 0) != 0 ||
        env.back() != '}') {
      return ::testing::AssertionFailure() << "line " << i << ": " << env;
    }
    if (lines[i + 1] != ".") {
      return ::testing::AssertionFailure()
             << "line " << i + 1 << ": " << lines[i + 1];
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(ServeLoop, RepeatIsACacheHit) {
  const std::string fig = example("figure1.mcp");
  VerifierService service;
  const std::string out = serve_session(
      service, "verify id=a\n" + fig + ".\nverify id=b\n" + fig + ".\n");
  EXPECT_TRUE(strictly_framed(out)) << out;
  const auto lines = lines_of(out);
  ASSERT_EQ(lines.size(), 4u) << out;
  EXPECT_NE(lines[0].find("\"id\":\"a\",\"ok\":true,\"name\":\"figure1\","
                          "\"verdict\":\"safe\",\"exit\":0,"
                          "\"cache_hit\":false,\"cache_hits\":0,"
                          "\"cache_misses\":1,\"seconds\":"),
            std::string::npos)
      << lines[0];
  EXPECT_NE(lines[2].find("\"id\":\"b\",\"ok\":true,\"name\":\"figure1\","
                          "\"verdict\":\"safe\",\"exit\":0,"
                          "\"cache_hit\":true,\"cache_hits\":1,"
                          "\"cache_misses\":1,\"seconds\":"),
            std::string::npos)
      << lines[2];
  EXPECT_EQ(service.stats().cache_hits, 1u);
}

TEST(ServiceCache, VerbatimMemoHitsShowOnTheServeStatsLineOnly) {
  const std::string fig = example("figure1.mcp");
  VerifierService service;
  const std::string out = serve_session(
      service, "verify id=a\n" + fig + ".\nverify id=b\n" + fig +
                   ".\nstats\n");
  EXPECT_TRUE(strictly_framed(out)) << out;
  const auto lines = lines_of(out);
  ASSERT_EQ(lines.size(), 6u) << out;
  EXPECT_NE(lines[2].find("\"cache_hit\":true,\"cache_hits\":1,"
                          "\"cache_misses\":1,\"seconds\":"),
            std::string::npos)
      << lines[2];
  EXPECT_EQ(lines[2].find("verbatim"), std::string::npos) << lines[2];
  EXPECT_EQ(lines[4],
            "{\"schema\":\"mcsym.serve/1\",\"stats\":true,\"requests\":2,"
            "\"parse_errors\":0,\"cache_hits\":1,\"cache_misses\":1,"
            "\"cache_stores\":1,\"cache_evictions\":0,\"cache_size\":1,"
            "\"verbatim_hits\":1}");
}

TEST(ServeLoop, UnknownCommandMalformedOptionAndBadBodyKeepServing) {
  const std::string fig = example("figure1.mcp");
  VerifierService service;
  const std::string out = serve_session(
      service, "bogus\n"
               "verify not-kv id=lost\n" + fig + ".\n"
               "verify id=p\nthread t0\n  garbage\n.\n"
               "\n"
               "verify id=ok\n" + fig + ".\n");
  EXPECT_TRUE(strictly_framed(out)) << out;
  const auto lines = lines_of(out);
  ASSERT_EQ(lines.size(), 8u) << out;
  EXPECT_EQ(lines[0],
            "{\"schema\":\"mcsym.serve/1\",\"ok\":false,"
            "\"error\":\"unknown command 'bogus'\",\"exit\":2}");
  // The header stops at its first bad token, and its body is consumed so
  // the stream stays framed.
  EXPECT_EQ(lines[2],
            "{\"schema\":\"mcsym.serve/1\",\"ok\":false,"
            "\"error\":\"malformed option 'not-kv' (expected k=v)\","
            "\"exit\":2}");
  EXPECT_NE(lines[4].find("\"id\":\"p\",\"ok\":false,\"error\":\"line 2: "
                          "unknown instruction 'garbage'\",\"exit\":2,"
                          "\"cache_hit\":false"),
            std::string::npos)
      << lines[4];
  EXPECT_NE(lines[6].find("\"id\":\"ok\",\"ok\":true"), std::string::npos)
      << lines[6];
  EXPECT_EQ(service.stats().requests, 2u);
  EXPECT_EQ(service.stats().parse_errors, 1u);
}

TEST(ServeLoop, EofInsideABodyRepliesAndReturns) {
  VerifierService service;
  const std::string out =
      serve_session(service, "verify id=cut\n" + example("figure1.mcp"));
  EXPECT_EQ(out,
            "{\"schema\":\"mcsym.serve/1\",\"id\":\"cut\",\"ok\":false,"
            "\"error\":\"unexpected EOF inside a request body\",\"exit\":2}\n"
            ".\n");
  EXPECT_EQ(service.stats().requests, 0u);
}

TEST(ServeLoop, StatsThenQuitEndsTheSession) {
  const std::string fig = example("figure1.mcp");
  VerifierService service;
  const std::string out = serve_session(
      service, "verify id=a\n" + fig + ".\nstats\r\nquit\n"
               "verify id=after\n" + fig + ".\n");
  EXPECT_TRUE(strictly_framed(out)) << out;
  const auto lines = lines_of(out);
  ASSERT_EQ(lines.size(), 4u) << out;
  EXPECT_EQ(lines[2],
            "{\"schema\":\"mcsym.serve/1\",\"stats\":true,\"requests\":1,"
            "\"parse_errors\":0,\"cache_hits\":0,\"cache_misses\":1,"
            "\"cache_stores\":1,\"cache_evictions\":0,\"cache_size\":1}");
  EXPECT_EQ(out.find("after"), std::string::npos);
  EXPECT_EQ(service.stats().requests, 1u);
}

TEST(ServeLoop, BadNumericValuesAreErrorRepliesNotCrashes) {
  // Wrapped to 4294967295, traces=-1 would pass as a huge trace count;
  // it is a bad value instead.
  const std::string fig = example("figure1.mcp");
  VerifierService service;
  const std::string out = serve_session(
      service, "verify id=t engine=symbolic traces=-1\n" + fig + ".\n"
               "verify id=s seed=abc\n" + fig + ".\n"
               "verify id=w workers=4x\n" + fig + ".\n"
               "verify id=v engine=symbolic traces=2\n" + fig + ".\n");
  EXPECT_TRUE(strictly_framed(out)) << out;
  const auto lines = lines_of(out);
  ASSERT_EQ(lines.size(), 8u) << out;
  EXPECT_EQ(lines[0],
            "{\"schema\":\"mcsym.serve/1\",\"id\":\"t\",\"ok\":false,"
            "\"error\":\"bad value '-1' for traces (expected a non-negative "
            "number)\",\"exit\":2}");
  EXPECT_NE(lines[2].find("\"id\":\"s\",\"ok\":false,\"error\":\"bad value "
                          "'abc' for seed"),
            std::string::npos)
      << lines[2];
  EXPECT_NE(lines[4].find("\"id\":\"w\",\"ok\":false,\"error\":\"bad value "
                          "'4x' for workers"),
            std::string::npos)
      << lines[4];
  // The next valid request is still served: the symbolic engine finds the
  // Figure-4b violation.
  EXPECT_NE(lines[6].find("\"id\":\"v\",\"ok\":true,\"name\":\"figure1\","
                          "\"verdict\":\"violation\",\"exit\":1"),
            std::string::npos)
      << lines[6];
  EXPECT_EQ(service.stats().requests, 1u);
}

TEST(ServeLoop, HugeTraceCountEndsAtItsWallBudget) {
  // A valid but huge count runs until its wall budget like any long
  // request (the per-trace table grows by claimed trace), and the server
  // goes on to the next request.
  const std::string fig = example("figure1.mcp");
  VerifierService service;
  const std::string out = serve_session(
      service, "verify id=huge engine=symbolic traces=4000000000 "
               "max-seconds=0.2\n" + fig + ".\n"
               "verify id=next\n" + fig + ".\n");
  EXPECT_TRUE(strictly_framed(out)) << out;
  const auto lines = lines_of(out);
  ASSERT_EQ(lines.size(), 4u) << out;
  EXPECT_NE(lines[0].find("\"id\":\"huge\",\"ok\":true,"), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[2].find("\"id\":\"next\",\"ok\":true,\"name\":\"figure1\","
                          "\"verdict\":\"safe\",\"exit\":0"),
            std::string::npos)
      << lines[2];
  EXPECT_EQ(service.stats().requests, 2u);
}

TEST(ServeLoop, EncodingKeysReachTheRequest) {
  // The delay-ignorant baseline misses the Figure-4b violation the
  // paper's encoding finds; the two requests have different cache keys.
  const std::string fig = example("figure1.mcp");
  VerifierService service;
  const std::string out = serve_session(
      service, "verify id=d engine=symbolic delay-ignorant=1\n" + fig +
                   ".\nverify id=n engine=symbolic\n" + fig + ".\n");
  const auto lines = lines_of(out);
  ASSERT_EQ(lines.size(), 4u) << out;
  EXPECT_NE(lines[0].find("\"verdict\":\"safe\""), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[2].find("\"verdict\":\"violation\",\"exit\":1,"
                          "\"cache_hit\":false"),
            std::string::npos)
      << lines[2];
}

TEST(ServeLoop, JsonOptionAppendsTheReportBeforeTheTerminator) {
  VerifierService service;
  const std::string out = serve_session(
      service, "verify id=j json=1\n" + example("figure1.mcp") + ".\n");
  const auto lines = lines_of(out);
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[1], "{");
  EXPECT_EQ(lines[2], "  \"schema\": \"mcsym.verify/1\",");
  EXPECT_EQ(lines.back(), ".");
}

TEST(RunBatch, EnvelopePerEntryThenSummaryAndWorstExit) {
  const std::string dir = MCSYM_EXAMPLES_DIR;
  std::istringstream manifest("# comment\n\n" + dir + "/figure1.mcp\r\n  " +
                              dir + "/figure1.mcp  \n" + dir +
                              "/livelock.mcp\n/nonexistent/path.mcp\n");
  RequestSpec spec;
  spec.request.engine = Engine::kExplicit;
  spec.request.stateful = true;
  VerifierService service;
  std::ostringstream out;
  EXPECT_EQ(service.run_batch(manifest, out, spec), 2);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 5u) << out.str();
  const std::string head = "{\"schema\":\"mcsym.batch/1\",\"file\":\"" + dir;
  EXPECT_EQ(lines[0].rfind(head + "/figure1.mcp\",\"ok\":true,", 0), 0u)
      << lines[0];
  EXPECT_NE(lines[1].find("\"cache_hit\":true,\"cache_hits\":1"),
            std::string::npos)
      << lines[1];
  EXPECT_NE(lines[2].find("\"verdict\":\"non-termination\",\"exit\":4"),
            std::string::npos)
      << lines[2];
  EXPECT_EQ(lines[3].rfind("{\"schema\":\"mcsym.batch/1\",\"file\":"
                           "\"/nonexistent/path.mcp\",\"ok\":false,"
                           "\"error\":\"cannot open '/nonexistent/path.mcp'\","
                           "\"exit\":2,\"cache_hit\":false,",
                           0),
            0u)
      << lines[3];
  EXPECT_EQ(lines[4],
            "{\"schema\":\"mcsym.batch/1\",\"summary\":true,\"entries\":4,"
            "\"requests\":3,\"parse_errors\":0,\"cache_hits\":1,"
            "\"cache_misses\":2,\"exit\":2}");
}

/// One framing mutation of a request stream: overwrite a few bytes, cut
/// the stream short, or copy a slice of it somewhere else.
std::string mutate(std::string s, support::Rng& rng) {
  static constexpr char kInteresting[] = {'.', '\n', '=', ' ', '\r', '0',
                                          '9', 'x', '-', '\0'};
  const std::uint64_t rounds = 1 + rng.below(3);
  for (std::uint64_t r = 0; r < rounds && !s.empty(); ++r) {
    switch (rng.below(3)) {
      case 0: {  // byte flips
        const std::uint64_t flips = 1 + rng.below(4);
        for (std::uint64_t f = 0; f < flips; ++f) {
          char& c = s[rng.below(s.size())];
          c = rng.below(2) == 0
                  ? kInteresting[rng.below(sizeof kInteresting)]
                  : static_cast<char>(rng.below(256));
        }
        break;
      }
      case 1:  // truncation
        s.resize(rng.below(s.size()));
        break;
      default: {  // splice
        const std::size_t from = rng.below(s.size());
        const std::size_t len = rng.below(s.size() - from) + 1;
        const std::string slice = s.substr(from, len);
        s.insert(rng.below(s.size() + 1), slice);
        break;
      }
    }
  }
  return s;
}

TEST(ServeLoop, FramingSurvivesMutatedStreams) {
  const std::string fig = example("figure1.mcp");
  const std::string live = example("livelock.mcp");
  const std::string select = example("select_server.mcp");
  // Every request kind the protocol has, over every shipped example. No
  // header asks for the json report, so a reply is exactly two lines.
  const std::string stream =
      "verify id=f1\n" + fig + ".\n" +
      "verify id=f2 engine=symbolic traces=2 seed=3\n" + fig + ".\n" +
      "verify id=l1 engine=explicit stateful=1\n" + live + ".\n" +
      "stats\n" +
      "verify id=s1 engine=dpor workers=2 round-robin=1\n" + select + ".\n" +
      "verify id=s2 engine=portfolio state-capacity=64\n" + select + ".\n" +
      "bogus\n" + "verify id=f3 engine=dpor-sleepset precise=1\n" + fig +
      ".\n" + "quit\n";
  // Small budgets keep a mutant that lands a looping body under a
  // stateless engine cheap; the wall-clock cap is only a backstop.
  RequestSpec defaults;
  defaults.request.budget.max_states = 2000;
  defaults.request.budget.max_transitions = 2000;
  defaults.request.symbolic.conflict_budget = 2000;
  defaults.request.budget.max_run_steps = 2000;
  defaults.request.budget.max_seconds = 0.2;

  {
    VerifierService service;
    const std::string out = serve_session(service, stream, defaults);
    ASSERT_TRUE(strictly_framed(out)) << out;
    EXPECT_EQ(lines_of(out).size(), 16u) << out;
  }
  const std::uint64_t iters = support::env_u64("MCSYM_TEST_ITERS", 40);
  for (std::uint64_t seed = 1; seed <= iters; ++seed) {
    support::Rng rng(seed);
    const std::string mutant = mutate(stream, rng);
    VerifierService service({4});
    const std::string out = serve_session(service, mutant, defaults);
    ASSERT_TRUE(strictly_framed(out))
        << "seed " << seed << "\n--- input ---\n"
        << mutant << "\n--- output ---\n"
        << out;
  }
}

}  // namespace
}  // namespace mcsym::check
