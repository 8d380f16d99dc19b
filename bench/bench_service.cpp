// Verification-as-a-service economics: what a verdict-cache hit buys.
//
// BM_Service_Miss is the full pipeline per request — parse, canonical
// fingerprint, engines, report serialization (cache cleared each
// iteration). BM_Service_Hit answers the identical request from the
// exact-text memo: spelling build + lookup + stored-bytes copy, no parse,
// no engines. BM_Service_HitRenamed cycles through more alpha-renamed
// spellings of the same program than the memo keeps per entry, so every
// iteration takes the canonical path: parse + fingerprint + LRU lookup.
// The hit/miss ratios are the multipliers a long-running `mcsym serve`
// session earns on repeated traffic; the nightly pins their floors, and
// pins Hit against KeyOnly so a verbatim hit provably skips the parse.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "check/random_program.hpp"
#include "check/service.hpp"
#include "check/verifier.hpp"
#include "text/program_text.hpp"

namespace {

using namespace mcsym;

std::string workload_text(std::uint32_t threads) {
  check::RandomProgramOptions opts;
  opts.threads = threads;
  opts.add_asserts = true;
  return text::program_to_text(check::random_program(11, opts), {}, "unit");
}

/// Crude whole-word rename of the generator's thread spellings (`rt<k>`
/// becomes `task<variant>_<k>`) — enough to force the canonical (not
/// textual) path while keeping the program valid.
std::string renamed_workload_text(std::uint32_t threads, int variant) {
  const std::string text = workload_text(threads);
  const std::string prefix = "task" + std::to_string(variant) + "_";
  std::string out;
  std::size_t i = 0;
  while (i < text.size()) {
    if (text.compare(i, 2, "rt") == 0 &&
        (i == 0 || !std::isalnum(static_cast<unsigned char>(text[i - 1])))) {
      out += prefix;
      i += 2;
      continue;
    }
    out += text[i++];
  }
  return out;
}

check::VerifyRequest dpor_request() {
  check::VerifyRequest req;
  req.engine = check::Engine::kDporOptimal;
  return req;
}

/// Reports which share of the session's cache hits the exact-text memo
/// answered without parsing (`Stats::verbatim_hits / cache_hits`).
void report_verbatim_share(benchmark::State& state,
                           const check::VerifierService& service) {
  const auto& stats = service.stats();
  state.counters["verbatim_share"] =
      stats.cache_hits == 0 ? 0.0
                            : static_cast<double>(stats.verbatim_hits) /
                                  static_cast<double>(stats.cache_hits);
}

void BM_Service_Miss(benchmark::State& state) {
  const std::string text =
      workload_text(static_cast<std::uint32_t>(state.range(0)));
  const check::VerifyRequest req = dpor_request();
  check::VerifierService service;
  for (auto _ : state) {
    service.clear_cache();
    auto reply = service.verify_source(text, req);
    benchmark::DoNotOptimize(reply.report_json.data());
  }
}
BENCHMARK(BM_Service_Miss)->Arg(3)->Arg(4);

void BM_Service_Hit(benchmark::State& state) {
  const std::string text =
      workload_text(static_cast<std::uint32_t>(state.range(0)));
  const check::VerifyRequest req = dpor_request();
  check::VerifierService service;
  (void)service.verify_source(text, req);  // warm the single entry
  for (auto _ : state) {
    auto reply = service.verify_source(text, req);
    benchmark::DoNotOptimize(reply.report_json.data());
  }
  report_verbatim_share(state, service);
}
BENCHMARK(BM_Service_Hit)->Arg(3)->Arg(4);

void BM_Service_HitRenamed(benchmark::State& state) {
  const std::uint32_t threads = static_cast<std::uint32_t>(state.range(0));
  const check::VerifyRequest req = dpor_request();
  check::VerifierService service;
  (void)service.verify_source(workload_text(threads), req);
  // Cycling through twice the spellings the memo keeps per entry means each
  // one was dropped (oldest first) before it comes round again.
  std::vector<std::string> renamed;
  for (std::size_t v = 0; v < 2 * check::VerifierService::kSpellingsPerEntry;
       ++v) {
    renamed.push_back(renamed_workload_text(threads, static_cast<int>(v)));
  }
  std::size_t next = 0;
  for (auto _ : state) {
    auto reply = service.verify_source(renamed[next], req);
    benchmark::DoNotOptimize(reply.report_json.data());
    next = (next + 1) % renamed.size();
  }
  report_verbatim_share(state, service);
  if (service.stats().verbatim_hits != 0) {
    state.SkipWithError("a renamed spelling was served from the memo");
  }
}
BENCHMARK(BM_Service_HitRenamed)->Arg(3)->Arg(4);

/// The hit path minus the reply machinery: parse + canonical fingerprint +
/// key mixing. Bounds how much of a hit is canonicalization overhead.
void BM_Service_KeyOnly(benchmark::State& state) {
  const std::string text =
      workload_text(static_cast<std::uint32_t>(state.range(0)));
  const check::VerifyRequest req = dpor_request();
  check::VerifierService service;
  for (auto _ : state) {
    auto key = service.cache_key(text, req);
    benchmark::DoNotOptimize(key.key);
  }
}
BENCHMARK(BM_Service_KeyOnly)->Arg(3)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
