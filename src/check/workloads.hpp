// Workload programs shared by tests, benches and examples.
//
// Each constructor returns a finalized Program (plus, where meaningful, the
// properties a verification user would state). The first one is the paper's
// running example verbatim; the rest are the embedded message-passing
// patterns MCAPI targets (DSP pipelines, scatter/gather offload, racing
// producers), parameterized so the benches can sweep problem size.
#pragma once

#include <cstdint>
#include <vector>

#include "encode/property.hpp"
#include "mcapi/program.hpp"

namespace mcsym::check::workloads {

/// Payload constants of the paper's Figure 1 messages.
inline constexpr std::int64_t kPayloadX = 10;
inline constexpr std::int64_t kPayloadY = 20;
inline constexpr std::int64_t kPayloadZ = 30;

/// Figure 1 of the paper:
///   t0: A = recv(e0); B = recv(e0)
///   t1: C = recv(e1); send(X) -> t0
///   t2: send(Y) -> t0; send(Z) -> t1
/// Two matchings are feasible (Figures 4a and 4b); engines that ignore
/// network delays see only 4a.
[[nodiscard]] mcapi::Program figure1();

/// Figure 1 plus the assertion "A == Y" in t0 — violated exactly by the 4b
/// pairing, so delay-aware engines report SAT and delay-ignorant ones UNSAT.
struct Figure1WithProperty {
  mcapi::Program program;
  std::vector<encode::Property> properties;  // end-of-run variant
};
[[nodiscard]] Figure1WithProperty figure1_with_property();

/// `senders` threads each send `msgs_each` distinct payloads to one receiver
/// endpoint; the receiver soaks them all up. The number of feasible
/// matchings is the number of channel-FIFO-respecting interleavings:
/// (senders*msgs_each)! / (msgs_each!)^senders.
[[nodiscard]] mcapi::Program message_race(std::uint32_t senders,
                                          std::uint32_t msgs_each);

/// DSP-style chain: stage i receives, adds 1, forwards. Deterministic
/// matching; the end-to-end assertion item == items_sent + stages holds in
/// every execution (the negated problem is UNSAT).
[[nodiscard]] mcapi::Program pipeline(std::uint32_t stages, std::uint32_t items);

/// Master scatters one work item to each worker's endpoint, workers transform
/// (+1000*worker) and send back to the master's gather endpoint; results race.
/// The naive assertion "first gathered result came from worker 0" is violated
/// by any other arrival order.
[[nodiscard]] mcapi::Program scatter_gather(std::uint32_t workers);

/// scatter_gather without the (violated) arrival-order assertion: the same
/// symmetric wide-frontier race, but safe, so exploration covers the full
/// trace space instead of stopping at the first counterexample: after the
/// scatter prefix every worker's result send races at the gather endpoint,
/// giving a root frontier of `workers` independent subtrees of equal size.
[[nodiscard]] mcapi::Program scatter_gather_safe(std::uint32_t workers);

/// Narrow-root / wide-subtree workload: a token threads through the
/// `racers` threads in a deterministic chain (each blocks on its gate
/// receive, forwards the token, then fires its payload at one collector
/// endpoint). The exploration tree starts as a single path — exactly one
/// action enabled until the first payloads are airborne — and only then
/// fans out into the racers! payload orderings.
[[nodiscard]] mcapi::Program token_fanout(std::uint32_t racers);

/// Receiver posts `senders` non-blocking receives up front, then waits for
/// each in issue order; senders race to the same endpoint. Exercises the
/// recv_i/wait match-window semantics (§2 of the paper).
[[nodiscard]] mcapi::Program nonblocking_gather(std::uint32_t senders);

/// Token ring: thread 0 injects, each thread forwards (+1). Deterministic;
/// good UNSAT/scaling workload.
[[nodiscard]] mcapi::Program ring(std::uint32_t threads);

/// Generalized Figure 1: `pairs` independent copies of the paper's race.
/// Origin thread i sends Y_i to the collector, then Z_i to relay i; relay i
/// receives Z_i and sends X_i to the collector. Program order forces
/// issue(Y_i) < issue(X_i), but the network may still deliver X_i first.
/// Closed forms: paper semantics admits (2*pairs)! matchings; delay-ignorant
/// semantics admits (2*pairs)!/2^pairs — the Figure-4b gap, amplified.
[[nodiscard]] mcapi::Program relay_race(std::uint32_t pairs);

/// Minimal program where the paper's wait-anchored match window for
/// non-blocking receives matters: the receiver posts recv_i, then *itself*
/// triggers (via a helper thread) a late send to the same endpoint, then
/// waits. The late message is causally after the issue but can still match
/// the request — anchoring at the issue (the ablation) loses that matching.
[[nodiscard]] mcapi::Program nonblocking_window();

/// `senders` threads race one message each to a receiver that posts one
/// non-blocking receive, polls it once with mcapi_test, waits, and drains
/// the rest with blocking receives. The poll outcome is pure network-timing
/// nondeterminism; traces of both polarities exist.
[[nodiscard]] mcapi::Program polling_race(std::uint32_t senders);

/// Poll outcome that changes the feasible matchings: the receiver polls its
/// request and only then (causally) releases a late sender. A trace whose
/// poll observed completion admits exactly 1 matching (the early send); a
/// trace whose poll observed "pending" admits 2. The mcapi_test analogue of
/// the nonblocking_window workload.
[[nodiscard]] mcapi::Program poll_window();

/// Select-style server: one recv_i per endpoint, mcapi_wait_any over both,
/// a branch on the winning index, then the loser's wait and blocking drains
/// of the remaining `senders_per_side - 1` messages per endpoint. Which
/// request wins is pure delivery-timing nondeterminism; each polarity pins
/// a different traced control flow.
[[nodiscard]] mcapi::Program select_server(std::uint32_t senders_per_side);

/// Two recv_i on one endpoint waited in REVERSED order, with a message that
/// is only triggered after the first wait completes. MCAPI binds receives in
/// issue order, so the late message can never match either request — but the
/// paper's bare send<wait window says it could match the one whose wait
/// comes last. Exposes the over-approximation that the encoder's
/// order_endpoint_completions option (bind-time variables) eliminates:
/// ground truth = 2 matchings, bare-paper encoding = 4.
[[nodiscard]] mcapi::Program reversed_waits();

/// A receive whose value steers a branch, inside a two-sender race: makes
/// traces with branch events, exercising the PEvents path-pinning logic.
[[nodiscard]] mcapi::Program branchy_race();

/// select_server with a real service loop: the server runs `clients` rounds
/// of a counter-driven jump_if loop, each round posting one recv_i per
/// endpoint, selecting with wait_any, waiting the loser, and advancing the
/// round counter; client i races 100+i at endpoint A and 200+i at endpoint
/// B. Finite (the counter bounds the loop) and safe, but its loop re-enters
/// structurally identical server states across interleavings — the stateful
/// exploration workload (visited-state hits collapse the re-exploration;
/// stateless DPOR re-walks every suffix).
[[nodiscard]] mcapi::Program select_server_loop(std::uint32_t clients);

/// Counter-loop pipeline: a producer loops sending `n` sequenced requests,
/// a relay loops receiving and forwarding each (+1), and a consumer loops
/// draining them, asserting the per-channel-FIFO-determined last value.
/// Every thread is a back-edge loop rather than unrolled straight-line
/// code; safe in every execution.
[[nodiscard]] mcapi::Program request_stream(std::uint32_t n);

/// Two-thread livelock: each thread posts one recv_i on its own endpoint
/// and spins on test_poll — and nobody ever sends. Every state repeats with
/// no message matched in between, so the program can run forever without
/// progress. The stateless explicit engine silently prunes the spin states
/// and reports "safe"; stateful exploration classifies the cycle and
/// reports non-termination with a replayable lasso.
[[nodiscard]] mcapi::Program livelock_pair();

}  // namespace mcsym::check::workloads
