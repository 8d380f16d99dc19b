#include "check/random_program.hpp"

#include <iterator>
#include <string>
#include <vector>

namespace mcsym::check {

using mcapi::EndpointRef;
using mcapi::Program;
using mcapi::ThreadBuilder;

Program random_program(std::uint64_t seed, RandomProgramOptions options) {
  support::Rng rng(seed);
  Program p;
  std::vector<ThreadBuilder> builders;
  std::vector<EndpointRef> eps;
  builders.reserve(options.threads);
  for (std::uint32_t t = 0; t < options.threads; ++t) {
    builders.push_back(p.add_thread("rt" + std::to_string(t)));
    eps.push_back(p.add_endpoint("rep" + std::to_string(t), builders.back().ref()));
  }

  // Deadlock mutation (see the header): chosen up front because the cyclic
  // variant must place its receives before the send phase. All extra rng
  // draws stay inside this branch so deadlock-free seeds keep generating
  // the exact programs they always did.
  enum class DeadlockKind : std::uint8_t { kNone, kStarvation, kCyclic, kHandshake };
  DeadlockKind dl = DeadlockKind::kNone;
  std::uint32_t dl_a = 0;
  std::uint32_t dl_b = 0;
  if (options.allow_deadlocks) {
    constexpr DeadlockKind kKinds[] = {DeadlockKind::kStarvation,
                                       DeadlockKind::kCyclic,
                                       DeadlockKind::kHandshake};
    dl = kKinds[rng.below(std::size(kKinds))];
    dl_a = static_cast<std::uint32_t>(rng.below(options.threads));
    dl_b = (dl_a + 1 + static_cast<std::uint32_t>(rng.below(options.threads - 1))) %
           options.threads;
  }
  // Receives already emitted before the send phase (they consume arrivals
  // the per-thread drain loop must not double-count).
  std::vector<std::uint32_t> early_recvs(options.threads, 0);
  if (dl == DeadlockKind::kCyclic) {
    builders[dl_a].recv(eps[dl_a], "cyc");
    builders[dl_b].recv(eps[dl_b], "cyc");
    early_recvs[dl_a] = 1;
    early_recvs[dl_b] = 1;
  }

  // Sends next; count messages into each endpoint.
  std::vector<std::uint32_t> inbound(options.threads, 0);
  std::int64_t payload = 1;
  for (std::uint32_t t = 0; t < options.threads; ++t) {
    const std::uint64_t n = rng.below(options.max_sends_per_thread + 1);
    for (std::uint64_t k = 0; k < n; ++k) {
      const auto dst = static_cast<std::uint32_t>(rng.below(options.threads));
      builders[t].send(eps[t], eps[dst], payload++);
      ++inbound[dst];
    }
  }
  if (dl == DeadlockKind::kCyclic) {
    // Close the cycle: each partner's sends run only after its leading
    // receive fired, so unless a third thread feeds one of the two
    // endpoints, both block forever.
    builders[dl_a].send(eps[dl_a], eps[dl_b], payload++);
    ++inbound[dl_b];
    builders[dl_b].send(eps[dl_b], eps[dl_a], payload++);
    ++inbound[dl_a];
  }

  // Receives (and occasional local noise) to drain every endpoint.
  for (std::uint32_t t = 0; t < options.threads; ++t) {
    std::uint32_t req = 0;
    std::vector<std::uint32_t> pending_waits;
    for (std::uint32_t k = 0; k < inbound[t] - early_recvs[t]; ++k) {
      const std::string var = std::string("v").append(std::to_string(k));
      if (options.allow_nonblocking && rng.chance(1, 3)) {
        builders[t].recv_nb(eps[t], var, req);
        pending_waits.push_back(req++);
        if (options.allow_test_poll && rng.chance(1, 2)) {
          builders[t].test_poll(pending_waits.back(), "tp" + std::to_string(k));
        }
        // Defer the wait with probability 1/2 to widen the match window.
        if (rng.chance(1, 2) && !pending_waits.empty()) continue;
        // Flush pending waits, sometimes in reversed order — MCAPI binds in
        // issue order regardless, and the encoder must model that.
        if (rng.chance(1, 3)) {
          for (auto it = pending_waits.rbegin(); it != pending_waits.rend(); ++it) {
            builders[t].wait(*it);
          }
        } else {
          for (const std::uint32_t w : pending_waits) {
            if (options.allow_test_poll && rng.chance(1, 3)) {
              builders[t].test_poll(w, "tq" + std::to_string(w));
            }
            // A singleton select is semantically a wait but exercises the
            // wait_any runtime/trace/encoding path end to end.
            if (options.allow_wait_any && rng.chance(1, 3)) {
              builders[t].wait_any({w}, "wa" + std::to_string(w));
            } else {
              builders[t].wait(w);
            }
          }
        }
        pending_waits.clear();
      } else {
        builders[t].recv(eps[t], var);
      }
      if (options.add_assigns && rng.chance(1, 4)) {
        builders[t].assign("acc", builders[t].v(var, rng.range(-5, 5)));
      }
      if (options.add_asserts && rng.chance(1, 4)) {
        // Compare the received value against a random payload constant.
        // Payloads are globally unique (1..payload-1), so ==/!= asserts are
        // racy precisely when the receive has several feasible senders.
        // kEq is excluded: "v equals one specific payload" is nearly always
        // violable and would skew the corpus toward trivial SATs.
        static constexpr mcapi::Rel kRels[] = {
            mcapi::Rel::kNe, mcapi::Rel::kLt, mcapi::Rel::kLe,
            mcapi::Rel::kGe, mcapi::Rel::kGt};
        const auto rel = kRels[rng.below(std::size(kRels))];
        const std::int64_t bound = rng.range(1, payload > 1 ? payload - 1 : 1);
        mcapi::Cond cond;
        cond.lhs = builders[t].v(var);
        cond.rel = rel;
        cond.rhs = ThreadBuilder::c(bound);
        builders[t].assert_that(cond);
      }
    }
    for (const std::uint32_t w : pending_waits) {
      if (options.allow_test_poll && rng.chance(1, 2)) {
        builders[t].test_poll(w, "tr" + std::to_string(w));
      }
      if (options.allow_wait_any && rng.chance(1, 4)) {
        builders[t].wait_any({w}, "wb" + std::to_string(w));
      } else {
        builders[t].wait(w);
      }
    }
  }

  if (dl == DeadlockKind::kHandshake && inbound[dl_a] > 0) {
    // The partner's receive is fed only when dl_a's first received value
    // passes the comparison — whether it does depends on which racing send
    // the receive matched, so the deadlock is schedule-dependent.
    mcapi::Cond cond;
    cond.lhs = builders[dl_a].v("v0");
    cond.rel = mcapi::Rel::kLt;
    cond.rhs = ThreadBuilder::c(rng.range(1, payload > 1 ? payload - 1 : 1));
    builders[dl_a].jump_if(cond, "dl_skip");
    builders[dl_a].send(eps[dl_a], eps[dl_b], payload++);
    builders[dl_a].label("dl_skip");
    builders[dl_b].recv(eps[dl_b], "hs");
  } else if (dl == DeadlockKind::kHandshake) {
    dl = DeadlockKind::kStarvation;  // no received value to branch on
  }
  if (dl == DeadlockKind::kStarvation) {
    // One receive beyond what the endpoint ever gets: starves in every
    // schedule once the drain completes.
    builders[dl_a].recv(eps[dl_a], "dlx");
  }

  // Loop mutation (see the header): appended after every straight-line
  // phase so the loop-free prefix of the program is untouched, and all rng
  // draws stay inside this branch (loop-free seeds are byte-stable).
  if (options.allow_loops) {
    const std::uint32_t iters =
        1 + static_cast<std::uint32_t>(rng.below(
                options.max_loop_iters > 0 ? options.max_loop_iters : 1));
    const auto bound = ThreadBuilder::c(static_cast<std::int64_t>(iters));
    const auto la = static_cast<std::uint32_t>(rng.below(options.threads));
    if (options.threads >= 2 && rng.chance(1, 2)) {
      // Stream loop: la sends a counted stream, lb drains it in a loop.
      const auto lb =
          (la + 1 +
           static_cast<std::uint32_t>(rng.below(options.threads - 1))) %
          options.threads;
      builders[la]
          .assign("lc", ThreadBuilder::c(0))
          .label("lsend")
          .send(eps[la], eps[lb], builders[la].v("lc", 900))
          .assign("lc", builders[la].v("lc", 1))
          .jump_if({builders[la].v("lc"), mcapi::Rel::kLt, bound}, "lsend");
      builders[lb]
          .assign("lr", ThreadBuilder::c(0))
          .label("lrecv")
          .recv(eps[lb], "lv")
          .assign("lr", builders[lb].v("lr", 1))
          .jump_if({builders[lb].v("lr"), mcapi::Rel::kLt, bound}, "lrecv");
    } else {
      // Local spin: a bounded pure-local back-edge on one thread.
      builders[la]
          .assign("lc", ThreadBuilder::c(0))
          .label("lspin")
          .assign("lc", builders[la].v("lc", 1))
          .jump_if({builders[la].v("lc"), mcapi::Rel::kLt, bound}, "lspin");
    }
  }

  p.finalize();
  return p;
}

}  // namespace mcsym::check
