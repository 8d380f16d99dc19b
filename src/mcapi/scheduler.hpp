// Pluggable schedulers: each picks the next action among the enabled set.
//
// The random scheduler is the trace generator's source of interleaving and
// delay nondeterminism (seeded, so traces are reproducible artifacts). The
// round-robin scheduler gives quick deterministic smoke runs.
#pragma once

#include <span>

#include "mcapi/system.hpp"
#include "support/rng.hpp"

namespace mcsym::mcapi {

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  /// Returns an index into `enabled` (which is never empty).
  virtual std::size_t pick(const System& system, std::span<const Action> enabled) = 0;
};

/// Uniform random choice over enabled actions, with a tunable bias for
/// delivery actions: bias > 1 makes the network prompt (messages rarely
/// linger), bias < 1 makes it laggy (in-transit pile-ups, more reordering).
class RandomScheduler final : public Scheduler {
 public:
  explicit RandomScheduler(std::uint64_t seed, double delivery_bias = 1.0)
      : rng_(seed), delivery_bias_(delivery_bias) {}

  std::size_t pick(const System&, std::span<const Action> enabled) override {
    if (delivery_bias_ == 1.0) return rng_.below(enabled.size());
    double total = 0.0;
    for (const Action& a : enabled) {
      total += a.kind == Action::Kind::kDeliver ? delivery_bias_ : 1.0;
    }
    double x = rng_.next_double() * total;
    for (std::size_t i = 0; i < enabled.size(); ++i) {
      const double w =
          enabled[i].kind == Action::Kind::kDeliver ? delivery_bias_ : 1.0;
      if (x < w) return i;
      x -= w;
    }
    return enabled.size() - 1;
  }

 private:
  support::Rng rng_;
  double delivery_bias_;
};

/// Cycles threads; takes the first enabled action of the preferred thread,
/// falling back to deliveries (oldest channel first).
class RoundRobinScheduler final : public Scheduler {
 public:
  std::size_t pick(const System& system, std::span<const Action> enabled) override {
    const std::size_t n = system.program().num_threads();
    for (std::size_t offset = 0; offset < n; ++offset) {
      const ThreadRef want = static_cast<ThreadRef>((next_ + offset) % n);
      for (std::size_t i = 0; i < enabled.size(); ++i) {
        if (enabled[i].kind == Action::Kind::kThreadStep &&
            enabled[i].thread == want) {
          next_ = (want + 1) % n;
          return i;
        }
      }
    }
    return 0;  // only deliveries enabled
  }

 private:
  std::size_t next_ = 0;
};

}  // namespace mcsym::mcapi
