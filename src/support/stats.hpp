// Wall-clock timing and the budget probe used by checkers and benches.
#pragma once

#include <chrono>
#include <cstdint>

namespace mcsym::support {

/// Monotonic stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}
  void restart() { start_ = clock::now(); }
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }
  [[nodiscard]] double millis() const { return seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Whether a search's wall-clock budget (`options.max_seconds`, 0 = none)
/// or its `options.interrupted()` callback stops it. The clock read is
/// amortized over the *calls* (one per exploration step, per thread:
/// `probe` is the caller's counter), not over transitions: a step's race
/// scan or feasibility checks can do unbounded work without advancing the
/// transition counter, so a transition-keyed probe could overshoot the
/// budget arbitrarily.
template <class Options>
bool over_budget(const Options& options, const Stopwatch& timer,
                 std::uint64_t& probe) {
  if (options.max_seconds <= 0 && !options.interrupted) return false;
  if ((++probe & 63u) != 0) return false;
  if (options.max_seconds > 0 && timer.seconds() > options.max_seconds) {
    return true;
  }
  return options.interrupted && options.interrupted();
}

}  // namespace mcsym::support
