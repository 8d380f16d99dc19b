// Drives one System to completion under a Scheduler, reporting how the run
// ended. This is the "run the application once and record a trace" front
// half of the paper's pipeline. replay() re-executes a recorded schedule
// and reports where it diverges.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mcapi/scheduler.hpp"
#include "mcapi/system.hpp"

namespace mcsym::mcapi {

struct RunResult {
  enum class Outcome : std::uint8_t {
    kHalted,     // all threads ran to completion
    kViolation,  // an assertion failed during the run
    kDeadlock,   // no action enabled, some thread blocked
    kStepLimit,  // safety valve tripped
    kDiverged,   // replay only: the schedule left the run (see replay())
  };
  Outcome outcome = Outcome::kHalted;
  std::size_t steps = 0;

  [[nodiscard]] bool completed() const { return outcome == Outcome::kHalted; }
};

/// Runs until halt/deadlock/violation or `max_steps`. Events stream to
/// `sink` (may be null); actions taken are appended to `script` when given,
/// so a run can be replayed exactly.
RunResult run(System& system, Scheduler& scheduler, ExecSink* sink = nullptr,
              std::size_t max_steps = 1u << 20,
              std::vector<Action>* script = nullptr);

/// Re-executes a schedule found by a checker, action by action. Stops with
/// kDiverged at the first action the runtime does not enable (`steps`
/// counts the actions applied), and also reports kDiverged when the
/// schedule ends while the run could still go on. Otherwise the outcome is
/// how the run ended: kHalted, kViolation or kDeadlock (an empty schedule
/// classifies the current state).
RunResult replay(System& system, std::span<const Action> schedule);

}  // namespace mcsym::mcapi
