#include "mcapi/executor.hpp"

namespace mcsym::mcapi {

RunResult run(System& system, Scheduler& scheduler, ExecSink* sink,
              std::size_t max_steps, std::vector<Action>* script) {
  RunResult result;
  std::vector<Action> enabled;
  while (result.steps < max_steps) {
    if (system.has_violation()) {
      result.outcome = RunResult::Outcome::kViolation;
      return result;
    }
    system.enabled(enabled);
    if (enabled.empty()) {
      result.outcome = system.all_halted() ? RunResult::Outcome::kHalted
                                           : RunResult::Outcome::kDeadlock;
      return result;
    }
    const std::size_t choice = scheduler.pick(system, enabled);
    MCSYM_ASSERT(choice < enabled.size());
    if (script != nullptr) script->push_back(enabled[choice]);
    system.apply(enabled[choice], sink);
    ++result.steps;
  }
  result.outcome = RunResult::Outcome::kStepLimit;
  return result;
}

RunResult replay(System& system, std::span<const Action> schedule) {
  RunResult result;
  for (const Action& a : schedule) {
    if (!system.action_enabled(a)) {
      result.outcome = RunResult::Outcome::kDiverged;
      return result;
    }
    system.apply(a);
    ++result.steps;
  }
  if (system.has_violation()) {
    result.outcome = RunResult::Outcome::kViolation;
    return result;
  }
  std::vector<Action> enabled;
  system.enabled(enabled);
  result.outcome = !enabled.empty()     ? RunResult::Outcome::kDiverged
                   : system.all_halted() ? RunResult::Outcome::kHalted
                                         : RunResult::Outcome::kDeadlock;
  return result;
}

}  // namespace mcsym::mcapi
