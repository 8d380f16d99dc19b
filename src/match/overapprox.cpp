#include "match/generators.hpp"

namespace mcsym::match {

using mcapi::ExecEvent;

MatchSet generate_overapprox(const trace::Trace& trace) {
  MatchSet set;
  for (const EventIndex r : trace.receives()) {
    const auto& recv_ev = trace.event(r).ev;
    const EventIndex completion = trace.completion_of(r);
    const auto& compl_ev = trace.event(completion).ev;
    std::vector<EventIndex> sends;
    for (const EventIndex s : trace.sends()) {
      const auto& send_ev = trace.event(s).ev;
      if (send_ev.dst != recv_ev.dst) continue;  // different endpoint
      if (send_ev.thread == compl_ev.thread &&
          send_ev.op_index >= compl_ev.op_index) {
        // Same thread, at-or-after the completion: program order forbids
        // c_send < c_completion, so the pair can never be chosen.
        continue;
      }
      sends.push_back(s);
    }
    set.add_all(r, std::move(sends));
  }
  return set;
}

}  // namespace mcsym::match
