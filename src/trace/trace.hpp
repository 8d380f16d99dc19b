// Execution traces: the input artifact of the paper's technique.
//
// A Trace is the sequence of API-level events one concrete run produced,
// organized per thread (program order is what the encoder consumes) while
// retaining the observed global order (one witness linearization, useful for
// diagnostics). Wait events are linked back to the non-blocking receive that
// issued their request, because the paper anchors a non-blocking receive's
// match window at the wait.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mcapi/program.hpp"
#include "mcapi/system.hpp"

namespace mcsym::trace {

using EventIndex = std::uint32_t;
inline constexpr EventIndex kNoEvent = 0xffffffffu;

struct TraceEvent {
  mcapi::ExecEvent ev;
  EventIndex index = kNoEvent;        // position in global observed order
  EventIndex wait_event = kNoEvent;   // for kRecvIssue: the matching kWait
  EventIndex issue_event = kNoEvent;  // for kWait: the matching kRecvIssue
};

class Trace {
 public:
  /// Borrows the program: the caller must keep it alive for the trace's
  /// lifetime (the rvalue overload is deleted to catch temporaries).
  explicit Trace(const mcapi::Program& program) : program_(&program) {}
  explicit Trace(mcapi::Program&&) = delete;

  /// Appends one event in observed order (recorder hook).
  void append(const mcapi::ExecEvent& ev);

  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] const TraceEvent& event(EventIndex i) const { return events_[i]; }
  [[nodiscard]] const std::vector<EventIndex>& thread_events(mcapi::ThreadRef t) const {
    return per_thread_[t];
  }
  [[nodiscard]] std::size_t num_threads() const { return per_thread_.size(); }
  [[nodiscard]] const mcapi::Program& program() const { return *program_; }

  /// Indices of all send events, in observed order.
  [[nodiscard]] const std::vector<EventIndex>& sends() const { return sends_; }
  /// Indices of all receive-completion anchors: kRecv events and kRecvIssue
  /// events (the latter representing the non-blocking receive; its window
  /// anchor is the linked wait). One entry per message consumed.
  [[nodiscard]] const std::vector<EventIndex>& receives() const { return receives_; }

  /// For a receive anchor (kRecv or kRecvIssue), the event whose completion
  /// bounds the match window: the receive itself, or its wait.
  [[nodiscard]] EventIndex completion_of(EventIndex recv) const;

  /// Lookup by (thread, dynamic op ordinal); kNoEvent if absent.
  [[nodiscard]] EventIndex find(mcapi::ThreadRef t, std::uint32_t op_index) const;

  /// Structural well-formedness: waits linked, receives have endpoints owned
  /// by their thread, per-thread op_index strictly increasing. Returns an
  /// error description or nullopt when valid.
  [[nodiscard]] std::optional<std::string> validate() const;

  /// Text form, one event per line (see serialize.cpp for the format).
  [[nodiscard]] std::string to_text() const;

 private:
  const mcapi::Program* program_;
  std::vector<TraceEvent> events_;
  std::vector<std::vector<EventIndex>> per_thread_;
  std::vector<EventIndex> sends_;
  std::vector<EventIndex> receives_;
};

/// A trace's control outcomes as the BranchRecords a System emits when it
/// follows them, sorted: one per branch and `test` poll, and for a
/// `wait_any` one "skipped" record per request listed before the winner
/// plus the winner's (mirroring System::step_thread). An execution kept
/// the trace's control flow iff its sorted System::branches() equal these.
[[nodiscard]] std::vector<mcapi::BranchRecord> control_outcomes(const Trace& trace);

/// A System's match records as (receive anchor, send) event pairs of
/// `trace`, sorted: the shape of match::Matching. Operations are found by
/// static identity (thread, op ordinal), since per-run uids differ across
/// interleavings. nullopt when a record names an operation the trace does
/// not contain.
[[nodiscard]] std::optional<std::vector<std::pair<EventIndex, EventIndex>>>
matching_of(const Trace& trace, const std::vector<mcapi::MatchRecord>& records);

/// ExecSink that records events into a Trace.
class Recorder final : public mcapi::ExecSink {
 public:
  explicit Recorder(Trace& trace) : trace_(&trace) {}
  void on_event(const mcapi::ExecEvent& event) override { trace_->append(event); }

 private:
  Trace* trace_;
};

}  // namespace mcsym::trace
