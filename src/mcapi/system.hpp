// Executable small-step semantics of the MCAPI subset.
//
// A System is a state of one Program run: thread program counters and
// locals, per-endpoint delivered-message queues, per-channel in-transit
// queues (the simulated network), and non-blocking request slots. It exposes
// the enabled-actions / apply-action interface of a labeled transition
// system, so every consumer — random trace generation, schedule replay, and
// the exhaustive explicit-state checker — shares one implementation of the
// semantics.
//
// Nondeterminism is exactly two-dimensional, matching the paper:
//   1. which runnable thread steps next (the OS scheduler), and
//   2. which channel's oldest in-transit message is delivered next (network
//      delay). Per-channel FIFO is built in: only the head of a channel
//      queue is deliverable, so same-source messages never overtake each
//      other, while messages from different sources to a common endpoint
//      commute freely. DeliveryMode::kGlobalFifo removes dimension 2
//      (delivery order = global send order): that is the MCC baseline's
//      world, the behavior gap this paper exposes.
//
// Non-blocking receives: recv_i binds to the oldest available message
// greedily (receives on an endpoint complete in issue order); the received
// value becomes visible in the destination local at the associated wait,
// which is also where the paper's match semantics anchors the happens-before
// obligation of the matching send.
//
// Checkpoint/undo: with the undo log enabled (enable_undo_log), every
// apply() journals a compact UndoRecord capturing exactly the cells it
// mutated — thread pc/op-count, the (at most two) locals written, the one
// request slot overwritten, the message a queue operation moved, and the
// match/branch log growth. undo() reverts the most recent action in O(1);
// a Checkpoint is just an undo-log watermark (one record per action, so
// the watermark equals the number of applied actions) and rollback(c)
// walks the state back to it. This is what lets the stateless checkers
// keep ONE live System and move it up and down their exploration stacks
// instead of copying the world at every frame.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mcapi/ids.hpp"
#include "mcapi/program.hpp"
#include "mcapi/value.hpp"
#include "support/hash.hpp"

namespace mcsym::mcapi {

struct Message {
  SendUid uid;  // per-run issue ordinal: NOT stable across interleavings
  EndpointRef src;
  EndpointRef dst;
  std::int64_t value;
  // Static identity of the send operation (stable across runs that follow
  // the same control flow) — what cross-run matching comparisons must use.
  ThreadRef sender;
  std::uint32_t send_op;
};

enum class DeliveryMode : std::uint8_t {
  kArbitraryDelay,  // paper semantics: channels commute
  kGlobalFifo,      // MCC-style baseline: network delivers in send order
};

/// One observable step of the program under test, as recorded in traces.
struct ExecEvent {
  enum class Kind : std::uint8_t {
    kSend,
    kRecv,       // blocking receive completed
    kRecvIssue,  // non-blocking receive issued
    kWait,       // wait completed (non-blocking receive finished)
    kWaitAny,    // wait-any completed: one listed request consumed
    kTest,       // completion poll on a request (mcapi_test); never blocks
    kAssign,
    kBranch,
    kAssert,
  };

  Kind kind;
  ThreadRef thread;
  std::uint32_t op_index;  // dynamic per-thread ordinal of this event

  // kSend
  EndpointRef src = kNoEndpoint;
  EndpointRef dst = kNoEndpoint;  // also the receive endpoint for kRecv*
  ValueExpr expr;                 // payload / assign source
  SendUid uid = 0;                // send uid / matched uid for kRecv, kWait
  std::int64_t value = 0;         // concrete payload / received / assigned

  // kRecv / kRecvIssue / kWait / kAssign
  support::Symbol var;
  LocalSlot var_slot = kNoSlot;
  std::uint32_t req = 0;             // request slot (kRecvIssue / kWait); the
                                     // *winning* slot for kWaitAny
  std::uint32_t issue_op_index = 0;  // kWait/kWaitAny: op_index of the winner's
                                     // kRecvIssue; kTest: the polled issue
  // kWaitAny only: issue op_index of every request listed *before* the
  // winner — the ones observed still pending (the encoder pins their binds
  // after this event's clock). Also the winner's index into the request
  // array, which is what mcapi_wait_any returns (stored into `var`).
  std::vector<std::uint32_t> loser_issue_ops;
  std::uint32_t winner_index = 0;

  // kBranch / kAssert
  Cond cond;
  bool outcome = false;  // branch taken / assertion held
};

class ExecSink {
 public:
  virtual ~ExecSink() = default;
  virtual void on_event(const ExecEvent& event) = 0;
};

struct Action {
  enum class Kind : std::uint8_t { kThreadStep, kDeliver };
  Kind kind;
  ThreadRef thread = 0;       // kThreadStep
  ChannelId channel{0, 0};    // kDeliver

  [[nodiscard]] std::string str(const Program& p) const;
  friend bool operator==(const Action&, const Action&) = default;
};

/// The endpoints one step observes as pending. Up to kInline entries are
/// stored inline, so a footprint copies with a fixed-size copy and no heap:
/// a test observes one endpoint, a wait_any one per pending listed request.
/// A longer list spills to the heap, in a buffer of bit_ceil(size())
/// entries; its length is not limited.
class ObservedEndpoints {
 public:
  static constexpr std::uint32_t kInline = 2;

  ObservedEndpoints() = default;
  ObservedEndpoints(const ObservedEndpoints& o) : size_(o.size_), u_(o.u_) {
    if (spilled()) {
      u_.heap = new EndpointRef[std::bit_ceil(size_)];
      std::copy_n(o.u_.heap, size_, u_.heap);
    }
  }
  ObservedEndpoints(ObservedEndpoints&& o) noexcept
      : size_(std::exchange(o.size_, 0)), u_(std::exchange(o.u_, {})) {}
  ObservedEndpoints& operator=(const ObservedEndpoints& o) {
    if (o.spilled()) return *this = ObservedEndpoints(o);
    release();
    size_ = o.size_;
    u_ = o.u_;
    return *this;
  }
  ObservedEndpoints& operator=(ObservedEndpoints&& o) noexcept {
    if (this != &o) {
      release();
      size_ = std::exchange(o.size_, 0);
      u_ = std::exchange(o.u_, {});
    }
    return *this;
  }
  ~ObservedEndpoints() { release(); }

  void push_back(EndpointRef ep) {
    // Spill, or double the heap buffer, when the entries fill their storage.
    if (size_ >= kInline && std::has_single_bit(size_)) {
      auto* grown = new EndpointRef[2 * static_cast<std::size_t>(size_)];
      std::copy_n(begin(), size_, grown);
      release();
      u_.heap = grown;
    }
    (size_ < kInline ? u_.local.data() : u_.heap)[size_++] = ep;
  }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const EndpointRef* begin() const {
    return spilled() ? u_.heap : u_.local.data();
  }
  [[nodiscard]] const EndpointRef* end() const { return begin() + size_; }

 private:
  [[nodiscard]] bool spilled() const { return size_ > kInline; }
  void release() {
    if (spilled()) delete[] u_.heap;
  }

  std::uint32_t size_ = 0;
  // `local` is the active member exactly while size_ <= kInline.
  union Storage {
    std::array<EndpointRef, kInline> local;
    EndpointRef* heap;
  } u_{};
};

/// Static footprint of an action, computed against the state it is enabled
/// in: which shared structures it will touch and which message (by static
/// send identity) it moves or consumes. The partial-order-reduction
/// checkers derive their independence and happens-before relations from
/// footprint pairs without executing anything. A footprint stays valid as
/// long as the acting process's causal prefix is preserved (nothing
/// dependent with it executes in between), so DPOR may cache footprints in
/// sleep sets and scheduled revisit sequences.
struct ActionFootprint {
  Action action;
  OpKind op = OpKind::kNop;   // thread steps: the instruction kind
  bool internal = false;      // pure thread-local step (assign/branch/...)
  std::uint32_t op_index = 0; // thread steps: dynamic ordinal (send identity)
  ChannelId channel{kNoEndpoint, kNoEndpoint};  // kSend target / kDeliver channel
  EndpointRef endpoint = kNoEndpoint;  // endpoint queue popped (recv / recv_i)
  // Message moved or consumed, by static send identity: the in-transit head
  // a kDeliver moves, the queued head a recv/recv_i pops, the binding of a
  // completed wait/wait_any/test.
  bool has_message = false;
  ThreadRef message_thread = 0;
  std::uint32_t message_op = 0;
  // Endpoints whose requests this step observes as still pending (a pending
  // mcapi_test poll, the requests a wait_any scans past): reordering a
  // delivery to such an endpoint across the step can change its outcome.
  ObservedEndpoints observed_pending;
};

/// Structural dependence of two action footprints: false only when the
/// actions commute and neither can enable, disable, or feed the other —
/// program order, per-endpoint delivery order, the send -> deliver ->
/// receive chain of one message, pending-request observations, and (under
/// kGlobalFifo) the global send/delivery order are all dependent.
[[nodiscard]] bool dependent(const ActionFootprint& a, const ActionFootprint& b,
                             DeliveryMode mode);

/// Which receive (identified by thread + dynamic ordinal of the receive
/// operation) consumed which send (identified statically by sender thread +
/// ordinal, since per-run uids differ across interleavings). The explicit
/// checker aggregates these per terminal state; the symbolic checker
/// produces the same shape from models.
struct MatchRecord {
  ThreadRef thread;
  std::uint32_t recv_op_index;
  ThreadRef send_thread;
  std::uint32_t send_op_index;
  friend bool operator==(const MatchRecord&, const MatchRecord&) = default;
  friend auto operator<=>(const MatchRecord&, const MatchRecord&) = default;
};

struct BranchRecord {
  ThreadRef thread;
  std::uint32_t op_index;
  bool taken;
  friend bool operator==(const BranchRecord&, const BranchRecord&) = default;
  friend auto operator<=>(const BranchRecord&, const BranchRecord&) = default;
};

struct Violation {
  ThreadRef thread;
  std::uint32_t op_index;
  Cond cond;
};

class System {
 public:
  /// Borrows the program: the caller keeps it alive for the system's
  /// lifetime (the rvalue overload is deleted to catch temporaries).
  explicit System(const Program& program,
                  DeliveryMode mode = DeliveryMode::kArbitraryDelay);
  explicit System(Program&&, DeliveryMode = DeliveryMode::kArbitraryDelay) = delete;

  // Copyable: tests snapshot states to check rollback against, and a bench
  // times the copy-per-branch fork that checkpoint/rollback replaced.
  System(const System&) = default;
  System& operator=(const System&) = default;

  /// Undo-log watermark: the number of actions applied (and not undone)
  /// since the log was enabled. Obtained from checkpoint(), consumed by
  /// rollback().
  using Checkpoint = std::size_t;

  /// Turns on the apply/undo journal. From here on every apply() records a
  /// compact UndoRecord; undo()/rollback() revert them in LIFO order.
  /// Checkpoint 0 names the state at the moment the log was enabled.
  void enable_undo_log() { journaling_ = true; }
  [[nodiscard]] bool undo_log_enabled() const { return journaling_; }

  /// Current undo-log watermark. Requires the undo log to be enabled.
  [[nodiscard]] Checkpoint checkpoint() const;

  /// Reverts the most recently applied (not yet undone) action, restoring
  /// the exact prior state — including transit-queue layout and the uid
  /// counter, so a rolled-back System is indistinguishable from one that
  /// never took the action. Requires a non-empty undo log.
  void undo();

  /// Undoes actions until the log is back at `mark` (no-op when already
  /// there). `mark` must be a watermark previously returned by checkpoint()
  /// that has not been invalidated by an earlier rollback past it.
  void rollback(Checkpoint mark);

  /// Appends all currently enabled actions to `out` (cleared first).
  void enabled(std::vector<Action>& out) const;

  /// Membership test of enabled() without materializing the vector — the
  /// hot path of DPOR race-reversal simulation and schedule replay.
  [[nodiscard]] bool action_enabled(const Action& action) const;

  /// Applies one enabled action; events are reported to `sink` (may be null).
  void apply(const Action& action, ExecSink* sink = nullptr);

  [[nodiscard]] bool all_halted() const;
  /// True when nothing is enabled but some thread has not halted (a real
  /// MCAPI hang: receive with no matching send in any future).
  [[nodiscard]] bool deadlocked() const;
  [[nodiscard]] bool has_violation() const { return violation_.has_value(); }
  [[nodiscard]] const std::optional<Violation>& violation() const { return violation_; }

  /// By default a fired assertion is terminal: nothing is enabled past it
  /// (the runtime stops at the first failed assert). In
  /// continue-past-violation mode execution keeps going — every failed
  /// assert is appended to violations() and threads stay runnable — so a
  /// replayer can realize the *whole* execution a symbolic model values,
  /// violations after the first included. Fully undo-log compatible: each
  /// undone assert pops its entry again.
  void set_continue_past_violation(bool on) { continue_past_violation_ = on; }
  [[nodiscard]] bool continue_past_violation() const {
    return continue_past_violation_;
  }
  /// Every assertion that fired so far, in execution order. At most one
  /// entry (== violation()) outside continue-past-violation mode.
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }

  [[nodiscard]] const std::vector<MatchRecord>& matches() const { return matches_; }
  [[nodiscard]] const std::vector<BranchRecord>& branches() const { return branches_; }

  // The three identities below are sinks of one walk over the semantic
  // state (walk_state): threads (pc, halted, locals, request slots),
  // endpoint queues and pending receives, non-empty in-transit channels
  // (order-insensitive, with uid ranks under kGlobalFifo, which fix the
  // delivery order) and the count of fired asserts.

  /// 64-bit FNV-1a of the walk. Match and branch history are excluded, so
  /// it suits safety-reachability pruning and the stateful stores.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Lossless serialization of the same walk. Test support for the
  /// collision-soundness battery: two states with equal fingerprints but
  /// different semantic keys are a hash collision.
  [[nodiscard]] std::string semantic_key() const;

  /// 128-bit hash of the walk's history variant: queued messages are keyed
  /// by static send identity instead of source endpoint, in-transit
  /// messages and bound requests add theirs, and the sorted match and
  /// branch logs are appended. Two states with equal history fingerprints
  /// have identical futures and identical records, so matching-enumeration
  /// DFS may prune on it.
  [[nodiscard]] support::Hash128 history_fingerprint() const;

  [[nodiscard]] const Program& program() const { return *program_; }
  [[nodiscard]] std::int64_t local(ThreadRef t, LocalSlot slot) const {
    return threads_[t].locals[slot];
  }
  /// Dynamic instruction count executed by thread `t` so far.
  [[nodiscard]] std::uint32_t op_count(ThreadRef t) const {
    return threads_[t].op_count;
  }

  /// Kind of the instruction thread `t` would execute next (nullopt when
  /// halted). Lets partial-order reduction classify actions without
  /// executing them.
  [[nodiscard]] std::optional<OpKind> next_op_kind(ThreadRef t) const {
    if (threads_[t].halted) return std::nullopt;
    return program_->thread(t).code[threads_[t].pc].kind;
  }

  /// Footprint of `action` at this state (see ActionFootprint). Meaningful
  /// for enabled actions; safe (but partial) on disabled ones.
  [[nodiscard]] ActionFootprint footprint(const Action& action) const;

 private:
  enum class ReqState : std::uint8_t { kUnused, kPending, kBound, kConsumed };

  struct Request {
    ReqState state = ReqState::kUnused;
    std::int64_t value = 0;
    SendUid uid = 0;
    ThreadRef send_thread = 0;
    std::uint32_t send_op_index = 0;
    support::Symbol var;
    LocalSlot var_slot = kNoSlot;
    EndpointRef ep = kNoEndpoint;
    std::uint32_t issue_op_index = 0;
  };

  struct ThreadState {
    std::uint32_t pc = 0;
    std::uint32_t op_count = 0;
    bool halted = false;
    std::vector<std::int64_t> locals;
    std::vector<Request> requests;
  };

  struct EndpointState {
    std::deque<Message> queue;  // delivered, not yet received
    std::deque<std::pair<ThreadRef, std::uint32_t>> pending;  // unbound recv_i
  };

  /// Everything one apply() mutated, captured so undo() can restore the
  /// prior state exactly. Fixed-size (no heap): the semantics touches at
  /// most one request slot, two locals, and one queued message per action.
  struct UndoRecord {
    enum class Tag : std::uint8_t {
      kLocalOnly,      // assign/jmp/branch/assert/test/nop: pc, locals, logs
      kSend,           // pushed a message onto a transit queue
      kRecv,           // popped an endpoint queue front
      kRecvNbBound,    // recv_i that bound immediately (popped the queue)
      kRecvNbPending,  // recv_i that parked on the endpoint's pending list
      kWait,           // consumed a bound request
      kWaitAny,        // consumed the scanned winner request
      kDeliverQueue,   // moved a transit head into an endpoint queue
      kDeliverBind,    // moved a transit head into the oldest pending request
    };
    Tag tag = Tag::kLocalOnly;
    // Thread-step epilogue (every tag except the two deliveries): pc /
    // op_count / halted restore. For kDeliverBind, `thread`/`request_slot`
    // name the request the delivery bound instead.
    ThreadRef thread = 0;
    std::uint32_t prev_pc = 0;
    bool prev_halted = false;
    bool fired_violation = false;  // kAssert that failed: undo clears it
    // Locals written, oldest first (wait_any writes payload + winner index;
    // restored in reverse so aliased slots come back right).
    std::uint8_t locals_written = 0;
    LocalSlot local_slot[2] = {kNoSlot, kNoSlot};
    std::int64_t local_old[2] = {0, 0};
    // The one request slot overwritten, with its full prior value.
    bool touched_request = false;
    std::uint32_t request_slot = 0;
    Request saved_request;
    // Queue motion: the message to push back where it came from.
    ChannelId channel{kNoEndpoint, kNoEndpoint};
    bool created_channel = false;  // kSend opened a fresh transit entry
    EndpointRef endpoint = kNoEndpoint;
    Message message{};
    // Log growth to trim on undo.
    std::uint8_t matches_pushed = 0;
    std::uint32_t branches_pushed = 0;
  };

  /// The one walk behind fingerprint(), semantic_key() and
  /// history_fingerprint(); Sink::kHistory selects the history variant.
  template <class Sink>
  void walk_state(Sink& sink) const;

  void step_thread(ThreadRef t, ExecSink* sink, UndoRecord* u);
  void deliver(ChannelId channel, UndoRecord* u);
  void bind_request(ThreadRef t, std::uint32_t slot, const Message& m);
  [[nodiscard]] bool thread_can_step(ThreadRef t) const;
  [[nodiscard]] SendUid oldest_in_transit_uid() const;
  [[nodiscard]] std::deque<Message>& transit_queue(ChannelId channel);

  const Program* program_;
  DeliveryMode mode_;
  std::vector<ThreadState> threads_;
  std::vector<EndpointState> endpoints_;
  // Channel queues in deterministic order: keyed vector (src, dst) -> deque.
  std::vector<std::pair<ChannelId, std::deque<Message>>> transit_;
  SendUid next_uid_ = 1;
  std::optional<Violation> violation_;  // first fired assert (== violations_.front())
  std::vector<Violation> violations_;
  bool continue_past_violation_ = false;
  std::vector<MatchRecord> matches_;
  std::vector<BranchRecord> branches_;
  bool journaling_ = false;
  std::vector<UndoRecord> undo_log_;
};

}  // namespace mcsym::mcapi
