// Tests for trace capture, structure, validation and serialization.
#include <gtest/gtest.h>

#include "check/workloads.hpp"
#include "mcapi/executor.hpp"
#include "trace/trace.hpp"

namespace mcsym::trace {
namespace {

using check::workloads::figure1;
using mcapi::ExecEvent;

Trace record(const mcapi::Program& p, std::uint64_t seed) {
  mcapi::System sys(p);
  Trace tr(p);
  Recorder rec(tr);
  mcapi::RandomScheduler sched(seed);
  const mcapi::RunResult r = mcapi::run(sys, sched, &rec);
  EXPECT_EQ(r.outcome, mcapi::RunResult::Outcome::kHalted);
  return tr;
}

TEST(TraceTest, Figure1EventCensus) {
  const mcapi::Program p = figure1();
  const Trace tr = record(p, 1);
  EXPECT_EQ(tr.size(), 6u);  // 3 sends + 3 recvs
  EXPECT_EQ(tr.sends().size(), 3u);
  EXPECT_EQ(tr.receives().size(), 3u);
  EXPECT_EQ(tr.num_threads(), 3u);
  EXPECT_EQ(tr.thread_events(0).size(), 2u);
  EXPECT_FALSE(tr.validate().has_value());
}

TEST(TraceTest, PerThreadOrderPreserved) {
  const mcapi::Program p = figure1();
  const Trace tr = record(p, 2);
  for (mcapi::ThreadRef t = 0; t < tr.num_threads(); ++t) {
    std::uint32_t last = 0;
    bool first = true;
    for (const EventIndex i : tr.thread_events(t)) {
      const auto& ev = tr.event(i).ev;
      EXPECT_EQ(ev.thread, t);
      if (!first) {
        EXPECT_GT(ev.op_index, last);
      }
      last = ev.op_index;
      first = false;
    }
  }
}

TEST(TraceTest, FindByThreadAndOp) {
  const mcapi::Program p = figure1();
  const Trace tr = record(p, 3);
  const EventIndex i = tr.find(2, 0);
  ASSERT_NE(i, kNoEvent);
  EXPECT_EQ(tr.event(i).ev.kind, ExecEvent::Kind::kSend);
  EXPECT_EQ(tr.find(2, 99), kNoEvent);
  EXPECT_EQ(tr.find(77, 0), kNoEvent);
}

TEST(TraceTest, CompletionOfBlockingRecvIsItself) {
  const mcapi::Program p = figure1();
  const Trace tr = record(p, 4);
  for (const EventIndex r : tr.receives()) {
    EXPECT_EQ(tr.completion_of(r), r);
  }
}

TEST(TraceTest, WaitLinksToIssue) {
  const mcapi::Program p = check::workloads::nonblocking_gather(2);
  mcapi::System sys(p);
  Trace tr(p);
  Recorder rec(tr);
  mcapi::RoundRobinScheduler sched;
  (void)mcapi::run(sys, sched, &rec);

  int issues = 0;
  for (const EventIndex r : tr.receives()) {
    const TraceEvent& te = tr.event(r);
    if (te.ev.kind != ExecEvent::Kind::kRecvIssue) continue;
    ++issues;
    ASSERT_NE(te.wait_event, kNoEvent);
    const TraceEvent& wait = tr.event(te.wait_event);
    EXPECT_EQ(wait.ev.kind, ExecEvent::Kind::kWait);
    EXPECT_EQ(wait.issue_event, r);
    EXPECT_EQ(tr.completion_of(r), te.wait_event);
  }
  EXPECT_EQ(issues, 2);
}

TEST(TraceTest, RecordsBranchOutcomes) {
  const mcapi::Program p = check::workloads::branchy_race();
  const Trace tr = record(p, 6);
  int branches = 0;
  for (std::size_t i = 0; i < tr.size(); ++i) {
    if (tr.event(static_cast<EventIndex>(i)).ev.kind == ExecEvent::Kind::kBranch) {
      ++branches;
    }
  }
  EXPECT_EQ(branches, 1);
}

// The text has one line per event, and some line is led by `kind`.
void expect_one_line_per_event(const Trace& tr, const char* kind) {
  const std::string text = tr.to_text();
  std::size_t lines = 0;
  for (std::size_t start = 0; start < text.size(); ++lines) {
    const std::size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "unterminated last line";
    EXPECT_NE(text.substr(start, end - start).find(" t="), std::string::npos);
    start = end + 1;
  }
  EXPECT_EQ(lines, tr.size());
  EXPECT_NE(("\n" + text).find(std::string("\n") + kind + " "), std::string::npos)
      << kind;
}

TEST(TraceSerializeTest, OneLinePerEvent) {
  const mcapi::Program fig = figure1();
  expect_one_line_per_event(record(fig, 7), "recv");
  const mcapi::Program branchy = check::workloads::branchy_race();
  expect_one_line_per_event(record(branchy, 8), "branch");
  const mcapi::Program p = check::workloads::nonblocking_gather(2);
  mcapi::System sys(p);
  Trace tr(p);
  Recorder rec(tr);
  mcapi::RoundRobinScheduler sched;
  (void)mcapi::run(sys, sched, &rec);
  EXPECT_FALSE(tr.validate().has_value());
  expect_one_line_per_event(tr, "wait");
}

TEST(TraceSerializeTest, VarPlusExpressionsAreWritten) {
  const mcapi::Program p = check::workloads::scatter_gather(2);
  mcapi::System sys(p);
  Trace tr(p);
  Recorder rec(tr);
  mcapi::RoundRobinScheduler sched;
  (void)mcapi::run(sys, sched, &rec);
  const std::string text = tr.to_text();
  EXPECT_NE(text.find("varplus:"), std::string::npos);  // y = x + 1000*(w+1)
}

TEST(TraceValidateTest, CatchesBrokenWait) {
  const mcapi::Program p = figure1();
  Trace tr(p);
  ExecEvent issue;
  issue.kind = ExecEvent::Kind::kRecvIssue;
  issue.thread = 0;
  issue.op_index = 0;
  issue.dst = 0;
  issue.var = const_cast<mcapi::Program&>(p).interner().intern("A");
  tr.append(issue);
  const auto err = tr.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("never waited"), std::string::npos);
}

TEST(TraceValidateTest, CatchesForeignEndpoint) {
  const mcapi::Program p = figure1();
  Trace tr(p);
  ExecEvent recv;
  recv.kind = ExecEvent::Kind::kRecv;
  recv.thread = 0;
  recv.op_index = 0;
  recv.dst = 1;  // endpoint e1 is owned by t1, not t0
  recv.var = const_cast<mcapi::Program&>(p).interner().intern("A");
  tr.append(recv);
  const auto err = tr.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("not owned"), std::string::npos);
}

}  // namespace
}  // namespace mcsym::trace
