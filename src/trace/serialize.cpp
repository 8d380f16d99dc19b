// Text form of traces (`mcsym trace`, diagnostics, test comparisons).
//
// One event per line, space-separated key=value tokens, first token is the
// event kind. Variable names are written by spelling. Example:
//
//   send t=2 op=0 src=3 dst=0 expr=const:7 uid=1 value=7
//   recv t=0 op=0 ep=0 var=a slot=0 uid=1 value=7
//   branch t=1 op=2 lhs=var:x rel=eq rhs=const:0 outcome=1
#include <sstream>

#include "support/assert.hpp"
#include "trace/trace.hpp"

namespace mcsym::trace {

namespace {

using mcapi::ExecEvent;
using mcapi::Rel;
using mcapi::ValueExpr;

std::string expr_to_text(const ValueExpr& e, const support::Interner& names) {
  switch (e.kind) {
    case ValueExpr::Kind::kConst: return "const:" + std::to_string(e.k);
    case ValueExpr::Kind::kVar: return "var:" + names.spelling(e.var);
    case ValueExpr::Kind::kVarPlus:
      return "varplus:" + names.spelling(e.var) + ":" + std::to_string(e.k);
  }
  MCSYM_UNREACHABLE("bad expr kind");
}

const char* rel_token(Rel r) {
  switch (r) {
    case Rel::kLt: return "lt";
    case Rel::kLe: return "le";
    case Rel::kEq: return "eq";
    case Rel::kNe: return "ne";
    case Rel::kGe: return "ge";
    case Rel::kGt: return "gt";
  }
  return "?";
}

const char* kind_token(ExecEvent::Kind k) {
  switch (k) {
    case ExecEvent::Kind::kSend: return "send";
    case ExecEvent::Kind::kRecv: return "recv";
    case ExecEvent::Kind::kRecvIssue: return "recv_i";
    case ExecEvent::Kind::kWait: return "wait";
    case ExecEvent::Kind::kTest: return "test";
    case ExecEvent::Kind::kWaitAny: return "wait_any";
    case ExecEvent::Kind::kAssign: return "assign";
    case ExecEvent::Kind::kBranch: return "branch";
    case ExecEvent::Kind::kAssert: return "assert";
  }
  return "?";
}

}  // namespace

std::string Trace::to_text() const {
  const support::Interner& names = program_->interner();
  std::ostringstream os;
  for (const TraceEvent& te : events_) {
    const ExecEvent& e = te.ev;
    os << kind_token(e.kind) << " t=" << e.thread << " op=" << e.op_index;
    switch (e.kind) {
      case ExecEvent::Kind::kSend:
        os << " src=" << e.src << " dst=" << e.dst
           << " expr=" << expr_to_text(e.expr, names) << " uid=" << e.uid
           << " value=" << e.value;
        break;
      case ExecEvent::Kind::kRecv:
        os << " ep=" << e.dst << " var=" << names.spelling(e.var)
           << " slot=" << e.var_slot << " uid=" << e.uid << " value=" << e.value;
        break;
      case ExecEvent::Kind::kRecvIssue:
        os << " ep=" << e.dst << " var=" << names.spelling(e.var)
           << " slot=" << e.var_slot << " req=" << e.req;
        break;
      case ExecEvent::Kind::kWait:
        os << " req=" << e.req << " issue=" << e.issue_op_index << " uid=" << e.uid
           << " value=" << e.value;
        break;
      case ExecEvent::Kind::kTest:
        os << " req=" << e.req << " issue=" << e.issue_op_index
           << " var=" << names.spelling(e.var) << " slot=" << e.var_slot
           << " ep=" << e.dst << " outcome=" << (e.outcome ? 1 : 0);
        break;
      case ExecEvent::Kind::kWaitAny: {
        os << " req=" << e.req << " issue=" << e.issue_op_index
           << " var=" << names.spelling(e.var) << " slot=" << e.var_slot
           << " uid=" << e.uid << " value=" << e.value
           << " winner=" << e.winner_index << " losers=";
        for (std::size_t k = 0; k < e.loser_issue_ops.size(); ++k) {
          if (k != 0) os << ",";
          os << e.loser_issue_ops[k];
        }
        if (e.loser_issue_ops.empty()) os << "-";
        break;
      }
      case ExecEvent::Kind::kAssign:
        os << " var=" << names.spelling(e.var) << " slot=" << e.var_slot
           << " expr=" << expr_to_text(e.expr, names) << " value=" << e.value;
        break;
      case ExecEvent::Kind::kBranch:
      case ExecEvent::Kind::kAssert:
        os << " lhs=" << expr_to_text(e.cond.lhs, names)
           << " rel=" << rel_token(e.cond.rel)
           << " rhs=" << expr_to_text(e.cond.rhs, names)
           << " outcome=" << (e.outcome ? 1 : 0);
        break;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace mcsym::trace
