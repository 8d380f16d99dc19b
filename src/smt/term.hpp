// Hash-consed term DAG for the SMT layer.
//
// The encoder builds formulas in this language; the CNF converter lowers
// them onto the SAT core + IDL theory. The arithmetic fragment is restricted
// by construction to integer difference logic: every comparison is
// normalized at build time to the canonical atom  `x - y <= k`  (either
// variable slot may be empty, standing for the constant 0), and richer
// integer expressions are limited to `var + constant`. That restriction is
// exactly what the paper's encoding needs (event clocks, match identifiers,
// message payload copies) and keeps the theory solver complete.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/assert.hpp"

namespace mcsym::smt {

using TermId = std::uint32_t;
inline constexpr TermId kNoTerm = 0xffffffffu;

enum class Op : std::uint8_t {
  kTrue,
  kFalse,
  kBoolVar,   // named boolean variable
  kIntConst,  // value
  kIntVar,    // named integer variable
  kAddConst,  // child0 (an IntVar) + value
  kNot,       // child0
  kAnd,       // n-ary, children pool
  kOr,        // n-ary, children pool
  kLeAtom,    // child0 - child1 <= value; kNoTerm child means the constant 0
};

enum class Sort : std::uint8_t { kBool, kInt };

struct TermNode {
  Op op;
  Sort sort;
  std::uint32_t name = 0;       // kBoolVar / kIntVar: index of its spelling
  std::int64_t value = 0;       // kIntConst / kAddConst offset / kLeAtom bound
  TermId child0 = kNoTerm;
  TermId child1 = kNoTerm;
  std::uint32_t children_off = 0;  // kAnd / kOr
  std::uint32_t children_cnt = 0;
};

/// Owns all terms; every construction is hash-consed, so TermId equality is
/// structural equality and the DAG never duplicates a subformula. Terms are
/// numbered in creation order and a term's operands always precede it.
class TermTable {
 public:
  TermTable();

  // --- Leaves -------------------------------------------------------------
  [[nodiscard]] TermId true_() const { return true_id_; }
  [[nodiscard]] TermId false_() const { return false_id_; }
  TermId bool_const(bool v) { return v ? true_id_ : false_id_; }
  TermId bool_var(std::string_view name);
  TermId int_var(std::string_view name);
  TermId int_const(std::int64_t value);

  /// `base + offset` where `base` is an IntVar (or IntConst/AddConst, which
  /// fold). The result stays within the difference-logic fragment.
  TermId add_const(TermId base, std::int64_t offset);

  // --- Boolean structure ---------------------------------------------------
  TermId not_(TermId t);
  TermId and_(std::span<const TermId> children);
  TermId or_(std::span<const TermId> children);
  TermId and2(TermId a, TermId b) { return and_(std::initializer_list<TermId>{a, b}); }
  TermId or2(TermId a, TermId b) { return or_(std::initializer_list<TermId>{a, b}); }
  TermId and_(std::initializer_list<TermId> children) {
    return and_(std::span<const TermId>(children.begin(), children.size()));
  }
  TermId or_(std::initializer_list<TermId> children) {
    return or_(std::span<const TermId>(children.begin(), children.size()));
  }
  TermId implies(TermId a, TermId b) { return or2(not_(a), b); }
  TermId iff(TermId a, TermId b);
  /// Boolean if-then-else.
  TermId ite(TermId cond, TermId then_t, TermId else_t);

  // --- Integer comparisons (normalized to kLeAtom) --------------------------
  TermId le(TermId a, TermId b);   // a <= b
  TermId lt(TermId a, TermId b) { return le(add_const(a, 1), b); }
  TermId ge(TermId a, TermId b) { return le(b, a); }
  TermId gt(TermId a, TermId b) { return lt(b, a); }
  TermId eq(TermId a, TermId b);   // a = b  (two inequalities)
  TermId ne(TermId a, TermId b);   // a != b (strict either way)

  // --- Introspection ---------------------------------------------------------
  [[nodiscard]] const TermNode& node(TermId t) const {
    MCSYM_ASSERT(t < nodes_.size());
    return nodes_[t];
  }
  [[nodiscard]] std::span<const TermId> children(TermId t) const;
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] const std::string& var_name(TermId t) const;

  /// Decomposes an int-sorted term into (variable term or kNoTerm, offset).
  struct IntDecomp {
    TermId var;
    std::int64_t offset;
  };
  [[nodiscard]] IntDecomp decompose_int(TermId t) const;

  /// Human-readable rendering (s-expression style), for diagnostics.
  [[nodiscard]] std::string to_string(TermId t) const;

 private:
  TermId intern_node(TermNode&& n, std::span<const TermId> pool_children = {});
  TermId intern_var(Op op, std::string_view name);
  TermId add_node(std::size_t slot, std::uint32_t hash, TermNode&& n,
                  std::span<const TermId> pool_children);
  TermId mk_le_atom(TermId x, TermId y, std::int64_t k);
  /// Shared tail of and_/or_: flattens nested `op` children, drops the
  /// identity, sorts and deduplicates. Returns false when a child is the
  /// absorbing constant or two children are complementary.
  bool collect_junction(Op op, std::span<const TermId> children);
  [[nodiscard]] bool node_equal(const TermNode& n, std::span<const TermId> pool_children,
                                TermId existing) const;
  void grow_slots();
  void render(TermId t, std::string& out) const;

  // Hash-consing index: open addressing with linear probing over a
  // power-of-two slot array, kept at most half full. A slot holds a TermId
  // (kNoTerm when empty) and that node's 32-bit hash, so probes compare
  // hashes before touching the node. Variables hash on their spelling, so
  // the index also finds a variable by name.
  struct Slot {
    TermId id = kNoTerm;
    std::uint32_t hash = 0;
  };

  std::vector<TermNode> nodes_;
  std::vector<TermId> child_pool_;
  std::vector<Slot> slots_;
  std::vector<TermId> junction_;  // and_/or_ scratch: the flattened children
  // Variable spellings, by TermNode::name. A deque, so the references
  // var_name hands out stay valid as variables are added.
  std::deque<std::string> names_;
  TermId true_id_ = kNoTerm;
  TermId false_id_ = kNoTerm;
};

}  // namespace mcsym::smt
