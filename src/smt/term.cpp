#include "smt/term.hpp"

#include <algorithm>
#include <functional>

namespace mcsym::smt {

namespace {

std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

// Folds to 32 bits through a multiply so the low bits, which pick the slot,
// depend on every input bit.
std::uint32_t fold_hash(std::uint64_t h) {
  return static_cast<std::uint32_t>(((h ^ (h >> 32)) * 0x9e3779b97f4a7c15ULL) >> 32);
}

std::uint32_t node_hash(const TermNode& n, std::span<const TermId> pool_children) {
  std::uint64_t h = static_cast<std::uint64_t>(n.op);
  h = hash_mix(h, static_cast<std::uint64_t>(n.value));
  h = hash_mix(h, n.child0);
  h = hash_mix(h, n.child1);
  for (const TermId c : pool_children) h = hash_mix(h, c);
  h = hash_mix(h, pool_children.size());
  return fold_hash(h);
}

constexpr std::size_t kInitialSlots = 1024;

}  // namespace

TermTable::TermTable() : slots_(kInitialSlots) {
  TermNode t{};
  t.op = Op::kTrue;
  t.sort = Sort::kBool;
  true_id_ = intern_node(std::move(t));
  TermNode f{};
  f.op = Op::kFalse;
  f.sort = Sort::kBool;
  false_id_ = intern_node(std::move(f));
}

bool TermTable::node_equal(const TermNode& n, std::span<const TermId> pool_children,
                           TermId existing) const {
  const TermNode& e = nodes_[existing];
  if (e.op != n.op || e.value != n.value ||
      e.child0 != n.child0 || e.child1 != n.child1 ||
      e.children_cnt != pool_children.size()) {
    return false;
  }
  for (std::uint32_t i = 0; i < e.children_cnt; ++i) {
    if (child_pool_[e.children_off + i] != pool_children[i]) return false;
  }
  return true;
}

TermId TermTable::intern_node(TermNode&& n, std::span<const TermId> pool_children) {
  const std::uint32_t h = node_hash(n, pool_children);
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = h & mask;
  for (; slots_[i].id != kNoTerm; i = (i + 1) & mask) {
    if (slots_[i].hash == h && node_equal(n, pool_children, slots_[i].id)) {
      return slots_[i].id;
    }
  }
  return add_node(i, h, std::move(n), pool_children);
}

TermId TermTable::intern_var(Op op, std::string_view name) {
  const std::uint32_t h =
      fold_hash(hash_mix(std::hash<std::string_view>{}(name), static_cast<std::uint64_t>(op)));
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = h & mask;
  for (; slots_[i].id != kNoTerm; i = (i + 1) & mask) {
    const TermNode& e = nodes_[slots_[i].id];
    if (slots_[i].hash == h && e.op == op && names_[e.name] == name) return slots_[i].id;
  }
  TermNode n{};
  n.op = op;
  n.sort = op == Op::kBoolVar ? Sort::kBool : Sort::kInt;
  n.name = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  return add_node(i, h, std::move(n), {});
}

// Appends `n` and files it in the empty `slot` its probe ended on.
TermId TermTable::add_node(std::size_t slot, std::uint32_t hash, TermNode&& n,
                           std::span<const TermId> pool_children) {
  if (!pool_children.empty()) {
    n.children_off = static_cast<std::uint32_t>(child_pool_.size());
    n.children_cnt = static_cast<std::uint32_t>(pool_children.size());
    child_pool_.insert(child_pool_.end(), pool_children.begin(), pool_children.end());
  }
  const TermId id = static_cast<TermId>(nodes_.size());
  nodes_.push_back(n);
  slots_[slot] = Slot{id, hash};
  if (2 * nodes_.size() > slots_.size()) grow_slots();
  return id;
}

void TermTable::grow_slots() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.id == kNoTerm) continue;
    std::size_t i = s.hash & mask;
    while (slots_[i].id != kNoTerm) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

TermId TermTable::bool_var(std::string_view name) { return intern_var(Op::kBoolVar, name); }

TermId TermTable::int_var(std::string_view name) { return intern_var(Op::kIntVar, name); }

TermId TermTable::int_const(std::int64_t value) {
  TermNode n{};
  n.op = Op::kIntConst;
  n.sort = Sort::kInt;
  n.value = value;
  return intern_node(std::move(n));
}

TermId TermTable::add_const(TermId base, std::int64_t offset) {
  const TermNode& b = node(base);
  MCSYM_ASSERT_MSG(b.sort == Sort::kInt, "add_const needs an int term");
  if (offset == 0) return base;
  if (b.op == Op::kIntConst) return int_const(b.value + offset);
  if (b.op == Op::kAddConst) return add_const(b.child0, b.value + offset);
  MCSYM_ASSERT(b.op == Op::kIntVar);
  TermNode n{};
  n.op = Op::kAddConst;
  n.sort = Sort::kInt;
  n.value = offset;
  n.child0 = base;
  return intern_node(std::move(n));
}

TermId TermTable::not_(TermId t) {
  const TermNode& n = node(t);
  MCSYM_ASSERT(n.sort == Sort::kBool);
  if (n.op == Op::kTrue) return false_id_;
  if (n.op == Op::kFalse) return true_id_;
  if (n.op == Op::kNot) return n.child0;
  TermNode m{};
  m.op = Op::kNot;
  m.sort = Sort::kBool;
  m.child0 = t;
  return intern_node(std::move(m));
}

bool TermTable::collect_junction(Op op, std::span<const TermId> children) {
  const Op identity = op == Op::kAnd ? Op::kTrue : Op::kFalse;
  const Op absorbing = op == Op::kAnd ? Op::kFalse : Op::kTrue;
  junction_.clear();
  auto push = [&](auto&& self, TermId c) -> bool {  // false on `absorbing`
    const TermNode& n = node(c);
    MCSYM_ASSERT(n.sort == Sort::kBool);
    if (n.op == absorbing) return false;
    if (n.op == identity) return true;
    if (n.op == op) {
      for (const TermId g : this->children(c)) {
        if (!self(self, g)) return false;
      }
      return true;
    }
    junction_.push_back(c);
    return true;
  };
  for (const TermId c : children) {
    if (!push(push, c)) return false;
  }
  // Sorted, so hash-consing catches permutations.
  std::sort(junction_.begin(), junction_.end());
  junction_.erase(std::unique(junction_.begin(), junction_.end()), junction_.end());
  // not_ never wraps a kNot, so every complementary pair is a kNot child
  // next to its operand: look the operands up, minting no negations.
  for (const TermId c : junction_) {
    const TermNode& n = node(c);
    if (n.op == Op::kNot &&
        std::binary_search(junction_.begin(), junction_.end(), n.child0)) {
      return false;
    }
  }
  return true;
}

TermId TermTable::and_(std::span<const TermId> children) {
  if (!collect_junction(Op::kAnd, children)) return false_id_;
  if (junction_.empty()) return true_id_;
  if (junction_.size() == 1) return junction_[0];
  TermNode n{};
  n.op = Op::kAnd;
  n.sort = Sort::kBool;
  return intern_node(std::move(n), junction_);
}

TermId TermTable::or_(std::span<const TermId> children) {
  if (!collect_junction(Op::kOr, children)) return true_id_;
  if (junction_.empty()) return false_id_;
  if (junction_.size() == 1) return junction_[0];
  TermNode n{};
  n.op = Op::kOr;
  n.sort = Sort::kBool;
  return intern_node(std::move(n), junction_);
}

TermId TermTable::iff(TermId a, TermId b) {
  if (a == b) return true_id_;
  return and2(implies(a, b), implies(b, a));
}

TermId TermTable::ite(TermId cond, TermId then_t, TermId else_t) {
  const TermNode& c = node(cond);
  if (c.op == Op::kTrue) return then_t;
  if (c.op == Op::kFalse) return else_t;
  return and2(or2(not_(cond), then_t), or2(cond, else_t));
}

TermTable::IntDecomp TermTable::decompose_int(TermId t) const {
  const TermNode& n = node(t);
  MCSYM_ASSERT_MSG(n.sort == Sort::kInt, "expected an int-sorted term");
  switch (n.op) {
    case Op::kIntConst: return {kNoTerm, n.value};
    case Op::kIntVar: return {t, 0};
    case Op::kAddConst: return {n.child0, n.value};
    default: MCSYM_UNREACHABLE("int term outside the difference-logic fragment");
  }
}

TermId TermTable::mk_le_atom(TermId x, TermId y, std::int64_t k) {
  // x - y <= k, with kNoTerm meaning the constant 0.
  if (x == y) return k >= 0 ? true_id_ : false_id_;
  if (x == kNoTerm && y == kNoTerm) return k >= 0 ? true_id_ : false_id_;
  TermNode n{};
  n.op = Op::kLeAtom;
  n.sort = Sort::kBool;
  n.value = k;
  n.child0 = x;
  n.child1 = y;
  return intern_node(std::move(n));
}

TermId TermTable::le(TermId a, TermId b) {
  const IntDecomp da = decompose_int(a);
  const IntDecomp db = decompose_int(b);
  // (xa + ka) <= (xb + kb)  <=>  xa - xb <= kb - ka
  return mk_le_atom(da.var, db.var, db.offset - da.offset);
}

TermId TermTable::eq(TermId a, TermId b) {
  if (a == b) return true_id_;
  return and2(le(a, b), le(b, a));
}

TermId TermTable::ne(TermId a, TermId b) {
  if (a == b) return false_id_;
  return or2(lt(a, b), lt(b, a));
}

std::span<const TermId> TermTable::children(TermId t) const {
  const TermNode& n = node(t);
  return {child_pool_.data() + n.children_off, n.children_cnt};
}

const std::string& TermTable::var_name(TermId t) const {
  const TermNode& n = node(t);
  MCSYM_ASSERT(n.op == Op::kBoolVar || n.op == Op::kIntVar);
  return names_[n.name];
}

void TermTable::render(TermId t, std::string& out) const {
  const TermNode& n = node(t);
  switch (n.op) {
    case Op::kTrue: out += "true"; return;
    case Op::kFalse: out += "false"; return;
    case Op::kBoolVar:
    case Op::kIntVar: out += names_[n.name]; return;
    case Op::kIntConst: out += std::to_string(n.value); return;
    case Op::kAddConst:
      out += "(+ ";
      render(n.child0, out);
      out.append(" ").append(std::to_string(n.value)).append(")");
      return;
    case Op::kNot:
      out += "(not ";
      render(n.child0, out);
      out += ")";
      return;
    case Op::kAnd:
    case Op::kOr: {
      out += n.op == Op::kAnd ? "(and" : "(or";
      for (const TermId c : children(t)) {
        out += " ";
        render(c, out);
      }
      out += ")";
      return;
    }
    case Op::kLeAtom: {
      out += "(<= (- ";
      if (n.child0 == kNoTerm) out += "0";
      else render(n.child0, out);
      out += " ";
      if (n.child1 == kNoTerm) out += "0";
      else render(n.child1, out);
      out += ") " + std::to_string(n.value) + ")";
      return;
    }
  }
  MCSYM_UNREACHABLE("bad term op");
}

std::string TermTable::to_string(TermId t) const {
  std::string out;
  render(t, out);
  return out;
}

}  // namespace mcsym::smt
