#include "smt/term.hpp"

#include <algorithm>

namespace mcsym::smt {

namespace {
std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}
}  // namespace

TermTable::TermTable() {
  TermNode t{};
  t.op = Op::kTrue;
  t.sort = Sort::kBool;
  true_id_ = intern_node(std::move(t));
  TermNode f{};
  f.op = Op::kFalse;
  f.sort = Sort::kBool;
  false_id_ = intern_node(std::move(f));
}

std::uint64_t TermTable::node_hash(const TermNode& n,
                                   std::span<const TermId> pool_children) const {
  std::uint64_t h = static_cast<std::uint64_t>(n.op);
  h = hash_mix(h, static_cast<std::uint64_t>(n.value));
  h = hash_mix(h, n.name.raw());
  h = hash_mix(h, n.child0);
  h = hash_mix(h, n.child1);
  for (const TermId c : pool_children) h = hash_mix(h, c);
  h = hash_mix(h, pool_children.size());
  return h;
}

bool TermTable::node_equal(const TermNode& n, std::span<const TermId> pool_children,
                           TermId existing) const {
  const TermNode& e = nodes_[existing];
  if (e.op != n.op || e.value != n.value || e.name != n.name ||
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
  const std::uint64_t h = node_hash(n, pool_children);
  auto [lo, hi] = dedup_.equal_range(h);
  for (auto it = lo; it != hi; ++it) {
    if (node_equal(n, pool_children, it->second)) return it->second;
  }
  if (!pool_children.empty()) {
    n.children_off = static_cast<std::uint32_t>(child_pool_.size());
    n.children_cnt = static_cast<std::uint32_t>(pool_children.size());
    child_pool_.insert(child_pool_.end(), pool_children.begin(), pool_children.end());
  }
  const TermId id = static_cast<TermId>(nodes_.size());
  nodes_.push_back(n);
  dedup_.emplace(h, id);
  return id;
}

TermId TermTable::bool_var(std::string_view name) {
  const support::Symbol sym = names_.intern(name);
  if (auto it = bool_vars_.find(sym); it != bool_vars_.end()) return it->second;
  TermNode n{};
  n.op = Op::kBoolVar;
  n.sort = Sort::kBool;
  n.name = sym;
  const TermId id = intern_node(std::move(n));
  bool_vars_.emplace(sym, id);
  return id;
}

TermId TermTable::int_var(std::string_view name) {
  const support::Symbol sym = names_.intern(name);
  if (auto it = int_vars_.find(sym); it != int_vars_.end()) return it->second;
  TermNode n{};
  n.op = Op::kIntVar;
  n.sort = Sort::kInt;
  n.name = sym;
  const TermId id = intern_node(std::move(n));
  int_vars_.emplace(sym, id);
  return id;
}

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

TermId TermTable::and_(std::span<const TermId> children) {
  // Flatten nested conjunctions, fold constants, deduplicate, and detect
  // complementary pairs. Children are sorted so hash-consing catches
  // permutations.
  std::vector<TermId> flat;
  flat.reserve(children.size());
  auto push = [&](auto&& self, TermId c) -> bool {  // returns false on kFalse
    const TermNode& n = node(c);
    MCSYM_ASSERT(n.sort == Sort::kBool);
    if (n.op == Op::kFalse) return false;
    if (n.op == Op::kTrue) return true;
    if (n.op == Op::kAnd) {
      for (const TermId g : this->children(c)) {
        if (!self(self, g)) return false;
      }
      return true;
    }
    flat.push_back(c);
    return true;
  };
  for (const TermId c : children) {
    if (!push(push, c)) return false_id_;
  }
  std::sort(flat.begin(), flat.end());
  flat.erase(std::unique(flat.begin(), flat.end()), flat.end());
  for (const TermId c : flat) {
    const TermId neg = not_(c);
    if (std::binary_search(flat.begin(), flat.end(), neg)) return false_id_;
  }
  if (flat.empty()) return true_id_;
  if (flat.size() == 1) return flat[0];
  TermNode n{};
  n.op = Op::kAnd;
  n.sort = Sort::kBool;
  return intern_node(std::move(n), flat);
}

TermId TermTable::or_(std::span<const TermId> children) {
  std::vector<TermId> flat;
  flat.reserve(children.size());
  auto push = [&](auto&& self, TermId c) -> bool {  // returns false on kTrue
    const TermNode& n = node(c);
    MCSYM_ASSERT(n.sort == Sort::kBool);
    if (n.op == Op::kTrue) return false;
    if (n.op == Op::kFalse) return true;
    if (n.op == Op::kOr) {
      for (const TermId g : this->children(c)) {
        if (!self(self, g)) return false;
      }
      return true;
    }
    flat.push_back(c);
    return true;
  };
  for (const TermId c : children) {
    if (!push(push, c)) return true_id_;
  }
  std::sort(flat.begin(), flat.end());
  flat.erase(std::unique(flat.begin(), flat.end()), flat.end());
  for (const TermId c : flat) {
    const TermId neg = not_(c);
    if (std::binary_search(flat.begin(), flat.end(), neg)) return true_id_;
  }
  if (flat.empty()) return false_id_;
  if (flat.size() == 1) return flat[0];
  TermNode n{};
  n.op = Op::kOr;
  n.sort = Sort::kBool;
  return intern_node(std::move(n), flat);
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
  return names_.spelling(n.name);
}

void TermTable::render(TermId t, std::string& out) const {
  const TermNode& n = node(t);
  switch (n.op) {
    case Op::kTrue: out += "true"; return;
    case Op::kFalse: out += "false"; return;
    case Op::kBoolVar:
    case Op::kIntVar: out += names_.spelling(n.name); return;
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
