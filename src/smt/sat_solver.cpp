#include "smt/sat_solver.hpp"

#include <algorithm>
#include <cmath>

namespace mcsym::smt {

namespace {

// Luby restart sequence: 1 1 2 1 1 2 4 ... scaled by the conflict base.
double luby(double y, std::uint64_t x) {
  std::uint64_t size = 1;
  int seq = 0;
  while (size < x + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != x) {
    size = (size - 1) >> 1;
    --seq;
    x = x % size;
  }
  return std::pow(y, seq);
}

constexpr std::uint64_t kRestartBase = 100;
constexpr double kVarDecay = 0.95;
constexpr double kClauseDecay = 0.999;
constexpr double kRescaleLimit = 1e100;

}  // namespace

SatSolver::SatSolver() : order_heap_(activity_) {}

Var SatSolver::new_var(bool theory_relevant, bool preferred_phase) {
  const Var v = static_cast<Var>(assigns_.size());
  assigns_.push_back(LBool::kUndef);
  var_info_.push_back(VarInfo{});
  saved_phase_.push_back(preferred_phase ? 1 : 0);
  theory_relevant_.push_back(theory_relevant ? 1 : 0);
  activity_.push_back(0.0);
  seen_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  order_heap_.insert(v);
  return v;
}

bool SatSolver::add_clause(std::span<const Lit> lits) {
  MCSYM_ASSERT_MSG(decision_level() == 0, "clauses may only be added at level 0");
  if (!ok_) return false;

  // Normalize: sort, deduplicate, drop level-0-false literals, detect
  // tautologies and already-satisfied clauses. Kept literals are compacted
  // to the front of the scratch buffer in place.
  std::vector<Lit>& c = add_scratch_;
  c.assign(lits.begin(), lits.end());
  std::sort(c.begin(), c.end());
  c.erase(std::unique(c.begin(), c.end()), c.end());
  std::size_t n_kept = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i + 1 < c.size() && c[i].var() == c[i + 1].var()) return true;  // l ∨ ¬l
    const LBool val = value(c[i]);
    if (val == LBool::kTrue) return true;  // satisfied at level 0
    if (val == LBool::kFalse) continue;    // falsified at level 0: drop
    c[n_kept++] = c[i];
  }
  const std::span<const Lit> kept(c.data(), n_kept);

  if (kept.empty()) {
    ok_ = false;
    return false;
  }
  if (kept.size() == 1) {
    enqueue(kept[0], kNoClause);
    if (propagate() != kNoClause) ok_ = false;
    return ok_;
  }
  const ClauseRef ref = arena_.alloc(kept, /*learnt=*/false);
  problem_clauses_.push_back(ref);
  attach_clause(ref);
  return true;
}

void SatSolver::attach_clause(ClauseRef ref) {
  const Clause& c = arena_.deref(ref);
  MCSYM_ASSERT(c.size() >= 2);
  watches_[c[0].code()].push_back(Watcher{ref, c[1]});
  watches_[c[1].code()].push_back(Watcher{ref, c[0]});
}

void SatSolver::detach_clause(ClauseRef ref) {
  const Clause& c = arena_.deref(ref);
  for (const Lit w : {c[0], c[1]}) {
    auto& list = watches_[w.code()];
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i].cref == ref) {
        list[i] = list.back();
        list.pop_back();
        break;
      }
    }
  }
}

void SatSolver::enqueue(Lit l, ClauseRef reason) {
  MCSYM_ASSERT(value(l) == LBool::kUndef);
  assigns_[l.var()] = l.negated() ? LBool::kFalse : LBool::kTrue;
  var_info_[l.var()] = VarInfo{reason, decision_level()};
  trail_.push_back(l);
}

ClauseRef SatSolver::propagate() {
  ClauseRef conflict = kNoClause;
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];  // p became true; visit clauses watching ~p
    ++stats_.propagations;
    auto& ws = watches_[(~p).code()];
    std::size_t i = 0;
    std::size_t j = 0;
    const Lit false_lit = ~p;
    while (i < ws.size()) {
      const Watcher w = ws[i];
      // Blocker short-circuit: if some cached literal of the clause is
      // already true, the clause is satisfied and needs no work.
      if (value(w.blocker) == LBool::kTrue) {
        ws[j++] = ws[i++];
        continue;
      }
      Clause& c = arena_.deref(w.cref);
      if (c[0] == false_lit) c.swap_lits(0, 1);
      MCSYM_ASSERT(c[1] == false_lit);
      ++i;
      const Lit first = c[0];
      if (first != w.blocker && value(first) == LBool::kTrue) {
        ws[j++] = Watcher{w.cref, first};
        continue;
      }
      // Look for a replacement watch among the tail literals.
      bool moved = false;
      for (std::uint32_t k = 2; k < c.size(); ++k) {
        if (value(c[k]) != LBool::kFalse) {
          c.swap_lits(1, k);
          watches_[c[1].code()].push_back(Watcher{w.cref, first});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Clause is unit or conflicting under the current assignment.
      ws[j++] = Watcher{w.cref, first};
      if (value(first) == LBool::kFalse) {
        conflict = w.cref;
        qhead_ = trail_.size();
        while (i < ws.size()) ws[j++] = ws[i++];
      } else {
        enqueue(first, w.cref);
      }
    }
    ws.resize(j);
  }
  return conflict;
}

bool SatSolver::theory_propagate(std::vector<Lit>& conflict_out) {
  if (theory_ == nullptr) {
    theory_head_ = trail_.size();
    return true;
  }
  while (theory_head_ < trail_.size()) {
    const Lit p = trail_[theory_head_];
    if (theory_relevant_[p.var()] != 0) {
      if (!theory_->theory_assign(p)) {
        ++stats_.theory_conflicts;
        conflict_out.clear();
        std::vector<Lit> expl;
        theory_->theory_explain(expl);
        MCSYM_ASSERT_MSG(!expl.empty(), "theory conflict needs an explanation");
        for (const Lit l : expl) {
          MCSYM_ASSERT_MSG(value(l) == LBool::kTrue,
                           "theory explanations must cite true literals");
          conflict_out.push_back(~l);
        }
        return false;
      }
      theory_trail_.push_back(p);
    }
    ++theory_head_;
  }
  return true;
}

void SatSolver::cancel_until(std::uint32_t level) {
  if (decision_level() <= level) return;
  const std::uint32_t keep = trail_lim_[level];
  for (std::size_t i = trail_.size(); i-- > keep;) {
    const Var v = trail_[i].var();
    assigns_[v] = LBool::kUndef;
    saved_phase_[v] = trail_[i].negated() ? 0 : 1;
    if (!order_heap_.contains(v)) order_heap_.insert(v);
  }
  trail_.resize(keep);
  trail_lim_.resize(level);
  qhead_ = keep;
  if (theory_ != nullptr) {
    while (!theory_trail_.empty() &&
           assigns_[theory_trail_.back().var()] == LBool::kUndef) {
      theory_trail_.pop_back();
    }
    theory_->theory_backtrack(theory_trail_.size());
    theory_head_ = std::min(theory_head_, trail_.size());
  }
}

void SatSolver::bump_var(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > kRescaleLimit) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
    order_heap_.rebuild();
  }
  order_heap_.increased(v);
}

void SatSolver::decay_var_activity() { var_inc_ /= kVarDecay; }

void SatSolver::bump_clause(Clause& c) {
  c.bump_activity(static_cast<float>(cla_inc_));
  if (c.activity() > 1e20f) {
    for (const ClauseRef ref : learnt_clauses_) {
      Clause& lc = arena_.deref(ref);
      lc.set_activity(lc.activity() * 1e-20f);
    }
    cla_inc_ *= 1e-20;
  }
}

void SatSolver::decay_clause_activity() { cla_inc_ /= kClauseDecay; }

std::uint32_t SatSolver::compute_lbd(std::span<const Lit> lits) {
  ++lbd_stamp_;
  if (lbd_seen_.size() < trail_lim_.size() + 2) {
    lbd_seen_.resize(trail_lim_.size() + 2, 0);
  }
  std::uint32_t distinct = 0;
  for (const Lit l : lits) {
    const std::uint32_t lvl = var_info_[l.var()].level;
    if (lvl < lbd_seen_.size() && lbd_seen_[lvl] != lbd_stamp_) {
      lbd_seen_[lvl] = lbd_stamp_;
      ++distinct;
    }
  }
  return distinct;
}

void SatSolver::analyze(std::span<const Lit> conflict, std::vector<Lit>& learnt,
                        std::uint32_t& backtrack_level, std::uint32_t& lbd) {
  learnt.clear();
  learnt.push_back(kNoLit);  // slot for the asserting literal
  std::uint32_t path_count = 0;
  Lit p = kNoLit;
  std::size_t index = trail_.size();
  std::vector<Lit> reason_buf(conflict.begin(), conflict.end());

  for (;;) {
    for (const Lit q : reason_buf) {
      const Var v = q.var();
      if (seen_[v] != 0 || var_info_[v].level == 0) continue;
      seen_[v] = 1;
      bump_var(v);
      if (var_info_[v].level >= decision_level()) {
        ++path_count;
      } else {
        learnt.push_back(q);
      }
    }
    // Walk the trail backwards to the next marked literal.
    do {
      MCSYM_ASSERT(index > 0);
      --index;
    } while (seen_[trail_[index].var()] == 0);
    p = trail_[index];
    seen_[p.var()] = 0;
    --path_count;
    if (path_count == 0) break;

    const ClauseRef reason = var_info_[p.var()].reason;
    MCSYM_ASSERT_MSG(reason != kNoClause, "UIP walk hit a decision early");
    Clause& rc = arena_.deref(reason);
    if (rc.learnt()) bump_clause(rc);
    reason_buf.clear();
    MCSYM_ASSERT(rc[0] == p);
    for (std::uint32_t k = 1; k < rc.size(); ++k) reason_buf.push_back(rc[k]);
  }
  learnt[0] = ~p;

  // Conflict-clause minimization (MiniSat's recursive scheme): a literal is
  // redundant if its reason-graph ancestors all land on other learnt
  // literals.
  analyze_toclear_.assign(learnt.begin() + 1, learnt.end());
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    abstract_levels |= 1u << (var_info_[learnt[i].var()].level & 31u);
  }
  std::size_t kept = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    const ClauseRef reason = var_info_[learnt[i].var()].reason;
    if (reason == kNoClause || !lit_redundant(learnt[i], abstract_levels)) {
      learnt[kept++] = learnt[i];
    } else {
      ++stats_.minimized_literals;
    }
  }
  learnt.resize(kept);
  for (const Lit l : analyze_toclear_) seen_[l.var()] = 0;
  analyze_toclear_.clear();

  // Compute the backjump level: the second-highest level in the clause.
  if (learnt.size() == 1) {
    backtrack_level = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learnt.size(); ++i) {
      if (var_info_[learnt[i].var()].level > var_info_[learnt[max_i].var()].level) {
        max_i = i;
      }
    }
    std::swap(learnt[1], learnt[max_i]);
    backtrack_level = var_info_[learnt[1].var()].level;
  }
  lbd = compute_lbd(learnt);
  stats_.learnt_literals += learnt.size();
}

bool SatSolver::lit_redundant(Lit l, std::uint32_t abstract_levels) {
  analyze_stack_.clear();
  analyze_stack_.push_back(l);
  const std::size_t top = analyze_toclear_.size();
  while (!analyze_stack_.empty()) {
    const Lit q = analyze_stack_.back();
    analyze_stack_.pop_back();
    const ClauseRef reason = var_info_[q.var()].reason;
    MCSYM_ASSERT(reason != kNoClause);
    const Clause& c = arena_.deref(reason);
    for (std::uint32_t k = 1; k < c.size(); ++k) {
      const Lit pl = c[k];
      const Var v = pl.var();
      if (seen_[v] != 0 || var_info_[v].level == 0) continue;
      const bool expandable =
          var_info_[v].reason != kNoClause &&
          ((1u << (var_info_[v].level & 31u)) & abstract_levels) != 0;
      if (!expandable) {
        // Not redundant: roll back the marks made during this probe.
        for (std::size_t j = top; j < analyze_toclear_.size(); ++j) {
          seen_[analyze_toclear_[j].var()] = 0;
        }
        analyze_toclear_.resize(top);
        return false;
      }
      seen_[v] = 1;
      analyze_stack_.push_back(pl);
      analyze_toclear_.push_back(pl);
    }
  }
  return true;
}

Lit SatSolver::pick_branch_lit() {
  while (!order_heap_.empty()) {
    const Var v = order_heap_.pop_max();
    if (assigns_[v] == LBool::kUndef) {
      return Lit::make(v, saved_phase_[v] == 0);
    }
  }
  return kNoLit;
}

void SatSolver::reduce_learnts() {
  ++stats_.reductions;
  // Keep clauses that are locked (currently a reason), small, or glue
  // (LBD <= 2); among the rest, drop the worse half by (LBD, activity).
  std::vector<ClauseRef> removable;
  removable.reserve(learnt_clauses_.size());
  for (const ClauseRef ref : learnt_clauses_) {
    const Clause& c = arena_.deref(ref);
    const bool locked = var_info_[c[0].var()].reason == ref &&
                        value(c[0]) == LBool::kTrue;
    if (!locked && c.size() > 2 && c.lbd() > 2) removable.push_back(ref);
  }
  std::sort(removable.begin(), removable.end(), [this](ClauseRef a, ClauseRef b) {
    const Clause& ca = arena_.deref(a);
    const Clause& cb = arena_.deref(b);
    if (ca.lbd() != cb.lbd()) return ca.lbd() > cb.lbd();
    return ca.activity() < cb.activity();
  });
  const std::size_t drop = removable.size() / 2;
  std::vector<ClauseRef> dropped(removable.begin(),
                                 removable.begin() + static_cast<std::ptrdiff_t>(drop));
  std::sort(dropped.begin(), dropped.end());
  for (const ClauseRef ref : dropped) {
    detach_clause(ref);
    arena_.free_clause(ref);
  }
  std::vector<ClauseRef> survivors;
  survivors.reserve(learnt_clauses_.size() - drop);
  for (const ClauseRef ref : learnt_clauses_) {
    if (!std::binary_search(dropped.begin(), dropped.end(), ref)) {
      survivors.push_back(ref);
    }
  }
  learnt_clauses_ = std::move(survivors);
  garbage_collect_if_needed();
}

void SatSolver::garbage_collect_if_needed() {
  if (arena_.wasted_words() * 5 < arena_.size_words()) return;
  std::vector<std::pair<ClauseRef, ClauseRef>> moves;
  arena_.collect_garbage([&moves](ClauseRef old_ref, ClauseRef new_ref) {
    moves.emplace_back(old_ref, new_ref);
  });
  // moves is sorted by old_ref because GC scans the arena in order.
  auto relocate = [&moves](ClauseRef ref) -> ClauseRef {
    auto it = std::lower_bound(
        moves.begin(), moves.end(), ref,
        [](const auto& m, ClauseRef r) { return m.first < r; });
    MCSYM_ASSERT(it != moves.end() && it->first == ref);
    return it->second;
  };
  for (auto& list : watches_) {
    for (auto& w : list) w.cref = relocate(w.cref);
  }
  for (auto& ref : problem_clauses_) ref = relocate(ref);
  for (auto& ref : learnt_clauses_) ref = relocate(ref);
  for (const Lit l : trail_) {
    VarInfo& info = var_info_[l.var()];
    if (info.reason != kNoClause) info.reason = relocate(info.reason);
  }
}

SolveResult SatSolver::search() {
  std::uint64_t restart_count = 0;
  std::uint64_t conflicts_since_restart = 0;
  auto restart_limit = [&restart_count] {
    return static_cast<std::uint64_t>(luby(2.0, restart_count) *
                                      static_cast<double>(kRestartBase));
  };
  std::vector<Lit> learnt;
  std::vector<Lit> conflict_lits;

  // Shared conflict-resolution path for boolean and theory conflicts.
  // Returns false when the conflict proves unsatisfiability (level 0).
  auto resolve = [&](std::span<const Lit> conflict) -> bool {
    ++stats_.conflicts;
    ++conflicts_this_solve_;
    ++conflicts_since_restart;
    if (decision_level() == 0) return false;
    std::uint32_t backtrack_level = 0;
    std::uint32_t lbd = 0;
    analyze(conflict, learnt, backtrack_level, lbd);
    cancel_until(backtrack_level);
    if (learnt.size() == 1) {
      enqueue(learnt[0], kNoClause);
    } else {
      const ClauseRef ref = arena_.alloc(learnt, /*learnt=*/true);
      Clause& c = arena_.deref(ref);
      c.set_lbd(lbd);
      bump_clause(c);
      learnt_clauses_.push_back(ref);
      attach_clause(ref);
      enqueue(learnt[0], ref);
    }
    decay_var_activity();
    decay_clause_activity();
    return true;
  };

  for (;;) {
    const ClauseRef bool_conflict = propagate();
    if (bool_conflict != kNoClause) {
      const Clause& c = arena_.deref(bool_conflict);
      conflict_lits.clear();
      for (std::uint32_t k = 0; k < c.size(); ++k) conflict_lits.push_back(c[k]);
      if (!resolve(conflict_lits)) return SolveResult::kUnsat;
      continue;
    }
    if (!theory_propagate(conflict_lits)) {
      if (!resolve(conflict_lits)) return SolveResult::kUnsat;
      continue;
    }

    if (conflict_budget_ != 0 && conflicts_this_solve_ >= conflict_budget_) {
      return SolveResult::kUnknown;
    }
    if (conflicts_since_restart >= restart_limit()) {
      ++restart_count;
      ++stats_.restarts;
      conflicts_since_restart = 0;
      cancel_until(0);
      continue;
    }
    if (static_cast<double>(learnt_clauses_.size()) >= max_learnts_) {
      reduce_learnts();
      max_learnts_ *= 1.3;
    }

    // Establish pending assumptions, then branch.
    Lit next = kNoLit;
    while (decision_level() < assumptions_.size()) {
      const Lit a = assumptions_[decision_level()];
      if (value(a) == LBool::kTrue) {
        trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
      } else if (value(a) == LBool::kFalse) {
        analyze_final(~a);           // assumptions inconsistent with formula;
        return SolveResult::kUnsat;  // failed_assumptions_ holds the core
      } else {
        next = a;
        break;
      }
    }
    if (!next.valid()) next = pick_branch_lit();
    if (!next.valid()) {
      // Full assignment: give the theory the last word.
      if (theory_ != nullptr && !theory_->theory_final_check()) {
        std::vector<Lit> expl;
        theory_->theory_explain(expl);
        conflict_lits.clear();
        for (const Lit l : expl) conflict_lits.push_back(~l);
        ++stats_.theory_conflicts;
        if (!resolve(conflict_lits)) return SolveResult::kUnsat;
        continue;
      }
      model_.assign(assigns_.begin(), assigns_.end());
      return SolveResult::kSat;
    }
    ++stats_.decisions;
    trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
    enqueue(next, kNoClause);
  }
}

/// MiniSat's analyzeFinal: p is true by propagation from the installed
/// assumptions (p = ~a for the assumption `a` that just failed); walk the
/// implication graph backwards and collect the assumption decisions it rests
/// on. The result — including `a` itself — is an unsat core over the
/// assumptions.
void SatSolver::analyze_final(Lit p) {
  failed_assumptions_.clear();
  failed_assumptions_.push_back(~p);
  if (decision_level() == 0) return;
  MCSYM_ASSERT(value(p) == LBool::kTrue);
  seen_[p.var()] = 1;
  for (std::size_t i = trail_.size(); i-- > trail_lim_[0];) {
    const Var x = trail_[i].var();
    if (seen_[x] == 0) continue;
    seen_[x] = 0;
    const ClauseRef reason = var_info_[x].reason;
    if (reason == kNoClause) {
      // Every decision below the assumption prefix is an assumption.
      MCSYM_ASSERT(var_info_[x].level > 0);
      if (trail_[i] != ~p) failed_assumptions_.push_back(trail_[i]);
    } else {
      const Clause& c = arena_.deref(reason);
      for (std::uint32_t k = 1; k < c.size(); ++k) {
        if (var_info_[c[k].var()].level > 0) seen_[c[k].var()] = 1;
      }
    }
  }
}

SolveResult SatSolver::solve(std::span<const Lit> assumptions) {
  MCSYM_ASSERT(decision_level() == 0);
  failed_assumptions_.clear();
  if (!ok_) return SolveResult::kUnsat;
  assumptions_.assign(assumptions.begin(), assumptions.end());
  conflicts_this_solve_ = 0;
  if (max_learnts_ == 0.0) {
    max_learnts_ = std::max(2000.0, static_cast<double>(problem_clauses_.size()) * 0.5);
  }
  const SolveResult result = search();
  if (result == SolveResult::kUnsat && assumptions_.empty()) ok_ = false;
  cancel_until(0);
  assumptions_.clear();
  return result;
}

LBool SatSolver::model_value(Var v) const {
  MCSYM_ASSERT_MSG(v < model_.size(), "no model recorded for this variable");
  return model_[v];
}

}  // namespace mcsym::smt
