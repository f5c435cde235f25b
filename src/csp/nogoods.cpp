#include "csp/nogoods.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "support/assert.hpp"

namespace mgrts::csp {

namespace {
/// Clauses at or below this block LBD form the protected core of the
/// database: never pruned, and the promotion target of replay-hit LBD
/// refreshes.
constexpr std::int32_t kCoreLbd = 2;
}  // namespace

std::int32_t block_lbd(const std::int32_t* depths, std::int32_t n) {
  MGRTS_EXPECTS(n >= 1);
  std::int32_t runs = 1;
  for (std::int32_t k = 1; k < n; ++k) {
    MGRTS_ASSERT(depths[k] > depths[k - 1]);
    runs += depths[k] == depths[k - 1] + 1 ? 0 : 1;
  }
  return runs;
}

NogoodStore::NogoodStore(std::int64_t vars, std::int32_t max_length,
                         std::int32_t db_limit, bool general)
    : max_length_(max_length), db_limit_(db_limit), general_(general) {
  MGRTS_EXPECTS(vars > 0);
  MGRTS_EXPECTS(max_length_ >= 1);
  MGRTS_EXPECTS(db_limit_ >= 1);
  scope_.resize(static_cast<std::size_t>(vars));
  std::iota(scope_.begin(), scope_.end(), VarId{0});
  watch_.resize(static_cast<std::size_t>(vars));
  agg_miss_.assign(static_cast<std::size_t>(vars), 0);
}

const std::vector<VarId>& NogoodStore::failure_scope() const {
  // Charging the full scope would bump every variable's wdeg on each nogood
  // conflict and drown the heuristic; charge the violated clause instead.
  return conflict_vars_.empty() ? scope_ : conflict_vars_;
}

void NogoodStore::push_watch(Lit lit, std::int32_t clause_id) {
  const Value base =
      solver_ != nullptr ? solver_->domain(lit.var).base() : Value{0};
  const std::uint64_t miss = ~truth_mask(lit, base);
  agg_miss_[static_cast<std::size_t>(lit.var)] |= miss;
  watch_[static_cast<std::size_t>(lit.var)].push_back(
      WatchRef{miss, clause_id});
}

void NogoodStore::record(const std::vector<Lit>& lits, std::int32_t raw_len,
                         std::int32_t lbd, SolveStats& stats) {
  const auto len = static_cast<std::int32_t>(lits.size());
  if (len == 0 || len > max_length_) return;
  if (len == 1) {
    root_units_.push_back(lits.front());
    ++stats.nogoods_recorded;
    stats.nogood_lits_before += raw_len;
    stats.nogood_lits_after += len;
    return;
  }
  // Pause recording when the database has outgrown twice its soft limit;
  // the next restart prunes it back down.
  if (live_ >= 2 * static_cast<std::int64_t>(db_limit_)) return;

  // On-the-fly subsumption against the previous recording (successive
  // conflicts in one subtree often differ by one literal): keep only the
  // stronger clause.  "A subsumes B" reads "every state B forbids, A
  // forbids too" — the order-insensitive literal-implication cover.
  if (last_recorded_ >= 0) {
    Clause& prev = clauses_[static_cast<std::size_t>(last_recorded_)];
    if (!prev.deleted) {
      const Lit* prev_lits = &lits_[static_cast<std::size_t>(prev.offset)];
      if (nogood_subsumes(prev_lits, prev.len, lits.data(), len)) {
        ++stats.nogoods_subsumed;  // the database already covers this one
        return;
      }
      if (nogood_subsumes(lits.data(), len, prev_lits, prev.len)) {
        prev.deleted = true;  // watches go stale; maintenance compacts
        --live_;
        ++stats.nogoods_subsumed;
      }
    }
  }

  // Watch order: the conflict-level literal (free right now — the caller
  // just backtracked it) and the deepest still-entailed literal (the first
  // to be un-entailed by further backtracking).  Both watches are
  // therefore as close to non-entailed as a mid-search insertion allows;
  // any re-entailment arrives as an event on a watched variable.
  ordered_.clear();
  ordered_.reserve(lits.size());
  ordered_.push_back(lits[static_cast<std::size_t>(len - 1)]);
  ordered_.push_back(lits[static_cast<std::size_t>(len - 2)]);
  for (std::int32_t k = 0; k < len - 2; ++k) {
    ordered_.push_back(lits[static_cast<std::size_t>(k)]);
  }
  const auto offset = static_cast<std::int32_t>(lits_.size());
  lits_.insert(lits_.end(), ordered_.begin(), ordered_.end());
  last_recorded_ = static_cast<std::int32_t>(clauses_.size());
  clauses_.push_back(Clause{offset, len, lbd, /*deleted=*/false});
  push_watch(ordered_[0], last_recorded_);
  push_watch(ordered_[1], last_recorded_);
  ++live_;
  ++stats.nogoods_recorded;
  stats.nogood_lits_before += raw_len;
  stats.nogood_lits_after += len;
}

bool NogoodStore::on_event(Solver& solver, std::int32_t pos,
                           std::uint64_t old_mask) {
  // Scope is the identity map, so pos is the variable id.  Queue every
  // clause one of whose watches just became entailed — for a (var == val)
  // watch that is exactly a fix to val (the kFixedOnly behavior), for
  // bound and != watches any narrowing can do it, which is why general
  // stores subscribe to every change.  Each WatchRef carries its literal's
  // precomputed miss mask, so the transition test is two ANDs per entry
  // with no clause-memory access at all.  Entries are stale-tolerant
  // (moved-away or deleted-clause watches may fire spuriously; examine()
  // re-verifies against clause memory, and the change may be unwound
  // before the run anyway).
  const VarId var = scope_[static_cast<std::size_t>(pos)];
  const std::uint64_t cur_mask = solver.domain(var).raw_mask();
  // Aggregate pre-test (PR 8 profiling follow-up): a transition needs the
  // removed bits to hit some watch's miss mask, so one AND against the
  // per-variable aggregate proves most deltas can't wake anything and
  // skips the list walk.
  if (((old_mask & ~cur_mask) & agg_miss_[static_cast<std::size_t>(var)]) ==
      0) {
    return false;
  }
  bool woke = false;
  for (const WatchRef& w : watch_[static_cast<std::size_t>(var)]) {
    if ((cur_mask & w.miss) == 0 && (old_mask & w.miss) != 0) {
      pending_.push_back(w.clause);
      woke = true;
    }
  }
  return woke;
}

PropResult NogoodStore::assert_negation(Solver& solver, Lit lit) {
  if (lit.rel == Rel::kNe) {
    // ¬(var != val) is the assignment itself; one trail entry.
    return solver.fix(lit.var, lit.val);
  }
  // Prune every remaining value satisfying the conjunct (for == a single
  // removal, for bounds a half-window sweep).
  const Domain64& d = solver.domain(lit.var);
  const Value base = d.base();
  std::uint64_t kill = d.raw_mask() & truth_mask(lit, base);
  while (kill != 0) {
    const Value v = base + std::countr_zero(kill);
    kill &= kill - 1;
    if (solver.remove(lit.var, v) == PropResult::kFail) {
      return PropResult::kFail;
    }
  }
  return PropResult::kOk;
}

void NogoodStore::refresh_lbd(const Solver& solver, Clause& clause) {
  // Replay-hit LBD refresh (DESIGN.md §11): the block LBD recorded at the
  // conflict described *that* tree; where the clause fires now, the
  // entailment depths of its literals may be far more glued.  Recompute
  // and keep the improvement — a clause that keeps firing inside one
  // depth block earns its way out of the prunable tier.
  depth_buf_.clear();
  const Lit* lits = &lits_[static_cast<std::size_t>(clause.offset)];
  for (std::int32_t k = 0; k < clause.len; ++k) {
    const std::int32_t depth = solver.entailment_depth(lits[k]);
    if (depth >= 0) depth_buf_.push_back(depth);
  }
  if (depth_buf_.empty()) return;
  std::sort(depth_buf_.begin(), depth_buf_.end());
  depth_buf_.erase(std::unique(depth_buf_.begin(), depth_buf_.end()),
                   depth_buf_.end());
  const std::int32_t fresh = block_lbd(
      depth_buf_.data(), static_cast<std::int32_t>(depth_buf_.size()));
  if (fresh < clause.lbd) {
    clause.lbd = fresh;
    if (stats_ != nullptr) ++stats_->nogood_lbd_refreshed;
  }
}

PropResult NogoodStore::examine(Solver& solver, std::int32_t clause_id) {
  Clause& c = clauses_[static_cast<std::size_t>(clause_id)];
  if (c.deleted) return PropResult::kOk;
  Lit* lits = &lits_[static_cast<std::size_t>(c.offset)];
  for (int w = 0; w < 2; ++w) {
    if (!lit_entailed(solver, lits[w])) continue;
    const int o = 1 - w;
    if (lit_impossible(solver, lits[o])) continue;  // clause already true
    // Find a replacement watch among the tail literals.
    bool moved = false;
    for (std::int32_t k = 2; k < c.len; ++k) {
      if (lit_entailed(solver, lits[k])) continue;
      std::swap(lits[w], lits[k]);
      push_watch(lits[w], clause_id);
      // The old entry under the entailed variable goes stale; on_event
      // re-verifies watch membership, so no erase is needed here.
      moved = true;
      break;
    }
    if (moved) continue;
    // No replacement: the other watch is unit or the clause is violated.
    // Either failure (violated clause, or a unit assertion that empties
    // the domain) is attributed to this clause's variables for dom/wdeg.
    conflict_vars_.clear();
    for (std::int32_t k = 0; k < c.len; ++k) {
      conflict_vars_.push_back(lits[k].var);
    }
    if (general_ && c.lbd > kCoreLbd) refresh_lbd(solver, c);
    if (lit_entailed(solver, lits[o])) {
      if (stats_ != nullptr) ++stats_->nogood_conflicts;
      return PropResult::kFail;
    }
    if (stats_ != nullptr) ++stats_->nogood_props;
    // The unit assertion follows from this clause's other literals alone,
    // not from the store's all-variable scope — narrow the reason so
    // conflict analysis can chase the entailing changes instead of keeping
    // every decision (conflict_vars_ is exactly the clause's variables).
    solver.begin_explicit_reason(conflict_vars_.data(),
                                 static_cast<std::int32_t>(
                                     conflict_vars_.size()));
    const PropResult unit = assert_negation(solver, lits[o]);
    solver.end_explicit_reason();
    if (unit == PropResult::kFail && stats_ != nullptr) {
      ++stats_->nogood_conflicts;
    }
    return unit;
  }
  return PropResult::kOk;
}

bool NogoodStore::apply_root_unit(Solver& solver, Lit unit,
                                  SolveStats& stats) {
  if (lit_impossible(solver, unit)) return true;  // already refuted for good
  if (lit_entailed(solver, unit)) return false;  // root requires the literal
  ++stats.nogood_props;
  return assert_negation(solver, unit) != PropResult::kFail;
}

PropResult NogoodStore::propagate(Solver& solver) {
  // examine() can append to pending_ indirectly (its assertions narrow
  // variables, which wake this store again synchronously), so index, don't
  // iterate.
  for (std::size_t k = 0; k < pending_.size(); ++k) {
    if (examine(solver, pending_[k]) == PropResult::kFail) {
      pending_.clear();
      return PropResult::kFail;
    }
  }
  pending_.clear();
  conflict_vars_.clear();
  return PropResult::kOk;
}

bool NogoodStore::restart_maintenance(Solver& solver, SolveStats& stats) {
  solver_ = &solver;  // the rebuilt watches read domain bases
  pending_.clear();
  conflict_vars_.clear();
  last_recorded_ = -1;  // compaction renumbers; drop the subsumption anchor

  // Root units strengthen the root permanently (the caller re-propagates
  // and advances its root mark afterwards).  Assertions fire events
  // against the still-consistent pre-compaction structures; the pending
  // entries they generate are discarded below, which is safe because
  // compaction re-examines every literal against the root state anyway.
  for (const Lit& unit : root_units_) {
    if (!apply_root_unit(solver, unit, stats)) return false;
  }
  root_units_.clear();
  pending_.clear();

  // Prune by glue: core clauses (block LBD <= kCoreLbd, including replay-
  // hit promotions) are kept ahead of the rest, newest-first within each
  // class, and the whole database is bounded by db_limit_ (a core flood
  // cannot exceed it).  Subsumed clauses drop here regardless.
  std::vector<Clause> kept;
  if (live_ > static_cast<std::int64_t>(db_limit_)) {
    std::int64_t cores = 0;
    for (const Clause& c : clauses_) {
      cores += !c.deleted && c.lbd <= kCoreLbd ? 1 : 0;
    }
    std::int64_t core_budget = std::min<std::int64_t>(cores, db_limit_);
    std::int64_t long_budget = db_limit_ - core_budget;
    kept.reserve(static_cast<std::size_t>(db_limit_));
    for (auto it = clauses_.rbegin(); it != clauses_.rend(); ++it) {
      if (it->deleted) continue;
      if (it->lbd <= kCoreLbd) {
        if (core_budget > 0) {
          kept.push_back(*it);
          --core_budget;
        }
      } else if (long_budget > 0) {
        kept.push_back(*it);
        --long_budget;
      }
    }
    std::reverse(kept.begin(), kept.end());  // keep recency order stable
  } else {
    kept.reserve(static_cast<std::size_t>(live_));
    for (const Clause& c : clauses_) {
      if (!c.deleted) kept.push_back(c);
    }
  }

  // Compact the arena, dropping clauses whose conjuncts became impossible
  // at the (possibly just strengthened) root, folding root-unit clauses
  // into the root, and reporting root-violated clauses as UNSAT.  The
  // trail is at the root, so "entailed/impossible now" means "forever".
  // Unit folds are only collected here — applying them fires events that
  // would re-enter on_event against half-rebuilt structures — and the
  // assertions run after the new structures are installed.
  std::vector<Lit> new_lits;
  std::vector<Clause> new_clauses;
  std::vector<Lit> unit_folds;
  new_lits.reserve(lits_.size());
  new_clauses.reserve(kept.size());
  for (auto& list : watch_) list.clear();
  std::fill(agg_miss_.begin(), agg_miss_.end(), std::uint64_t{0});
  bool unsat = false;
  for (const Clause& c : kept) {
    const Lit* lits = &lits_[static_cast<std::size_t>(c.offset)];
    bool sat = false;
    std::vector<Lit> live;
    live.reserve(static_cast<std::size_t>(c.len));
    for (std::int32_t k = 0; k < c.len && !sat; ++k) {
      if (lit_impossible(solver, lits[k])) {
        sat = true;
      } else if (!lit_entailed(solver, lits[k])) {
        live.push_back(lits[k]);
      }
    }
    if (sat) continue;
    if (live.empty()) {
      unsat = true;
      break;
    }
    if (live.size() == 1) {
      unit_folds.push_back(live.front());
      continue;
    }
    const auto offset = static_cast<std::int32_t>(new_lits.size());
    new_lits.insert(new_lits.end(), live.begin(), live.end());
    const auto id = static_cast<std::int32_t>(new_clauses.size());
    // Root folds shorten the clause but the recorded glue stays: LBD is a
    // property of the conflict, length of the storage.
    new_clauses.push_back(Clause{offset,
                                 static_cast<std::int32_t>(live.size()),
                                 c.lbd, /*deleted=*/false});
    push_watch(live[0], id);
    push_watch(live[1], id);
  }
  lits_ = std::move(new_lits);
  clauses_ = std::move(new_clauses);
  live_ = static_cast<std::int64_t>(clauses_.size());
  if (unsat) return false;
  for (const Lit& unit : unit_folds) {
    if (!apply_root_unit(solver, unit, stats)) return false;
  }
  return true;
}

}  // namespace mgrts::csp
