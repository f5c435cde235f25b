#include "csp/propagators.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "support/assert.hpp"

namespace mgrts::csp {

namespace {
/// Sort key for SymmetryChain: idle compares as +infinity.
constexpr std::int64_t kIdleKey = std::numeric_limits<std::int64_t>::max();

/// `idle`'s bit in `d`'s mask; 0 when `d` cannot hold idle.
std::uint64_t idle_bit(const Domain64& d, Value idle) {
  return d.contains(idle) ? std::uint64_t{1}
                                << static_cast<unsigned>(idle - d.base())
                          : 0;
}

// SymmetryChain's pair rule between neighbours a = position k and
// b = position k+1:
//   key(a) < key(b)  or  a == b == idle,
// where key(idle) = +infinity.  The relation is monotone in key, so bounds
// reasoning achieves arc consistency per pair: chain_kill_b, then
// chain_kill_a on the narrowed b, repeated until chain_kill_a returns 0, is
// the pair's local fixpoint (an unchanged a leaves b nothing more to lose).
// The propagator (process_pair) and the build-time fixpoint
// (SymmetryChain::root_fixpoint) both apply the rule through these two
// functions.  Each kill set is a few mask operations (Domain64::mask_le and
// mask_ge window-clamp exactly like a per-value scan), so applying it costs
// O(removals), not O(|dom|).

/// Values of b the rule excludes given dom(a): b's non-idle values must
/// have key > a's smallest key (+infinity when a can only be idle).
std::uint64_t chain_kill_b(const Domain64& a, const Domain64& b, Value idle) {
  const std::uint64_t a_non_idle = a.raw_mask() & ~idle_bit(a, idle);
  const std::int64_t a_min_key =
      a_non_idle == 0 ? kIdleKey : a.base() + std::countr_zero(a_non_idle);
  const std::uint64_t le =
      a_min_key == kIdleKey
          ? ~std::uint64_t{0}
          : Domain64::mask_le(b.base(), static_cast<Value>(a_min_key));
  return b.raw_mask() & le & ~idle_bit(b, idle);
}

/// Values of a the rule excludes given dom(b): when b cannot be idle, a
/// cannot be idle either and its values must stay below b's largest
/// (necessarily non-idle) value.
std::uint64_t chain_kill_a(const Domain64& a, const Domain64& b, Value idle) {
  if (b.contains(idle)) return 0;
  return (a.raw_mask() & Domain64::mask_ge(a.base(), b.max())) |
         idle_bit(a, idle);
}
}  // namespace

// ---------------------------------------------------------------- AtMostOne

AtMostOneTrue::AtMostOneTrue(std::vector<VarId> vars)
    : vars_(std::move(vars)) {
  MGRTS_EXPECTS(!vars_.empty());
}

void AtMostOneTrue::attach(Solver& solver) {
  one_pos_ = solver.alloc_state(0);  // position + 1; 0 = no 1 seen yet
}

bool AtMostOneTrue::on_event(Solver& solver, std::int32_t pos,
                             std::uint64_t old_mask) {
  static_cast<void>(old_mask);
  // Fixed-only subscription: the domain just became a singleton.  Only a
  // variable fixed to 1 can trigger pruning here.
  if (solver.domain(vars_[static_cast<std::size_t>(pos)]).value() != 1) {
    return false;
  }
  pending_.push_back(pos);
  return true;
}

PropResult AtMostOneTrue::broadcast(Solver& solver, std::size_t one_pos) {
  // Every removal here follows from the one fixed variable alone, not the
  // whole scope — narrow the reason for conflict analysis (DESIGN.md §10).
  solver.begin_explicit_reason(&vars_[one_pos], 1);
  PropResult result = PropResult::kOk;
  for (std::size_t k = 0; k < vars_.size(); ++k) {
    if (k == one_pos) continue;
    if (solver.remove(vars_[k], 1) == PropResult::kFail) {
      result = PropResult::kFail;
      break;
    }
  }
  solver.end_explicit_reason();
  return result;
}

PropResult AtMostOneTrue::propagate(Solver& solver) {
  if (solver.scratch_mode()) {
    pending_.clear();
    VarId fixed_one = -1;
    for (const VarId v : vars_) {
      const Domain64& d = solver.domain(v);
      if (d.is_fixed() && d.value() == 1) {
        if (fixed_one >= 0) return PropResult::kFail;
        fixed_one = v;
      }
    }
    if (fixed_one < 0) return PropResult::kOk;
    // Same narrowed reason as broadcast(), so scratch and incremental runs
    // leave identical implication trails.
    solver.begin_explicit_reason(&fixed_one, 1);
    PropResult result = PropResult::kOk;
    for (const VarId v : vars_) {
      if (v == fixed_one) continue;
      if (solver.remove(v, 1) == PropResult::kFail) {
        result = PropResult::kFail;
        break;
      }
    }
    solver.end_explicit_reason();
    return result;
  }

  if (!primed_) {
    // First (root) run: derive the trailed state from the actual domains,
    // which post_fix/post_remove may have narrowed without events.
    primed_ = true;
    pending_.clear();
    std::size_t one = vars_.size();
    for (std::size_t k = 0; k < vars_.size(); ++k) {
      const Domain64& d = solver.domain(vars_[k]);
      if (d.is_fixed() && d.value() == 1) {
        if (one != vars_.size()) return PropResult::kFail;
        one = k;
      }
    }
    if (one == vars_.size()) return PropResult::kOk;
    solver.set_state(one_pos_, static_cast<std::int64_t>(one) + 1);
    return broadcast(solver, one);
  }

  // Drain the pending list; entries are stale-tolerant (verified against
  // the current domain), so leftovers from abandoned branches are harmless.
  PropResult result = PropResult::kOk;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const auto pos = static_cast<std::size_t>(pending_[i]);
    const Domain64& d = solver.domain(vars_[pos]);
    if (!d.is_fixed() || d.value() != 1) continue;  // stale entry
    const std::int64_t seen = solver.state(one_pos_);
    if (seen != 0) {
      if (static_cast<std::size_t>(seen - 1) == pos) continue;
      result = PropResult::kFail;  // two distinct variables fixed to 1
      break;
    }
    solver.set_state(one_pos_, static_cast<std::int64_t>(pos) + 1);
    if (broadcast(solver, pos) == PropResult::kFail) {
      result = PropResult::kFail;
      break;
    }
  }
  pending_.clear();
  return result;
}

// ------------------------------------------------------------------ CountEq

CountEq::CountEq(std::vector<VarId> vars, Value value, std::int64_t target)
    : vars_(std::move(vars)), value_(value), target_(target) {
  MGRTS_EXPECTS(target_ >= 0);
}

void CountEq::attach(Solver& solver) {
  lb_ = solver.alloc_state(0);
  ub_ = solver.alloc_state(0);
}

bool CountEq::on_event(Solver& solver, std::int32_t pos,
                       std::uint64_t old_mask) {
  if (!primed_) return true;
  const Domain64& d = solver.domain(vars_[static_cast<std::size_t>(pos)]);
  const bool had = Domain64::mask_contains(old_mask, d.base(), value_);
  const bool has = d.contains(value_);
  const bool was = had && Domain64::mask_fixed(old_mask);
  const bool is = has && d.is_fixed();
  // Unchanged counters mean this variable's (contains, fixed-to-value)
  // status is unchanged, so no new pruning opportunity exists: don't wake.
  if (had == has && was == is) return false;
  if (had != has) solver.set_state(ub_, solver.state(ub_) - 1);
  if (was != is) solver.set_state(lb_, solver.state(lb_) + (is ? 1 : -1));
  const std::int64_t lb = solver.state(lb_);
  const std::int64_t ub = solver.state(ub_);
  return lb > target_ || ub < target_ || (lb == target_ && ub > target_) ||
         (ub == target_ && lb < target_);
}

PropResult CountEq::propagate(Solver& solver) {
  std::int64_t lb;
  std::int64_t ub;
  if (solver.scratch_mode() || !primed_) {
    lb = 0;
    ub = 0;
    for (const VarId v : vars_) {
      const Domain64& d = solver.domain(v);
      if (!d.contains(value_)) continue;
      ++ub;
      if (d.is_fixed()) ++lb;
    }
    if (!primed_) {
      // Primed in both modes: advisor wake filtering must not depend on the
      // propagation mode (differential-test requirement).
      primed_ = true;
      solver.set_state(lb_, lb);
      solver.set_state(ub_, ub);
    }
  } else {
    lb = solver.state(lb_);
    ub = solver.state(ub_);
  }

  if (target_ < lb || target_ > ub) return PropResult::kFail;
  if (lb == target_ && ub > target_) {
    // Quota reached: no one else may take the value.
    for (const VarId v : vars_) {
      const Domain64& d = solver.domain(v);
      if (!d.is_fixed() && d.contains(value_)) {
        if (solver.remove(v, value_) == PropResult::kFail) {
          return PropResult::kFail;
        }
      }
    }
  } else if (ub == target_ && lb < target_) {
    // Every candidate is needed.
    for (const VarId v : vars_) {
      const Domain64& d = solver.domain(v);
      if (!d.is_fixed() && d.contains(value_)) {
        if (solver.fix(v, value_) == PropResult::kFail) {
          return PropResult::kFail;
        }
      }
    }
  }
  return PropResult::kOk;
}

// ---------------------------------------------------------- WeightedCountEq

WeightedCountEq::WeightedCountEq(std::vector<VarId> vars,
                                 std::vector<std::int64_t> weights,
                                 Value value, std::int64_t target)
    : vars_(std::move(vars)),
      weights_(std::move(weights)),
      value_(value),
      target_(target) {
  MGRTS_EXPECTS(vars_.size() == weights_.size());
  MGRTS_EXPECTS(target_ >= 0);
  for (const std::int64_t w : weights_) MGRTS_EXPECTS(w >= 0);
  min_weight_ = weights_.empty()
                    ? 0
                    : *std::min_element(weights_.begin(), weights_.end());
  max_weight_ = weights_.empty()
                    ? 0
                    : *std::max_element(weights_.begin(), weights_.end());
}

void WeightedCountEq::attach(Solver& solver) {
  lb_ = solver.alloc_state(0);
  ub_ = solver.alloc_state(0);
}

bool WeightedCountEq::on_event(Solver& solver, std::int32_t pos,
                               std::uint64_t old_mask) {
  if (!primed_) return true;
  const Domain64& d = solver.domain(vars_[static_cast<std::size_t>(pos)]);
  const std::int64_t w = weights_[static_cast<std::size_t>(pos)];
  const bool had = Domain64::mask_contains(old_mask, d.base(), value_);
  const bool has = d.contains(value_);
  const bool was = had && Domain64::mask_fixed(old_mask);
  const bool is = has && d.is_fixed();
  if (had == has && was == is) return false;  // see CountEq::on_event
  if (had != has) solver.set_state(ub_, solver.state(ub_) - w);
  if (was != is) solver.set_state(lb_, solver.state(lb_) + (is ? w : -w));
  return pruning_possible(solver.state(lb_), solver.state(ub_));
}

PropResult WeightedCountEq::sweep(Solver& solver) {
  for (;;) {
    std::int64_t lb = 0;
    std::int64_t ub = 0;
    for (std::size_t k = 0; k < vars_.size(); ++k) {
      const Domain64& d = solver.domain(vars_[k]);
      if (!d.contains(value_)) continue;
      if (d.is_fixed()) {
        lb += weights_[k];
        ub += weights_[k];
      } else {
        ub += weights_[k];
      }
    }
    if (target_ < lb || target_ > ub) return PropResult::kFail;

    bool changed = false;
    for (std::size_t k = 0; k < vars_.size(); ++k) {
      const Domain64& d = solver.domain(vars_[k]);
      if (d.is_fixed() || !d.contains(value_)) continue;
      if (lb + weights_[k] > target_) {
        if (solver.remove(vars_[k], value_) == PropResult::kFail) {
          return PropResult::kFail;
        }
        changed = true;
      } else if (ub - weights_[k] < target_) {
        if (solver.fix(vars_[k], value_) == PropResult::kFail) {
          return PropResult::kFail;
        }
        changed = true;
      }
    }
    if (!changed) return PropResult::kOk;
  }
}

PropResult WeightedCountEq::propagate(Solver& solver) {
  if (!primed_) {
    // Primed in both modes so advisor wake filtering is mode-independent
    // (differential-test requirement).
    primed_ = true;
    std::int64_t lb = 0;
    std::int64_t ub = 0;
    for (std::size_t k = 0; k < vars_.size(); ++k) {
      const Domain64& d = solver.domain(vars_[k]);
      if (!d.contains(value_)) continue;
      ub += weights_[k];
      if (d.is_fixed()) lb += weights_[k];
    }
    solver.set_state(lb_, lb);
    solver.set_state(ub_, ub);
  }
  if (solver.scratch_mode()) return sweep(solver);

  const std::int64_t lb = solver.state(lb_);
  const std::int64_t ub = solver.state(ub_);
  if (target_ < lb || target_ > ub) return PropResult::kFail;
  if (!pruning_possible(lb, ub)) return PropResult::kOk;
  return sweep(solver);
}

// -------------------------------------------------------- AllDifferentExcept

AllDifferentExcept::AllDifferentExcept(std::vector<VarId> vars, Value except)
    : vars_(std::move(vars)), except_(except) {
  marked_.assign(vars_.size(), 0);
}

void AllDifferentExcept::clear_marks() {
  if (marked_count_ == 0) return;
  std::fill(marked_.begin(), marked_.end(), std::uint8_t{0});
  marked_count_ = 0;
}

bool AllDifferentExcept::on_event(Solver& solver, std::int32_t pos,
                                  std::uint64_t old_mask) {
  static_cast<void>(old_mask);
  // Fixed-only subscription: only a variable fixed to a non-except value
  // needs broadcasting.
  if (solver.domain(vars_[static_cast<std::size_t>(pos)]).value() ==
      except_) {
    return false;
  }
  auto& mark = marked_[static_cast<std::size_t>(pos)];
  if (mark == 0) {
    mark = 1;
    ++marked_count_;
  }
  return true;
}

PropResult AllDifferentExcept::broadcast(Solver& solver, std::size_t pos,
                                         Value v) {
  // Forward checking from one fixed variable: the removals depend on that
  // variable only, so the reason narrows to it (DESIGN.md §10).
  solver.begin_explicit_reason(&vars_[pos], 1);
  PropResult result = PropResult::kOk;
  for (std::size_t other = 0; other < vars_.size(); ++other) {
    if (other == pos) continue;
    // Cheap containment pre-test: most siblings no longer hold v, and the
    // inline mask check skips the remove() call (trail bookkeeping, notify
    // dispatch) entirely.  A no-op remove has no observable effect, so the
    // search tree is bit-identical with or without the guard.
    if (!solver.domain(vars_[other]).contains(v)) continue;
    if (solver.remove(vars_[other], v) == PropResult::kFail) {
      result = PropResult::kFail;
      break;
    }
  }
  solver.end_explicit_reason();
  return result;
}

PropResult AllDifferentExcept::propagate(Solver& solver) {
  if (solver.scratch_mode() || !primed_) {
    // Forward-checking from every fixed variable; the incremental path only
    // does this once (at the root) to cover post_fix-ed variables, after
    // which the dirty marks carry exactly the newly fixed positions.
    clear_marks();
    primed_ = true;
    for (std::size_t k = 0; k < vars_.size(); ++k) {
      const Domain64& d = solver.domain(vars_[k]);
      if (!d.is_fixed()) continue;
      const Value v = d.value();
      if (v == except_) continue;
      if (broadcast(solver, k, v) == PropResult::kFail) {
        return PropResult::kFail;
      }
    }
    return PropResult::kOk;
  }

  if (marked_count_ == 0) return PropResult::kOk;
  // One ascending pass, like the scratch scan (so both modes emit the same
  // event sequence): marks behind the cursor set by in-pass broadcasts stay
  // for the next run — our advisor re-queues us, exactly as the scratch
  // mode's self-event does.
  for (std::size_t k = 0; k < vars_.size(); ++k) {
    if (marked_[k] == 0) continue;
    marked_[k] = 0;
    --marked_count_;
    const Domain64& d = solver.domain(vars_[k]);
    if (!d.is_fixed()) continue;  // stale mark from an abandoned branch
    const Value v = d.value();
    if (v == except_) continue;
    if (broadcast(solver, k, v) == PropResult::kFail) {
      return PropResult::kFail;
    }
  }
  return PropResult::kOk;
}

// --------------------------------------------------------------- SymmetryChain

SymmetryChain::SymmetryChain(std::vector<VarId> vars, Value idle)
    : vars_(std::move(vars)), idle_(idle) {
  MGRTS_EXPECTS(vars_.size() >= 2);
  pair_dirty_.assign(vars_.size() - 1, 0);
}

void SymmetryChain::mark_pair(std::size_t k) {
  if (pair_dirty_[k] != 0) return;
  pair_dirty_[k] = 1;
  worklist_.push_back(static_cast<std::int32_t>(k));
}

void SymmetryChain::clear_marks() {
  for (const std::int32_t k : worklist_) {
    pair_dirty_[static_cast<std::size_t>(k)] = 0;
  }
  worklist_.clear();
}

bool SymmetryChain::on_event(Solver& solver, std::int32_t pos,
                             std::uint64_t old_mask) {
  static_cast<void>(solver);
  static_cast<void>(old_mask);
  // Any change on position p can tighten only the pairs (p-1, p) and
  // (p, p+1).  Always request a run: a mark may predate a queue clear, and
  // only a run retires it (stale marks prune nothing and cost O(1)).
  const auto p = static_cast<std::size_t>(pos);
  if (p > 0) mark_pair(p - 1);
  if (p + 1 < vars_.size()) mark_pair(p);
  return true;
}

PropResult SymmetryChain::process_pair(Solver& solver, std::size_t k,
                                       bool& changed) {
  // Takes pair k to its local fixpoint under the pair rule (chain_kill_b /
  // chain_kill_a).  Each kill set is computed before its removals because
  // they narrow the domain it was read from.  Every removal depends on the
  // two pair domains only, so the reason narrows from the whole chain to
  // the pair (DESIGN.md §10).
  struct ReasonGuard {
    Solver& solver;
    ~ReasonGuard() { solver.end_explicit_reason(); }
  };
  solver.begin_explicit_reason(&vars_[k], 2);
  ReasonGuard guard{solver};
  const VarId a = vars_[k];
  const VarId b = vars_[k + 1];
  auto remove_all = [&](VarId x, std::uint64_t kill) {
    const Value base = solver.domain(x).base();
    while (kill != 0) {
      const Value v = base + std::countr_zero(kill);
      kill &= kill - 1;
      if (solver.remove(x, v) == PropResult::kFail) return false;
    }
    return true;
  };
  for (;;) {
    const std::uint64_t kill_b =
        chain_kill_b(solver.domain(a), solver.domain(b), idle_);
    if (!remove_all(b, kill_b)) return PropResult::kFail;
    const std::uint64_t kill_a =
        chain_kill_a(solver.domain(a), solver.domain(b), idle_);
    if (!remove_all(a, kill_a)) return PropResult::kFail;
    changed = changed || (kill_a | kill_b) != 0;
    if (kill_a == 0) return PropResult::kOk;
  }
}

bool SymmetryChain::root_fixpoint(std::span<Domain64> domains, Value idle) {
  // One walk over the pairs, each taken to its local fixpoint.  Pairs left
  // of k are stable; a pair that narrows its left position can unsettle
  // the pair before it, so the walk steps back there.  The rule is
  // monotone, so this reaches the same fixpoint as the propagator's
  // sweeps.
  std::size_t k = 0;
  while (k + 1 < domains.size()) {
    Domain64& a = domains[k];
    Domain64& b = domains[k + 1];
    bool a_narrowed = false;
    for (;;) {
      b.set_raw_mask(b.raw_mask() & ~chain_kill_b(a, b, idle));
      if (b.empty()) return false;
      const std::uint64_t kill_a = chain_kill_a(a, b, idle);
      if (kill_a == 0) break;
      a.set_raw_mask(a.raw_mask() & ~kill_a);
      if (a.empty()) return false;
      a_narrowed = true;
    }
    k = a_narrowed && k > 0 ? k - 1 : k + 1;
  }
  return true;
}

PropResult SymmetryChain::propagate(Solver& solver) {
  if (solver.scratch_mode() || !primed_) {
    // Reference (and priming) path: sweep every pair until stable.  Marks
    // are retired wholesale — the sweep covers everything they cover.
    primed_ = true;
    clear_marks();
    for (;;) {
      bool changed = false;
      for (std::size_t k = 0; k + 1 < vars_.size(); ++k) {
        if (process_pair(solver, k, changed) == PropResult::kFail) {
          return PropResult::kFail;
        }
      }
      if (!changed) return PropResult::kOk;
    }
  }

  // Incremental path: drain the dirty-pair worklist.  A pair that pruned
  // re-marks its neighbours (its own local fixpoint is reached inside
  // process_pair); our removes also re-enter on_event, which marks the
  // same pairs — mark_pair dedupes.  Index the worklist rather than
  // iterating: it grows during the drain.
  for (std::size_t i = 0; i < worklist_.size(); ++i) {
    const auto k = static_cast<std::size_t>(worklist_[i]);
    pair_dirty_[k] = 0;
    bool changed = false;
    if (process_pair(solver, k, changed) == PropResult::kFail) {
      // Leave the remaining marks: the queue clear that follows a failure
      // makes them stale, and stale marks are re-verified next run.
      worklist_.erase(worklist_.begin(),
                      worklist_.begin() + static_cast<std::ptrdiff_t>(i + 1));
      return PropResult::kFail;
    }
    if (changed) {
      if (k > 0) mark_pair(k - 1);
      if (k + 2 < vars_.size()) mark_pair(k + 1);
    }
  }
  worklist_.clear();
  return PropResult::kOk;
}

// ------------------------------------------------------------------ factories

std::unique_ptr<Propagator> make_at_most_one(std::vector<VarId> vars) {
  return std::make_unique<AtMostOneTrue>(std::move(vars));
}

std::unique_ptr<Propagator> make_sum_eq(std::vector<VarId> vars,
                                        std::int64_t target) {
  std::vector<std::int64_t> unit(vars.size(), 1);
  return make_weighted_sum_eq(std::move(vars), std::move(unit), target);
}

std::unique_ptr<Propagator> make_weighted_sum_eq(
    std::vector<VarId> vars, std::vector<std::int64_t> weights,
    std::int64_t target) {
  // A boolean weighted sum is the weighted counter for value 1: on {0,1}
  // domains "remove 1" and "fix 0" are the same pruning, so the propagators
  // coincide and the counter's advisor/state machinery is shared.
  return std::make_unique<WeightedCountEq>(std::move(vars), std::move(weights),
                                           /*value=*/1, target);
}

std::unique_ptr<Propagator> make_count_eq(std::vector<VarId> vars, Value value,
                                          std::int64_t target) {
  return std::make_unique<CountEq>(std::move(vars), value, target);
}

std::unique_ptr<Propagator> make_weighted_count_eq(
    std::vector<VarId> vars, std::vector<std::int64_t> weights, Value value,
    std::int64_t target) {
  return std::make_unique<WeightedCountEq>(std::move(vars), std::move(weights),
                                           value, target);
}

std::unique_ptr<Propagator> make_all_different_except(std::vector<VarId> vars,
                                                      Value except) {
  return std::make_unique<AllDifferentExcept>(std::move(vars), except);
}

std::unique_ptr<Propagator> make_symmetry_chain(std::vector<VarId> vars,
                                                Value idle) {
  return std::make_unique<SymmetryChain>(std::move(vars), idle);
}

}  // namespace mgrts::csp
