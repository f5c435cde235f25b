// Concrete propagators for the MGRTS encodings.
//
// CSP1 (§IV) needs:   AtMostOneTrue        — constraints (3) and (4)
//                     WeightedCountEq@1    — constraint (5) / weighted (11):
//                                            a boolean sum is the value==1
//                                            case of the weighted counter
//                                            (make_sum_eq / make_weighted_
//                                            sum_eq build it)
// CSP2-as-generic-CSP (§V) needs:
//                     CountEq              — constraint (9)
//                     WeightedCountEq      — heterogeneous (12)
//                     AllDifferentExcept   — constraint (8)
//                     SymmetryChain        — search rule (10)/(13), encoded
//                                            declaratively for the generic
//                                            solver (idle sorts last; see
//                                            DESIGN.md §3.4)
//
// All propagators are event-driven and incremental (DESIGN.md): advisors
// (`on_event`) maintain trailed counters or stale-tolerant pending lists in
// O(1) per domain change, so `propagate` runs in O(1) until the constraint
// becomes tight and only then pays an O(scope) sweep.  When the owning
// solver runs PropagationMode::kScratch they recompute from the full scope
// instead — same fixpoints, used as the differential-test reference.  All
// pruning goes through Solver::fix/remove so changes are trailed.
//
// Multi-level unwinding contract (DESIGN.md §15).  Non-chronological
// backjumping restores the trail several decision levels at once, so every
// piece of per-propagator incremental state must be correct after a restore
// to an ARBITRARY earlier mark, not just the parent level.  Each class here
// satisfies that through one of two disciplines:
//
// * Trailed counters (AtMostOneTrue::one_pos_, CountEq/WeightedCountEq
//   lb_/ub_) live in Solver state slots.  The state trail replays old
//   values back-to-front down to the target mark, and a backjump's mark is
//   a prefix of the trail exactly like a chronological one — the restored
//   counter is the counter that held at that level, whatever the distance.
//
// * Stale-tolerant pending buffers (AtMostOneTrue::pending_,
//   AllDifferentExcept::marked_, SymmetryChain::pair_dirty_/worklist_) are
//   NOT unwound; every entry is re-verified against the current domain at
//   drain time, so entries stranded by a backjump are no-ops (never wrong).
//   The buffers only ever over-approximate the work set.
//
// Neither discipline inspects the backtrack distance.  The multi-level-
// unwind pins in csp_engine_test (incremental == scratch across jumps) and
// csp_uip_test (jump vs chronological verdicts) lock that invariant down.
//
// Watched-value contract (Propagator::watched_value, DESIGN.md §2).  The
// two counters declare the value they count.  Once its first run has
// primed lb_/ub_, a counter's advisor can only move a bound — and so only
// return true — on an event that removed the value from the variable
// (ub drops) or fixed the variable to it (lb rises); on any other event it
// returns false with no side effect.  The solver therefore skips the call
// on every other event, which leaves each wake and the enqueue order
// unchanged.  Before the first run the advisor returns true on every event
// and hears all of them, and PropagationMode::kScratch delivers every
// event unfiltered, so the incremental-vs-scratch differentials compare
// filtered against unfiltered delivery.  A propagator whose advisor reacts
// to more than one value, or keeps pending state on any change, must not
// declare a watched value.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "csp/solver.hpp"

namespace mgrts::csp {

/// sum_i vars[i] <= 1 over boolean {0,1} variables.  Wakes only on fixes
/// (on {0,1} every change is a fix); the advisor records positions fixed to
/// 1 in a pending list, so a run is O(new ones) + one O(n) broadcast when
/// the first 1 appears.
class AtMostOneTrue final : public Propagator {
 public:
  explicit AtMostOneTrue(std::vector<VarId> vars);
  PropResult propagate(Solver& solver) override;
  void attach(Solver& solver) override;
  [[nodiscard]] WakePolicy wake_policy() const override {
    return WakePolicy::kFixedOnly;
  }
  [[nodiscard]] PropPriority priority() const override {
    return PropPriority::kFast;
  }
  bool on_event(Solver& solver, std::int32_t pos,
                std::uint64_t old_mask) override;
  [[nodiscard]] const std::vector<VarId>& scope() const override {
    return vars_;
  }
  [[nodiscard]] const char* name() const override { return "at-most-one"; }

 private:
  PropResult broadcast(Solver& solver, std::size_t one_pos);

  std::vector<VarId> vars_;
  StateSlot one_pos_ = -1;  ///< trailed: position fixed to 1 (+1; 0 = none)
  std::vector<std::int32_t> pending_;
  bool primed_ = false;
};

/// |{ i : vars[i] == value }| == target.  Incremental state: trailed lb
/// (#fixed to value) and ub (#containing value).
class CountEq final : public Propagator {
 public:
  CountEq(std::vector<VarId> vars, Value value, std::int64_t target);
  PropResult propagate(Solver& solver) override;
  void attach(Solver& solver) override;
  [[nodiscard]] PropPriority priority() const override {
    return PropPriority::kCounter;
  }
  bool on_event(Solver& solver, std::int32_t pos,
                std::uint64_t old_mask) override;
  [[nodiscard]] std::optional<Value> watched_value() const override {
    return value_;
  }
  [[nodiscard]] const std::vector<VarId>& scope() const override {
    return vars_;
  }
  [[nodiscard]] const char* name() const override { return "count-eq"; }

 private:
  std::vector<VarId> vars_;
  Value value_;
  std::int64_t target_;
  StateSlot lb_ = -1;  ///< trailed: variables fixed to value_
  StateSlot ub_ = -1;  ///< trailed: variables whose domain contains value_
  bool primed_ = false;
};

/// sum_i weights[i] * [vars[i] == value] == target (heterogeneous (12)).
class WeightedCountEq final : public Propagator {
 public:
  WeightedCountEq(std::vector<VarId> vars, std::vector<std::int64_t> weights,
                  Value value, std::int64_t target);
  PropResult propagate(Solver& solver) override;
  void attach(Solver& solver) override;
  [[nodiscard]] PropPriority priority() const override {
    return PropPriority::kCounter;
  }
  bool on_event(Solver& solver, std::int32_t pos,
                std::uint64_t old_mask) override;
  [[nodiscard]] std::optional<Value> watched_value() const override {
    return value_;
  }
  [[nodiscard]] const std::vector<VarId>& scope() const override {
    return vars_;
  }
  [[nodiscard]] const char* name() const override {
    return "weighted-count-eq";
  }

 private:
  [[nodiscard]] bool pruning_possible(std::int64_t lb,
                                      std::int64_t ub) const noexcept {
    return lb > target_ || ub < target_ || lb + max_weight_ > target_ ||
           ub - min_weight_ < target_;
  }
  PropResult sweep(Solver& solver);

  std::vector<VarId> vars_;
  std::vector<std::int64_t> weights_;
  Value value_;
  std::int64_t target_;
  std::int64_t min_weight_ = 0;
  std::int64_t max_weight_ = 0;
  StateSlot lb_ = -1;  ///< trailed: weight fixed to value_
  StateSlot ub_ = -1;  ///< trailed: weight that can still take value_
  bool primed_ = false;
};

/// All variables taking a value != `except` take pairwise distinct values
/// (constraint (8): a task occupies at most one processor per slot).
/// Forward checking: wakes only on fixes; the advisor records newly fixed
/// positions, so a run broadcasts each fixed value exactly once instead of
/// rescanning the quadratic pair set.
class AllDifferentExcept final : public Propagator {
 public:
  AllDifferentExcept(std::vector<VarId> vars, Value except);
  PropResult propagate(Solver& solver) override;
  [[nodiscard]] WakePolicy wake_policy() const override {
    return WakePolicy::kFixedOnly;
  }
  [[nodiscard]] PropPriority priority() const override {
    return PropPriority::kFast;
  }
  bool on_event(Solver& solver, std::int32_t pos,
                std::uint64_t old_mask) override;
  [[nodiscard]] const std::vector<VarId>& scope() const override {
    return vars_;
  }
  [[nodiscard]] const char* name() const override {
    return "all-different-except";
  }

 private:
  PropResult broadcast(Solver& solver, std::size_t pos, Value v);
  void clear_marks();

  std::vector<VarId> vars_;
  Value except_;
  // Dirty marks per scope position (stale-tolerant: re-verified against the
  // current domain at drain time).  Drained in ascending position order so
  // the event sequence matches the scratch reference's scan exactly.
  std::vector<std::uint8_t> marked_;
  std::int32_t marked_count_ = 0;
  bool primed_ = false;
};

/// Symmetry-breaking chain over one group of identical processors: the
/// non-idle values along `vars` are strictly ascending and idle entries
/// trail (idle compares as +infinity; equality is allowed at idle only).
/// The advisor watches *neighbour pairs*: a change on scope position p
/// marks the pairs (p-1, p) and (p, p+1) dirty, and an incremental run
/// drains only the dirty-pair worklist (re-marking neighbours of pairs it
/// prunes) instead of sweeping the whole group — O(changed pairs) per wake.
/// The pairwise bounds rule is monotone, so the worklist fixpoint equals
/// the full-sweep fixpoint and both propagation modes stay tree-identical.
class SymmetryChain final : public Propagator {
 public:
  SymmetryChain(std::vector<VarId> vars, Value idle);
  PropResult propagate(Solver& solver) override;
  bool on_event(Solver& solver, std::int32_t pos,
                std::uint64_t old_mask) override;
  [[nodiscard]] const std::vector<VarId>& scope() const override {
    return vars_;
  }
  [[nodiscard]] const char* name() const override { return "symmetry-chain"; }

  /// The fixpoint a chain over these domains (in scope order) reaches on
  /// its own: narrows `domains` in place to exactly what the propagator's
  /// first run would leave, by the same pair rule.  A model builder posts
  /// the result before adding the chain, so that run prunes nothing.
  /// Returns false when a domain empties (the chain alone is
  /// inconsistent).
  static bool root_fixpoint(std::span<Domain64> domains, Value idle);

 private:
  /// Prunes pair k = (vars_[k], vars_[k+1]) to its local fixpoint; sets
  /// `changed` when any value was removed.
  PropResult process_pair(Solver& solver, std::size_t k, bool& changed);
  void mark_pair(std::size_t k);
  void clear_marks();

  std::vector<VarId> vars_;
  Value idle_;
  // Dirty neighbour pairs (stale-tolerant: re-verified against the current
  // domains at drain time, so marks surviving a backtrack are harmless).
  std::vector<std::uint8_t> pair_dirty_;
  std::vector<std::int32_t> worklist_;
  bool primed_ = false;
};

// Factory helpers (keep encoding code terse).
std::unique_ptr<Propagator> make_at_most_one(std::vector<VarId> vars);
std::unique_ptr<Propagator> make_sum_eq(std::vector<VarId> vars,
                                        std::int64_t target);
std::unique_ptr<Propagator> make_weighted_sum_eq(
    std::vector<VarId> vars, std::vector<std::int64_t> weights,
    std::int64_t target);
std::unique_ptr<Propagator> make_count_eq(std::vector<VarId> vars, Value value,
                                          std::int64_t target);
std::unique_ptr<Propagator> make_weighted_count_eq(
    std::vector<VarId> vars, std::vector<std::int64_t> weights, Value value,
    std::int64_t target);
std::unique_ptr<Propagator> make_all_different_except(std::vector<VarId> vars,
                                                      Value except);
std::unique_ptr<Propagator> make_symmetry_chain(std::vector<VarId> vars,
                                                Value idle);

}  // namespace mgrts::csp
