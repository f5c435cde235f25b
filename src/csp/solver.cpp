#include "csp/solver.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <utility>

#include "csp/nogoods.hpp"
#include "support/assert.hpp"
#include "support/deadline.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"

namespace mgrts::csp {

std::int64_t luby(std::int64_t i) {
  for (;;) {
    const auto u = static_cast<std::uint64_t>(i) + 1;
    if (std::has_single_bit(u)) return static_cast<std::int64_t>(u >> 1);
    const int k = std::bit_width(u);  // smallest k with 2^k - 1 >= i
    i -= (std::int64_t{1} << (k - 1)) - 1;
  }
}

Solver::Solver(SolverLimits limits) : limits_(limits) {}
Solver::~Solver() = default;

VarId Solver::add_variable(Value lo, Value hi) {
  MGRTS_EXPECTS(!frozen_);
  support::fault_point(support::FaultSite::kCspVarBudget);
  if (variable_count() >= limits_.max_variables) {
    throw ResourceError("CSP model exceeds the variable budget (" +
                        std::to_string(limits_.max_variables) + ")");
  }
  domains_.emplace_back(lo, hi);
  const auto v = static_cast<VarId>(domains_.size() - 1);
  unfixed_pos_.push_back(-1);
  var_wdeg_.push_back(0);
  last_entry_.push_back(-1);
  return v;
}

void Solver::add(std::unique_ptr<Propagator> propagator) {
  MGRTS_EXPECTS(!frozen_);
  MGRTS_EXPECTS(propagator != nullptr);
  propagator->id_ = static_cast<std::int32_t>(propagators_.size());
  propagator->priority_cache_ =
      static_cast<std::uint8_t>(propagator->priority());
  MGRTS_ASSERT(propagator->priority_cache_ < kPriorityLevels);
  propagators_.push_back(std::move(propagator));
  propagators_.back()->attach(*this);
}

StateSlot Solver::alloc_state(std::int64_t initial) {
  MGRTS_EXPECTS(!frozen_);
  pstate_.push_back(initial);
  return static_cast<StateSlot>(pstate_.size() - 1);
}

void Solver::set_state(StateSlot slot, std::int64_t value) {
  std::int64_t& cell = pstate_[static_cast<std::size_t>(slot)];
  if (cell == value) return;
  state_trail_.push_back(StateTrailEntry{slot, cell});
  cell = value;
}

bool Solver::post_fix(VarId v, Value a) {
  MGRTS_EXPECTS(!frozen_);
  Domain64& d = domains_[static_cast<std::size_t>(v)];
  if (!d.contains(a)) return false;
  d.fix(a);
  return true;
}

bool Solver::post_remove(VarId v, Value a) {
  MGRTS_EXPECTS(!frozen_);
  Domain64& d = domains_[static_cast<std::size_t>(v)];
  d.remove(a);
  return !d.empty();
}

bool Solver::post_restrict(VarId v, std::uint64_t keep) {
  MGRTS_EXPECTS(!frozen_);
  Domain64& d = domains_[static_cast<std::size_t>(v)];
  d.set_raw_mask(d.raw_mask() & keep);
  return !d.empty();
}

void Solver::trail_push(VarId v, std::uint64_t old_mask) {
  // active_reason_ is pinned at kReasonNone while tracking is off, so the
  // reason slot costs one dead store (and one always-false compare) on the
  // untracked path.
  if (pending_reason_len_ > 0) {
    // First trailed change under an explicit-reason window: commit the
    // span now, so windows that prune nothing never touch the pool.
    const auto idx = static_cast<std::int32_t>(reason_offset_.size()) - 1;
    reason_vars_.insert(reason_vars_.end(), pending_reason_vars_,
                        pending_reason_vars_ + pending_reason_len_);
    reason_offset_.push_back(static_cast<std::int32_t>(reason_vars_.size()));
    active_reason_ = kReasonExplicit - idx;
    pending_reason_len_ = 0;
  }
  // Per-variable threading is maintained only while the reason trail is —
  // it is never read otherwise, and the last_entry_ read-modify-write is
  // real hot-path work (unlike the depth slot, a dead register store).
  // Either way the search never reads these fields, so trees stay
  // bit-identical (Solver.ReasonTrailIsAPureObserver).
  std::int32_t prev = -1;
  if (track_reasons_) {
    auto& head = last_entry_[static_cast<std::size_t>(v)];
    prev = head;
    head = static_cast<std::int32_t>(trail_.size());
    if (active_reason_ == kReasonDecision) {
      decisions_.push_back(static_cast<std::int32_t>(trail_.size()));
    }
  }
  // Prune attribution: every trailed change inside a propagator run counts
  // toward that propagator's profile row (decisions and root maintenance
  // run with running_prop_ == -1 and are not charged).
  if (running_prop_ >= 0) {
    ++prop_prunes_[static_cast<std::size_t>(running_prop_)];
  }
  trail_.push_back(TrailEntry{old_mask, v, active_reason_, cur_depth_, prev});
}

void Solver::begin_explicit_reason(const VarId* vars, std::int32_t n) {
  if (!track_reasons_) return;
  MGRTS_ASSERT(n > 0);
  saved_reason_ = active_reason_;
  pending_reason_vars_ = vars;
  pending_reason_len_ = n;
}

void Solver::end_explicit_reason() {
  if (!track_reasons_) return;
  active_reason_ = saved_reason_;
  pending_reason_len_ = 0;
}

void Solver::sync_membership(VarId v) {
  // Unfixed means two or more values: a bit besides the lowest one.
  const std::uint64_t m = domains_[static_cast<std::size_t>(v)].raw_mask();
  const bool want = (m & (m - 1)) != 0;
  auto& pos = unfixed_pos_[static_cast<std::size_t>(v)];
  const bool have = pos >= 0;
  if (want == have) return;
  if (want) {
    // Insert: either extend or reuse slack capacity of the list.
    if (static_cast<std::size_t>(unfixed_size_) == unfixed_list_.size()) {
      unfixed_list_.push_back(v);
    } else {
      unfixed_list_[static_cast<std::size_t>(unfixed_size_)] = v;
    }
    pos = static_cast<std::int32_t>(unfixed_size_);
    ++unfixed_size_;
    if (heap_active_) heap_touch(v);
  } else {
    // Swap-remove.
    const auto last_idx = static_cast<std::size_t>(unfixed_size_ - 1);
    const VarId moved = unfixed_list_[last_idx];
    unfixed_list_[static_cast<std::size_t>(pos)] = moved;
    unfixed_pos_[static_cast<std::size_t>(moved)] = pos;
    unfixed_list_[last_idx] = v;
    pos = -1;
    --unfixed_size_;
  }
}

void Solver::enqueue(Propagator& p) {
  if (p.queued_) return;
  p.queued_ = true;
  queue_[p.priority_cache_].push_back(p.id_);
}

void Solver::wake_list(const WatchList& list, VarId v, std::uint64_t old_mask,
                       std::uint64_t hit) {
  const auto begin =
      static_cast<std::size_t>(list.offset[static_cast<std::size_t>(v)]);
  const auto end =
      static_cast<std::size_t>(list.offset[static_cast<std::size_t>(v) + 1]);
  stats_.events += static_cast<std::int64_t>(end - begin);
  for (std::size_t k = begin; k < end; ++k) {
    const Watch w = list.data[k];
    // Watched-value contract: an event that neither removed the value nor
    // fixed the variable to it cannot move this advisor, so skipping the
    // call keeps every wake (and the enqueue order) unchanged.
    if ((hit & watch_mask_[static_cast<std::size_t>(w.pid)]) == 0) continue;
    Propagator& p = *propagators_[static_cast<std::size_t>(w.pid)];
    if (p.on_event(*this, w.pos, old_mask)) {
      ++prop_wakes_[static_cast<std::size_t>(w.pid)];
      enqueue(p);
    }
  }
}

std::uint64_t Solver::watched_bit(const std::vector<VarId>& scope,
                                  Value value) const {
  // One mask serves the whole scope when its variables share a domain base
  // (every encoding here builds them so); otherwise the propagator simply
  // hears every event.
  if (scope.empty()) return ~std::uint64_t{0};
  const Value base = domains_[static_cast<std::size_t>(scope.front())].base();
  for (const VarId v : scope) {
    if (domains_[static_cast<std::size_t>(v)].base() != base) {
      return ~std::uint64_t{0};
    }
  }
  // A value outside the window is never removed nor fixed to.
  const std::int64_t off = std::int64_t{value} - base;
  if (off < 0 || off >= Domain64::kMaxSpan) return 0;
  return std::uint64_t{1} << off;
}

void Solver::notify_store(VarId v, std::uint64_t old_mask) {
  // Event-count parity with the CSR path the store was removed from: its
  // one watch entry per variable counted one event per delivery.
  ++stats_.events;
  NogoodStore& store = *nogood_store_;  // final: on_event devirtualizes
  // Most events touch values no clause watches: the store's own pre-test,
  // inlined, spares the call.
  if (!store.may_wake(
          v, old_mask & ~domains_[static_cast<std::size_t>(v)].raw_mask())) {
    return;
  }
  if (store.on_event(*this, v, old_mask)) {
    Propagator& p = store;
    ++prop_wakes_[static_cast<std::size_t>(p.id_)];
    enqueue(p);
  }
}

void Solver::notify_watchers(VarId v, std::uint64_t old_mask,
                             bool became_fixed) {
  // The direct store calls sit exactly where the CSR walks would have
  // reached the store's (added-last) entries, so the enqueue order — and
  // with it the propagation order and the search tree — is unchanged.
  // A fix concerns every value the domain held (the removed ones and the
  // one that remains); a prune only the removed ones.
  const std::uint64_t hit =
      became_fixed
          ? old_mask
          : old_mask & ~domains_[static_cast<std::size_t>(v)].raw_mask();
  wake_list(any_watch_, v, old_mask, hit);
  if (store_direct_any_) notify_store(v, old_mask);
  if (became_fixed) {
    wake_list(fixed_watch_, v, old_mask, hit);
    if (store_direct_fixed_) notify_store(v, old_mask);
  }
}

PropResult Solver::remove(VarId v, Value a) {
  Domain64& d = domains_[static_cast<std::size_t>(v)];
  if (!d.contains(a)) return PropResult::kOk;
  const std::uint64_t old_mask = d.raw_mask();
  trail_push(v, old_mask);
  d.remove(a);
  sync_membership(v);
  if (d.empty()) return PropResult::kFail;
  const bool fixed = d.is_fixed();
  // A narrowing that leaves the variable unfixed improves its selection
  // key (fixes leave the unfixed set; re-growth on backtrack waits for the
  // heap root).
  if (heap_active_ && !fixed) heap_touch(v);
  notify_watchers(v, old_mask, fixed);
  return PropResult::kOk;
}

PropResult Solver::fix(VarId v, Value a) {
  Domain64& d = domains_[static_cast<std::size_t>(v)];
  if (!d.contains(a)) return PropResult::kFail;
  if (d.is_fixed()) return PropResult::kOk;
  const std::uint64_t old_mask = d.raw_mask();
  trail_push(v, old_mask);
  d.fix(a);
  sync_membership(v);
  notify_watchers(v, old_mask, /*became_fixed=*/true);
  return PropResult::kOk;
}

void Solver::backtrack_to(const Mark& mark) {
  if (track_reasons_ && reason_offset_.size() - 1 > mark.reasons) {
    // Explicit reasons are only referenced by trail entries newer than
    // their creation, all unwound below — the pool truncates with them.
    reason_offset_.resize(mark.reasons + 1);
    reason_vars_.resize(static_cast<std::size_t>(reason_offset_.back()));
  }
  while (state_trail_.size() > mark.state) {
    const StateTrailEntry entry = state_trail_.back();
    state_trail_.pop_back();
    pstate_[static_cast<std::size_t>(entry.slot)] = entry.old_value;
  }
  while (trail_.size() > mark.domain) {
    const TrailEntry entry = trail_.back();
    trail_.pop_back();
    domains_[static_cast<std::size_t>(entry.var)].set_raw_mask(entry.old_mask);
    if (track_reasons_) {
      last_entry_[static_cast<std::size_t>(entry.var)] = entry.prev_on_var;
      if (entry.reason == kReasonDecision) decisions_.pop_back();
    }
    sync_membership(entry.var);
  }
}

void Solver::switch_phase(Phase next) {
  const auto now = std::chrono::steady_clock::now();
  phase_ns_[static_cast<std::size_t>(phase_)] +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - phase_t0_)
          .count();
  phase_t0_ = now;
  phase_ = next;
}

void Solver::clear_queue() {
  for (int lvl = 0; lvl < kPriorityLevels; ++lvl) {
    auto& q = queue_[static_cast<std::size_t>(lvl)];
    auto& head = queue_head_[static_cast<std::size_t>(lvl)];
    for (std::size_t k = head; k < q.size(); ++k) {
      propagators_[static_cast<std::size_t>(q[k])]->queued_ = false;
    }
    q.clear();
    head = 0;
  }
}

void Solver::bump_failure(std::int32_t prop_id) {
  if (prop_id < 0) return;
  Propagator& p = *propagators_[static_cast<std::size_t>(prop_id)];
  ++p.weight_;
  for (const VarId v : p.failure_scope()) {
    ++var_wdeg_[static_cast<std::size_t>(v)];
    // The bump improves dom/wdeg keys; refresh unfixed scope variables.
    if (heap_active_ && heap_use_wdeg_ &&
        unfixed_pos_[static_cast<std::size_t>(v)] >= 0) {
      heap_touch(v);
    }
  }
}

bool Solver::propagate_queue() {
  support::fault_point(support::FaultSite::kPropagator);
  for (;;) {
    // Pop from the cheapest non-empty level; every run restarts the scan, so
    // expensive global propagators only fire once the cheap levels are at
    // their fixpoint.
    std::int32_t id = -1;
    for (int lvl = 0; lvl < kPriorityLevels; ++lvl) {
      auto& q = queue_[static_cast<std::size_t>(lvl)];
      auto& head = queue_head_[static_cast<std::size_t>(lvl)];
      if (head < q.size()) {
        id = q[head++];
        if (head == q.size()) {
          q.clear();
          head = 0;
        }
        break;
      }
    }
    if (id < 0) return true;

    Propagator& p = *propagators_[static_cast<std::size_t>(id)];
    p.queued_ = false;
    ++stats_.propagations;
    ++prop_runs_[static_cast<std::size_t>(id)];
    if (track_reasons_) active_reason_ = id;
    running_prop_ = id;
    PropResult result;
    if (prop_profile_) {
      const auto t0 = std::chrono::steady_clock::now();
      result = p.propagate(*this);
      prop_seconds_[static_cast<std::size_t>(id)] +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
    } else {
      result = p.propagate(*this);
    }
    running_prop_ = -1;
    if (track_reasons_) active_reason_ = kReasonNone;
    if (result == PropResult::kFail) {
      failing_prop_ = id;
      clear_queue();
      return false;
    }
  }
}

template <typename MarkFn>
bool Solver::expand_reason(const TrailEntry& e, MarkFn&& mark) {
  if (e.reason >= 0) {
    for (const VarId v :
         propagators_[static_cast<std::size_t>(e.reason)]->scope()) {
      mark(v);
    }
    return true;
  }
  if (e.reason <= kReasonExplicit) {
    const auto idx = static_cast<std::size_t>(kReasonExplicit - e.reason);
    const auto begin = static_cast<std::size_t>(reason_offset_[idx]);
    const auto end = static_cast<std::size_t>(reason_offset_[idx + 1]);
    for (std::size_t i = begin; i < end; ++i) mark(reason_vars_[i]);
    return true;
  }
  return false;  // untracked (kReasonNone): analysis would be unsound
}

bool Solver::analyze_conflict(std::size_t root_trail) {
  MGRTS_ASSERT(failing_prop_ >= 0);
  ++relevant_epoch_;
  auto mark_var = [&](VarId v) {
    relevant_stamp_[static_cast<std::size_t>(v)] = relevant_epoch_;
  };
  auto is_relevant = [&](VarId v) {
    return relevant_stamp_[static_cast<std::size_t>(v)] == relevant_epoch_;
  };
  for (const VarId v :
       propagators_[static_cast<std::size_t>(failing_prop_)]->failure_scope()) {
    mark_var(v);
  }

  // Dependencies point strictly backwards in time, so one newest-first pass
  // closes the set: an entry's reason read only domain states older than the
  // entry itself.  Entries at or below the root mark are root-implied (true
  // under no decision) and need no explanation.
  for (std::size_t k = trail_.size(); k > root_trail;) {
    --k;
    const TrailEntry& e = trail_[k];
    if (!is_relevant(e.var)) continue;
    if (e.reason == kReasonDecision) continue;  // kept; collected by caller
    if (!expand_reason(e, mark_var)) return false;
  }
  return true;
}

// ---- 1-UIP resolution walk (DESIGN.md §11) -----------------------------

template <typename MarkFn>
bool Solver::expand_walk_reason(const TrailEntry& e, MarkFn&& mark) {
  if (e.reason >= 0) {
    // A propagator's scope marked once in this walk stays marked, so its
    // next expansion (the propagator typically pruned several entries)
    // would mark nothing.
    auto& seen = expanded_stamp_[static_cast<std::size_t>(e.reason)];
    if (seen == relevant_epoch_) return true;
    seen = relevant_epoch_;
  }
  return expand_reason(e, mark);
}

void Solver::uip_mark(VarId v, std::int64_t& pending) {
  auto& stamp = relevant_stamp_[static_cast<std::size_t>(v)];
  if (stamp == relevant_epoch_) return;
  stamp = relevant_epoch_;
  uip_marked_.push_back(v);
  pending += uip_count_[static_cast<std::size_t>(v)];
}

std::uint64_t Solver::post_mask(std::size_t idx) const {
  // The newer entries on the variable each recorded the mask they found,
  // so the one just above idx holds idx's post-change domain.
  const auto var = static_cast<std::size_t>(trail_[idx].var);
  std::uint64_t post = domains_[var].raw_mask();
  for (std::int32_t j = last_entry_[var]; static_cast<std::size_t>(j) > idx;
       j = trail_[static_cast<std::size_t>(j)].prev_on_var) {
    post = trail_[static_cast<std::size_t>(j)].old_mask;
  }
  return post;
}

Lit Solver::entry_literal(const TrailEntry& e, std::uint64_t post_mask) const {
  const Value base = domains_[static_cast<std::size_t>(e.var)].base();
  const std::uint64_t removed = e.old_mask & ~post_mask;
  MGRTS_ASSERT(removed != 0);
  if ((removed & (removed - 1)) != 0) {
    // A fix pruned several values at once: the entry's literal is the
    // assignment itself (post state must be a singleton).
    MGRTS_ASSERT(Domain64::mask_fixed(post_mask));
    return Lit::eq(e.var, base + std::countr_zero(post_mask));
  }
  // Single-value removal: (var != a), strengthened to the *equivalent*
  // bound form when a sits at the root min/max (relative to the root
  // domain, "!= min" and ">= min + 1" forbid exactly the same states, but
  // the bound form watches bound movement and merges under subsumption).
  const Value a = base + std::countr_zero(removed);
  if (a == root_min_[static_cast<std::size_t>(e.var)]) {
    return Lit::ge(e.var, a + 1);
  }
  if (a == root_max_[static_cast<std::size_t>(e.var)]) {
    return Lit::le(e.var, a - 1);
  }
  return Lit::ne(e.var, a);
}

namespace {
/// Recursion bound of the self-subsumption walk; deeper chains are treated
/// as not covered (sound — the literal just stays in the clause).
constexpr int kMinimizeDepthCap = 48;
/// Frontier clauses past this size never beat the decision form on the
/// workloads we ledger, so the minimization pass skips them outright.
constexpr std::size_t kMaxFrontier = 64;
}  // namespace

bool Solver::reason_covered(std::size_t idx, std::size_t root_trail,
                            int depth) {
  if (min_stamp_[idx] == relevant_epoch_) return min_ok_[idx] != 0;
  const TrailEntry& e = trail_[idx];
  bool ok = depth < kMinimizeDepthCap && e.reason != kReasonDecision;
  if (ok) {
    // Every antecedent change (an older entry on a reason variable) must be
    // covered: on a Phase-A-relevant variable its literal is in the
    // frontier (or was dropped for being covered itself), otherwise its own
    // reason must be covered recursively.  Antecedent indices strictly
    // decrease, so the walk is acyclic and the memo grounds out.
    auto check = [&](VarId u) {
      // A marked variable's every entry is covered (its literals are in the
      // frontier clause), so only unmarked chains need walking.
      if (!ok ||
          relevant_stamp_[static_cast<std::size_t>(u)] == relevant_epoch_) {
        return;
      }
      std::int32_t j = last_entry_[static_cast<std::size_t>(u)];
      while (j >= 0 && static_cast<std::size_t>(j) >= idx) {
        j = trail_[static_cast<std::size_t>(j)].prev_on_var;
      }
      while (ok && j >= 0 && static_cast<std::size_t>(j) >= root_trail) {
        const auto ju = static_cast<std::size_t>(j);
        if (!reason_covered(ju, root_trail, depth + 1)) ok = false;
        j = trail_[ju].prev_on_var;
      }
    };
    if (!expand_reason(e, check)) ok = false;
  }
  min_stamp_[idx] = relevant_epoch_;
  min_ok_[idx] = ok ? 1 : 0;
  return ok;
}

std::int64_t Solver::minimize_frontier(std::size_t root_trail) {
  if (min_stamp_.size() < trail_.size()) {
    min_stamp_.resize(trail_.size(), 0);
    min_ok_.resize(trail_.size(), 0);
  }
  std::int64_t removed = 0;
  // Pass 1 — recursive self-subsumption: drop literals whose reasons are
  // transitively covered by the Phase-A relevant set.  Runs before the
  // implication dedupe so the "marked variable => covered" ground stays
  // index-founded (dedupe edges can point forward in the trail).
  std::size_t out = 0;
  for (std::size_t i = 0; i < frontier_.size(); ++i) {
    const auto idx = static_cast<std::size_t>(frontier_[i].trail_idx);
    if (reason_covered(idx, root_trail, 0)) {
      ++removed;
      continue;
    }
    frontier_[out++] = frontier_[i];
  }
  frontier_.resize(out);
  // Pass 2 — same-variable implication dedupe among survivors: the clause
  // is a conjunction, so a literal implied by a kept stronger literal
  // forbids nothing extra (a moving-bound chain >=3, >=4, >=5 collapses to
  // >=5).  Literals are pairwise distinct, so implication is a strict
  // order and the maximal elements survive.  Only literals on one variable
  // imply each other, and most variables carry one frontier literal, so
  // literals are counted per variable first (uip_count_ is all zero outside
  // the conflict-level walk) and only shared variables are compared.
  for (const FrontierLit& f : frontier_) {
    ++uip_count_[static_cast<std::size_t>(f.lit.var)];
  }
  out = 0;
  for (std::size_t i = 0; i < frontier_.size(); ++i) {
    bool redundant = false;
    if (uip_count_[static_cast<std::size_t>(frontier_[i].lit.var)] > 1) {
      for (std::size_t j = 0; j < frontier_.size() && !redundant; ++j) {
        redundant = j != i && implies(frontier_[j].lit, frontier_[i].lit);
      }
    }
    if (redundant) {
      ++removed;
      continue;
    }
    frontier_[out++] = frontier_[i];
  }
  frontier_.resize(out);
  // Every variable keeps at least one (maximal) literal, so the survivors
  // reach every counted variable.
  for (const FrontierLit& f : frontier_) {
    uip_count_[static_cast<std::size_t>(f.lit.var)] = 0;
  }
  return removed;
}

std::size_t Solver::flag_entries(VarId v, std::size_t root_trail,
                                 std::size_t below) {
  std::size_t flagged = 0;
  std::uint64_t post = domains_[static_cast<std::size_t>(v)].raw_mask();
  for (std::int32_t j = last_entry_[static_cast<std::size_t>(v)];
       j >= 0 && static_cast<std::size_t>(j) >= root_trail;
       j = trail_[static_cast<std::size_t>(j)].prev_on_var) {
    const auto at = static_cast<std::size_t>(j) - root_trail;
    if (static_cast<std::size_t>(j) < below) {
      flag_bits_[at / 64] |= std::uint64_t{1} << (at % 64);
      flag_post_[at] = post;
      flag_lo_ = std::min(flag_lo_, at / 64);
      ++flagged;
    }
    post = trail_[static_cast<std::size_t>(j)].old_mask;
  }
  return flagged;
}

bool Solver::analyze_uip(std::size_t root_trail, std::size_t level_start,
                         bool minimize) {
  MGRTS_ASSERT(failing_prop_ >= 0);
  MGRTS_ASSERT(level_start >= root_trail && level_start < trail_.size());

  // Unvisited-suffix counts per variable: marking a variable relevant must
  // add exactly its unvisited conflict-level entries to the resolvent.
  for (std::size_t k = level_start; k < trail_.size(); ++k) {
    ++uip_count_[static_cast<std::size_t>(trail_[k].var)];
  }
  ++relevant_epoch_;  // fresh epoch: stamps double as the walk's marks
  uip_marked_.clear();

  std::int64_t pending = 0;
  auto mark = [&](VarId v) { uip_mark(v, pending); };
  for (const VarId v :
       propagators_[static_cast<std::size_t>(failing_prop_)]->failure_scope()) {
    mark(v);
  }

  // Phase A — the conflict level, newest first.  Every visited relevant
  // entry is a resolvent literal: expand it unless it is the *only* one
  // left at this level (pending == 0 after its own visit), which makes it
  // the first unique implication point.
  bool have_uip = false;
  bool ok = true;
  Lit uip{};
  std::int32_t uip_depth = 0;
  std::size_t k = trail_.size();
  while (k > level_start) {
    --k;
    const TrailEntry& e = trail_[k];
    const auto var = static_cast<std::size_t>(e.var);
    --uip_count_[var];
    if (relevant_stamp_[var] != relevant_epoch_) continue;
    --pending;
    if (pending == 0) {
      uip = entry_literal(e, post_mask(k));
      uip_depth = e.depth;
      have_uip = true;
      break;
    }
    if (!expand_walk_reason(e, mark)) {
      ok = false;
      break;
    }
  }
  // Zero the remaining suffix counts (entries the early break skipped) so
  // the scratch array is clean for the next conflict.
  for (std::size_t i = level_start; i < k; ++i) {
    uip_count_[static_cast<std::size_t>(trail_[i].var)] = 0;
  }
  if (!have_uip || !ok) return false;

  // Below the UIP the walks only ever visit entries on relevant variables,
  // so instead of scanning the trail they drain a bitmap over trail
  // positions [root_trail, k), filled from the relevant variables' trail
  // chains.  It starts with every entry on a Phase-A-marked variable.
  const std::size_t span = k - root_trail;
  const std::size_t top_word = span / 64;  // flags live in words <= top_word
  if (flag_bits_.size() <= top_word) flag_bits_.resize(top_word + 1, 0);
  if (flag_post_.size() < span) flag_post_.resize(span);
  flag_lo_ = top_word;
  std::size_t flagged = 0;
  for (const VarId v : uip_marked_) flagged += flag_entries(v, root_trail, k);
  auto clear_flags = [&](std::size_t hi_word) {
    for (std::size_t w = flag_lo_; w <= hi_word; ++w) flag_bits_[w] = 0;
  };

  // Frontier form (DESIGN.md §15): before the decision-form expansion
  // mutates the mark set, take the literal of every flagged entry — the
  // conjunction of those entries plus the root domain is exactly the marked
  // variables' state below the UIP, so (frontier ∧ UIP) is a sound nogood
  // on its own.  Flags come out in trail order, and each carries the
  // post-change mask its chain walk saw.  Oversized frontiers are
  // abandoned (the decision form will win anyway).
  std::int64_t minimized = 0;
  const bool have_frontier = minimize && flagged <= kMaxFrontier;
  if (have_frontier) {
    frontier_.clear();
    for (std::size_t w = flag_lo_; w <= top_word; ++w) {
      for (std::uint64_t bits = flag_bits_[w]; bits != 0; bits &= bits - 1) {
        const std::size_t at =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        const TrailEntry& e = trail_[root_trail + at];
        frontier_.push_back(
            FrontierLit{entry_literal(e, flag_post_[at]), e.depth,
                        static_cast<std::int32_t>(root_trail + at)});
      }
    }
    enter_phase(Phase::kMinimize);
    minimized = minimize_frontier(root_trail);
    // A frontier literal the UIP already implies is dead weight too.
    std::size_t out = 0;
    for (const FrontierLit& f : frontier_) {
      if (implies(uip, f.lit)) {
        ++minimized;
        continue;
      }
      frontier_[out++] = f;
    }
    frontier_.resize(out);
    enter_phase(Phase::kAnalyze);
  }

  // Phase B — below the UIP, newest first: keep relevant decisions as the
  // clause frontier, expand everything else (kept decisions reproduce all
  // relevant lower state, same induction as the decision-set walk).  A
  // variable marked here flags its entries below the entry being expanded,
  // and the walk visits flagged entries only.  Three things end it early
  // without changing the clause:
  //   * no flag is left;
  //   * every decision still below is relevant: the rest of the walk could
  //     only collect exactly those, so they come off the decision stack;
  //   * the decision form is longer than the frontier: the decision form
  //     only grows, and the frontier form is kept only when strictly
  //     shorter.
  // Above the root no entry is untracked, so stopping early skips no
  // fallback.
  auto relevant = [&](VarId v) {
    return relevant_stamp_[static_cast<std::size_t>(v)] == relevant_epoch_;
  };
  std::size_t below = decisions_.size();  // decisions_[0, below): not passed
  while (below > 0 && static_cast<std::size_t>(decisions_[below - 1]) >= k) {
    --below;
  }
  std::size_t unstamped = 0;  // ... of which on irrelevant variables
  for (std::size_t i = 0; i < below; ++i) {
    if (!relevant(trail_[static_cast<std::size_t>(decisions_[i])].var)) {
      ++unstamped;
    }
  }
  std::size_t pos = k;  // the entry being expanded
  auto mark_below = [&](VarId v) {
    auto& st = relevant_stamp_[static_cast<std::size_t>(v)];
    if (st == relevant_epoch_) return;
    st = relevant_epoch_;
    flag_entries(v, root_trail, pos);
    // A decided variable's newest entry is its decision (a fixed domain
    // changes no further).
    const std::int32_t last = last_entry_[static_cast<std::size_t>(v)];
    if (last >= 0 && static_cast<std::size_t>(last) < pos &&
        trail_[static_cast<std::size_t>(last)].reason == kReasonDecision) {
      --unstamped;
    }
  };
  auto keep = [&](const TrailEntry& e) {  // true: the frontier form wins
    uip_lits_.push_back(
        Lit::eq(e.var, domains_[static_cast<std::size_t>(e.var)].value()));
    uip_depths_.push_back(e.depth);
    return have_frontier && frontier_.size() < uip_lits_.size();
  };
  uip_lits_.clear();
  uip_depths_.clear();
  std::size_t w = top_word;
  for (;;) {
    while (flag_bits_[w] == 0 && w > flag_lo_) --w;
    if (flag_bits_[w] == 0) break;  // no relevant entry left
    const int bit = 63 - std::countl_zero(flag_bits_[w]);
    pos = root_trail + w * 64 + static_cast<std::size_t>(bit);
    // Decisions skipped on the way down carry no flag: irrelevant.
    while (below > 0 &&
           static_cast<std::size_t>(decisions_[below - 1]) > pos) {
      --below;
      --unstamped;
    }
    if (unstamped == 0) {
      while (below > 0 &&
             !keep(trail_[static_cast<std::size_t>(decisions_[--below])])) {
      }
      break;
    }
    flag_bits_[w] &= ~(std::uint64_t{1} << bit);
    const TrailEntry& e = trail_[pos];
    if (e.reason == kReasonDecision) {
      --below;  // decisions_[below] == pos
      if (keep(e)) break;
      continue;
    }
    if (!expand_walk_reason(e, mark_below)) {
      clear_flags(w);
      return false;
    }
  }
  clear_flags(w);

  // Keep whichever form is shorter; ties go to the decision form (the
  // pre-minimization behavior), which also preserves the per-conflict
  // "never longer than the decision set" invariant the ratio gate pins.
  if (have_frontier && frontier_.size() < uip_lits_.size()) {
    stats_.nogood_lits_minimized += minimized;
    uip_lits_.clear();
    uip_depths_.clear();
    for (const FrontierLit& f : frontier_) {
      uip_lits_.push_back(f.lit);
      uip_depths_.push_back(f.depth);
    }
  } else {
    std::reverse(uip_lits_.begin(), uip_lits_.end());
    std::reverse(uip_depths_.begin(), uip_depths_.end());
  }
  uip_lits_.push_back(uip);
  uip_depths_.push_back(uip_depth);
  return true;
}

void Solver::snapshot_root_bounds() {
  root_min_.resize(domains_.size());
  root_max_.resize(domains_.size());
  for (std::size_t v = 0; v < domains_.size(); ++v) {
    const Domain64& d = domains_[v];
    MGRTS_ASSERT(!d.empty());
    root_min_[v] = d.min();
    root_max_[v] = d.max();
  }
}

std::int32_t Solver::entailment_depth(Lit lit) const {
  const auto var = static_cast<std::size_t>(lit.var);
  const Domain64& d = domains_[var];
  // Hoist the literal's miss mask out of the chain walk: entailment of a
  // mask m is (m & miss) == 0, so the per-entry test is a single AND
  // instead of recomputing truth_mask(lit, base) at every link.
  const std::uint64_t miss = ~truth_mask(lit, d.base());
  if ((d.raw_mask() & miss) != 0) return -1;  // not entailed
  std::int32_t k = last_entry_[var];
  while (k >= 0) {
    const TrailEntry& e = trail_[static_cast<std::size_t>(k)];
    if ((e.old_mask & miss) != 0) return e.depth;
    k = e.prev_on_var;
  }
  return 0;  // entailed by the root domain itself
}

void Solver::build_watch_lists() {
  const std::size_t n = domains_.size();

  // The solve-owned nogood store gets direct delivery (notify_store), so
  // its all-variable scope never inflates the CSR lists: one fewer entry
  // to walk per variable per event on the hottest loop in the solver.
  auto skip_store = [&](const Propagator& p) {
    return &p == static_cast<const Propagator*>(nogood_store_);
  };
  auto build = [&](WakePolicy policy, WatchList& list) {
    std::vector<std::int32_t> counts(n + 1, 0);
    for (const auto& p : propagators_) {
      if (skip_store(*p) || p->wake_policy() != policy) continue;
      for (const VarId v : p->scope()) {
        ++counts[static_cast<std::size_t>(v) + 1];
      }
    }
    for (std::size_t i = 1; i <= n; ++i) counts[i] += counts[i - 1];
    list.offset = counts;
    list.data.assign(static_cast<std::size_t>(counts[n]), Watch{0, 0});
    std::vector<std::int32_t> cursor = list.offset;
    for (const auto& p : propagators_) {
      if (skip_store(*p) || p->wake_policy() != policy) continue;
      const auto& scope = p->scope();
      for (std::size_t pos = 0; pos < scope.size(); ++pos) {
        const auto v = static_cast<std::size_t>(scope[pos]);
        list.data[static_cast<std::size_t>(cursor[v]++)] =
            Watch{p->id_, static_cast<std::int32_t>(pos)};
      }
    }
  };
  build(WakePolicy::kAnyChange, any_watch_);
  build(WakePolicy::kFixedOnly, fixed_watch_);

  // Initialize wdeg: every constraint contributes its base weight 1.
  for (const auto& p : propagators_) {
    for (const VarId v : p->scope()) {
      ++var_wdeg_[static_cast<std::size_t>(v)];
    }
  }
  frozen_ = true;
}

Solver::HeapNode Solver::current_key(VarId v) const noexcept {
  const auto i = static_cast<std::size_t>(v);
  const std::int64_t wdeg =
      heap_use_wdeg_ ? std::max<std::int64_t>(1, var_wdeg_[i]) : 1;
  return HeapNode{wdeg, domains_[i].size(), v};
}

void Solver::heap_sift_up(std::size_t i) {
  const HeapNode node = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!heap_before(node, heap_[parent])) break;
    heap_[i] = heap_[parent];
    heap_pos_[static_cast<std::size_t>(heap_[i].var)] =
        static_cast<std::int32_t>(i);
    i = parent;
  }
  heap_[i] = node;
  heap_pos_[static_cast<std::size_t>(node.var)] = static_cast<std::int32_t>(i);
}

void Solver::heap_sift_down(std::size_t i) {
  const HeapNode node = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_before(heap_[child + 1], heap_[child])) ++child;
    if (!heap_before(heap_[child], node)) break;
    heap_[i] = heap_[child];
    heap_pos_[static_cast<std::size_t>(heap_[i].var)] =
        static_cast<std::int32_t>(i);
    i = child;
  }
  heap_[i] = node;
  heap_pos_[static_cast<std::size_t>(node.var)] = static_cast<std::int32_t>(i);
}

void Solver::heap_pop_root() {
  heap_pos_[static_cast<std::size_t>(heap_.front().var)] = -1;
  const HeapNode last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Bottom-up deletion: the hole follows the better child down to a leaf
  // (one comparison per level), then the old last leaf rises from there —
  // a leaf key is usually among the worst, so it rises little.
  std::size_t i = 0;
  for (std::size_t child = 1; child < n; child = 2 * i + 1) {
    if (child + 1 < n && heap_before(heap_[child + 1], heap_[child])) ++child;
    heap_[i] = heap_[child];
    heap_pos_[static_cast<std::size_t>(heap_[i].var)] =
        static_cast<std::int32_t>(i);
    i = child;
  }
  heap_[i] = last;
  heap_sift_up(i);
}

void Solver::heap_improve(VarId v) {
  const HeapNode now = current_key(v);
  const std::int32_t pos = heap_pos_[static_cast<std::size_t>(v)];
  if (pos < 0) {
    heap_.push_back(now);
    heap_sift_up(heap_.size() - 1);
    return;
  }
  HeapNode& stored = heap_[static_cast<std::size_t>(pos)];
  if (now.size * stored.wdeg < stored.size * now.wdeg) {
    stored = now;
    heap_sift_up(static_cast<std::size_t>(pos));
  }
}

VarId Solver::select_from_heap(const SearchOptions& options,
                               support::Rng& rng) {
  // Absorb the key improvements since the last selection, once per
  // variable.  A variable fixed in the meantime needs none: it is touched
  // again when it re-enters the unfixed set.
  for (const VarId v : heap_dirty_) {
    heap_dirty_flag_[static_cast<std::size_t>(v)] = 0;
    if (unfixed_pos_[static_cast<std::size_t>(v)] >= 0) heap_improve(v);
  }
  heap_dirty_.clear();
  if (unfixed_size_ == 0) return -1;
  // Settle the root: a fixed variable's node leaves the heap, and a node
  // whose key regressed since it was stored is refreshed and sinks.  A
  // root whose stored key is current is the minimum over every unfixed
  // variable (each one's stored key is <= its current key), with the
  // smallest id among equals — exactly the scan's deterministic pick.
  for (;;) {
    MGRTS_ASSERT(!heap_.empty());
    const HeapNode root = heap_.front();
    if (unfixed_pos_[static_cast<std::size_t>(root.var)] < 0) {
      heap_pop_root();
      continue;
    }
    const HeapNode now = current_key(root.var);
    if (same_key(root, now)) break;
    heap_.front() = now;
    heap_sift_down(0);
  }
  const HeapNode best = heap_.front();
  if (!options.random_var_ties) return best.var;

  // Random tie-breaking: a variable whose current key ties the minimum
  // stores the minimum too (stored <= current, and nothing stores less
  // than the root), and the nodes storing the minimum form one connected
  // region under the root.  A read-only walk of that region collects the
  // exact tie set — a function of the domain/wdeg state alone — which is
  // sorted by id and drawn from once, as the scan does.
  std::vector<VarId>& ties = ties_;
  ties.clear();
  heap_walk_.assign(1, 0);  // holds nodes storing the minimum only
  while (!heap_walk_.empty()) {
    const std::size_t i = heap_walk_.back();
    heap_walk_.pop_back();
    const VarId var = heap_[i].var;
    if (unfixed_pos_[static_cast<std::size_t>(var)] >= 0 &&
        same_key(current_key(var), best)) {
      ties.push_back(var);
    }
    // A child storing a worse key roots a subtree of worse keys.
    for (std::size_t child = 2 * i + 1;
         child <= 2 * i + 2 && child < heap_.size(); ++child) {
      if (same_key(heap_[child], best)) heap_walk_.push_back(child);
    }
  }
  std::sort(ties.begin(), ties.end());
  return ties[static_cast<std::size_t>(
      rng.uniform(0, static_cast<std::int64_t>(ties.size()) - 1))];
}

VarId Solver::select_variable(const SearchOptions& options, VarId lex_hint,
                              support::Rng& rng) {
  if (options.var_heuristic == VarHeuristic::kLex) {
    for (VarId v = lex_hint; v < static_cast<VarId>(domains_.size()); ++v) {
      if (!domains_[static_cast<std::size_t>(v)].is_fixed()) return v;
    }
    // The hint only moves forward on a branch; a restart may leave earlier
    // variables unfixed, so fall back to a full scan.
    for (VarId v = 0; v < lex_hint; ++v) {
      if (!domains_[static_cast<std::size_t>(v)].is_fixed()) return v;
    }
    return -1;
  }

  if (heap_active_) return select_from_heap(options, rng);

  // The reference scan: the minimum size/wdeg fraction, ties by id; under
  // random ties the exact tie set, sorted by id, drawn from once.
  VarId best = -1;
  HeapNode best_key{1, 0, -1};
  std::vector<VarId>& ties = ties_;
  ties.clear();
  for (std::int64_t k = 0; k < unfixed_size_; ++k) {
    const VarId v = unfixed_list_[static_cast<std::size_t>(k)];
    const HeapNode key = current_key(v);
    if (best < 0 || heap_before(key, best_key)) {
      if (best < 0 || !same_key(key, best_key)) ties.clear();
      best = v;
      best_key = key;
    }
    if (same_key(key, best_key)) ties.push_back(v);
  }
  if (!options.random_var_ties || best < 0) return best;
  std::sort(ties.begin(), ties.end());
  return ties[static_cast<std::size_t>(
      rng.uniform(0, static_cast<std::int64_t>(ties.size()) - 1))];
}

Value Solver::select_value(const SearchOptions& options, VarId var,
                           std::uint64_t tried, support::Rng& rng) const {
  const Domain64& d = domains_[static_cast<std::size_t>(var)];
  std::uint64_t candidates = d.raw_mask() & ~tried;
  MGRTS_ASSERT(candidates != 0);
  switch (options.val_heuristic) {
    case ValHeuristic::kMin:
      return d.base() + std::countr_zero(candidates);
    case ValHeuristic::kMax:
      return d.base() + (63 - std::countl_zero(candidates));
    case ValHeuristic::kRandom: {
      const int count = std::popcount(candidates);
      int pick = static_cast<int>(rng.uniform(0, count - 1));
      while (pick-- > 0) candidates &= candidates - 1;
      return d.base() + std::countr_zero(candidates);
    }
  }
  return d.base() + std::countr_zero(candidates);
}

SolveOutcome Solver::solve(const SearchOptions& options) {
  // The first call freezes the model and leaves domains, trail and
  // propagator state where its search stopped; nothing resets them.
  MGRTS_EXPECTS(!frozen_ && "Solver::solve may run once per Solver instance");
  support::Stopwatch watch;
  stats_ = SolveStats{};
  scratch_ = options.propagation == PropagationMode::kScratch;
  support::Rng rng(options.seed);

  // Selection-heap setup must precede any domain traffic (the unfixed-set
  // population below and root propagation both push entries).
  heap_active_ = options.selection == SelectionMode::kHeap &&
                 options.var_heuristic != VarHeuristic::kLex;
  heap_use_wdeg_ = options.var_heuristic == VarHeuristic::kDomWdeg;
  heap_.clear();
  heap_pos_.assign(domains_.size(), -1);
  heap_dirty_.clear();
  heap_dirty_flag_.assign(domains_.size(), 0);

  // The nogood store joins the model as a propagator before the watch
  // lists freeze; it stays empty (and silent) until the first conflict.
  nogood_store_ = nullptr;
  // General (1-UIP) stores carry !=/<=/>= literals whose entailment can
  // move on prune events, so they watch every change; decision-set stores
  // keep the fix-only subscription.
  const bool uip_learning =
      options.nogood_shrink && options.nogood_learn == NogoodLearn::kUip1;
  if (options.nogoods && !domains_.empty()) {
    auto store = std::make_unique<NogoodStore>(
        variable_count(), options.nogood_max_length, kNogoodDbLimit,
        /*general=*/uip_learning);
    nogood_store_ = store.get();
    add(std::move(store));
  }
  // Direct event delivery for the solve-owned store (see notify_store);
  // externally added stores stay on the CSR lists and both flags stay off.
  store_direct_any_ = nogood_store_ != nullptr && uip_learning;
  store_direct_fixed_ = nogood_store_ != nullptr && !uip_learning;
  if (nogood_store_ != nullptr) nogood_store_->bind_stats(&stats_);

  // Every advisor hears every event until root propagation has primed it
  // (see below).
  watch_mask_.assign(propagators_.size(), ~std::uint64_t{0});

  // Per-propagator observability (the propagator set is final here).
  prop_wakes_.assign(propagators_.size(), 0);
  prop_runs_.assign(propagators_.size(), 0);
  prop_prunes_.assign(propagators_.size(), 0);
  prop_seconds_.assign(propagators_.size(), 0.0);
  prop_profile_ = options.prop_profile;
  running_prop_ = -1;
  phase_ns_.fill(0);
  phase_ = Phase::kOther;
  if (prop_profile_) phase_t0_ = std::chrono::steady_clock::now();

  // Reason tracking (DESIGN.md §10) is built only when conflict-analysis
  // shrinking can use it (or the determinism probe forces it); otherwise
  // active_reason_ stays kReasonNone and no per-change work happens.
  track_reasons_ =
      !domains_.empty() &&
      ((options.nogood_shrink && nogood_store_ != nullptr) ||
       options.force_reason_trail);
  active_reason_ = kReasonNone;
  if (track_reasons_) {
    reason_offset_.assign(1, 0);
    decisions_.clear();
    reason_vars_.clear();
    relevant_stamp_.assign(domains_.size(), 0);
    expanded_stamp_.assign(propagators_.size(), 0);
    relevant_epoch_ = 0;
    if (uip_learning) uip_count_.assign(domains_.size(), 0);
  }
  cur_depth_ = 0;

  SolveOutcome outcome;
  auto finish = [&](SolveStatus status) {
    enter_phase(Phase::kOther);  // close the last interval before the clock
    if (prop_profile_) {
      auto secs = [&](Phase p) {
        return static_cast<double>(phase_ns_[static_cast<std::size_t>(p)]) *
               1e-9;
      };
      stats_.phases = SearchPhases{secs(Phase::kSelect),
                                   secs(Phase::kPropagate),
                                   secs(Phase::kAnalyze),
                                   secs(Phase::kMinimize),
                                   secs(Phase::kBackjump),
                                   secs(Phase::kRestart)};
    }
    stats_.seconds = watch.seconds();
    // Fold the per-id counters into per-class rows, sorted by name for
    // stable output.  name() returns one literal per class, so the fold
    // probes literal addresses (the class set is tiny) and compares text
    // only the first time a literal shows up.
    auto& rows = stats_.propagators;
    rows.clear();
    std::vector<std::pair<const char*, std::size_t>> row_of;  // literal, row
    for (std::size_t k = 0; k < propagators_.size(); ++k) {
      const char* nm = propagators_[k]->name();
      auto it = std::find_if(row_of.begin(), row_of.end(),
                             [nm](const auto& e) { return e.first == nm; });
      if (it == row_of.end()) {
        std::size_t r = 0;
        while (r < rows.size() && rows[r].name != nm) ++r;
        if (r == rows.size()) rows.push_back({nm, 0, 0, 0, 0.0});
        it = row_of.emplace(row_of.end(), nm, r);
      }
      PropagatorProfile& row = rows[it->second];
      row.wakes += prop_wakes_[k];
      row.runs += prop_runs_[k];
      row.prunes += prop_prunes_[k];
      row.seconds += prop_seconds_[k];
    }
    std::sort(rows.begin(), rows.end(),
              [](const PropagatorProfile& a, const PropagatorProfile& b) {
                return a.name < b.name;
              });
    outcome.status = status;
    outcome.stats = stats_;
    if (status == SolveStatus::kSat) {
      outcome.assignment.reserve(domains_.size());
      for (const Domain64& d : domains_) outcome.assignment.push_back(d.value());
    }
    return outcome;
  };

  build_watch_lists();
  // Populate the unfixed sparse set.
  for (VarId v = 0; v < static_cast<VarId>(domains_.size()); ++v) {
    if (domains_[static_cast<std::size_t>(v)].empty()) {
      return finish(SolveStatus::kUnsat);
    }
    sync_membership(v);
  }

  // Root propagation: schedule everything once.  The first run of each
  // incremental propagator primes its trailed counters from the (possibly
  // post_fix/post_remove-narrowed) root domains.
  for (const auto& p : propagators_) enqueue(*p);
  if (!propagate_queue()) {
    bump_failure(failing_prop_);
    return finish(SolveStatus::kUnsat);
  }
  // Every propagator has now run once, so every counter is primed and event
  // delivery may honour the watched-value contract.  Scratch mode keeps
  // delivering every event: the incremental-vs-scratch differentials then
  // compare filtered against unfiltered delivery.
  if (!scratch_) {
    for (std::size_t k = 0; k < propagators_.size(); ++k) {
      if (const auto value = propagators_[k]->watched_value()) {
        watch_mask_[k] = watched_bit(propagators_[k]->scope(), *value);
      }
    }
  }
  Mark root_mark = mark();  // advanced by restart-time root strengthening
  if (uip_learning && nogood_store_ != nullptr) snapshot_root_bounds();

  std::int64_t restart_index = 0;
  std::int64_t failures_until_restart = -1;  // -1 = no budget
  auto reset_restart_budget = [&] {
    switch (options.restart) {
      case RestartPolicy::kNone:
        failures_until_restart = -1;
        break;
      case RestartPolicy::kLuby:
        failures_until_restart = options.restart_scale * luby(restart_index + 1);
        break;
    }
  };
  reset_restart_budget();

  std::vector<Frame> frames;
  std::vector<Lit> nogood_buf;
  std::vector<std::int32_t> depth_buf;  ///< frame depths of nogood_buf lits

  for (;;) {  // restart loop
    bool restart_requested = false;

    // Depth-first search with an explicit frame stack.
    while (!restart_requested) {
      enter_phase(Phase::kSelect);
      if (all_assigned()) {
        return finish(SolveStatus::kSat);
      }

      // Periodic limit checks.
      if ((stats_.nodes & 0x3f) == 0) {
        if (options.deadline.poll()) return finish(SolveStatus::kTimeout);
      }
      if (options.max_nodes >= 0 && stats_.nodes >= options.max_nodes) {
        return finish(SolveStatus::kNodeLimit);
      }

      // Open a decision on a fresh variable.
      const VarId lex_hint = frames.empty() ? 0 : frames.back().lex_hint;
      const VarId var = select_variable(options, lex_hint, rng);
      MGRTS_ASSERT(var >= 0);
      Frame frame;
      frame.var = var;
      frame.mark = mark();
      frame.lex_hint = std::max(lex_hint, var);
      frames.push_back(frame);
      cur_depth_ = static_cast<std::int32_t>(frames.size());
      stats_.max_depth = std::max(stats_.max_depth,
                                  static_cast<std::int64_t>(frames.size()));

      // Try values until one propagates, backtracking frames as they
      // exhaust.
      for (;;) {
        Frame& top = frames.back();
        const Domain64& d = domains_[static_cast<std::size_t>(top.var)];
        const std::uint64_t candidates = d.raw_mask() & ~top.tried;
        if (candidates == 0) {
          // Frame exhausted: undo and propagate the failure upward.
          frames.pop_back();
          if (frames.empty()) {
            return finish(SolveStatus::kUnsat);
          }
          backtrack_to(frames.back().mark);
          cur_depth_ = static_cast<std::int32_t>(frames.size());
          continue;
        }

        const Value value = select_value(options, top.var, top.tried, rng);
        top.tried |= std::uint64_t{1}
                     << static_cast<unsigned>(value - d.base());
        ++stats_.nodes;
        if ((stats_.nodes & 0x3f) == 0 && options.deadline.poll()) {
          return finish(SolveStatus::kTimeout);
        }
        if (options.max_nodes >= 0 && stats_.nodes > options.max_nodes) {
          return finish(SolveStatus::kNodeLimit);
        }

        enter_phase(Phase::kPropagate);
        if (track_reasons_) active_reason_ = kReasonDecision;
        const PropResult fixed = fix(top.var, value);
        if (track_reasons_) active_reason_ = kReasonNone;
        const bool ok = fixed == PropResult::kOk && propagate_queue();
        if (ok) break;  // descend

        enter_phase(Phase::kAnalyze);
        ++stats_.failures;
        bump_failure(failing_prop_);

        // Conflict analysis must read the implication trail before the
        // backtrack below unwinds the conflicting subtree.
        const bool can_analyze = nogood_store_ != nullptr &&
                                 track_reasons_ && failing_prop_ >= 0;

        // 1-UIP resolution (DESIGN.md §11): resolve the conflict level
        // down to its first unique implication point and learn that
        // literal frontier.  Gate on uip_learning, not the learn knob
        // alone: analysis can be live through force_reason_trail while
        // nogood_shrink is off, and the walk's scratch arrays are only
        // sized for real 1-UIP runs.
        bool use_uip = false;  ///< record uip_lits_ instead of nogood_buf
        if (uip_learning && can_analyze) {
          use_uip = analyze_uip(root_mark.domain, top.mark.domain,
                                options.nogood_minimize);
        }

        // Decision-set clause (kDecisionSet learning, and the fallback when
        // the 1-UIP walk meets an untracked entry): the decisions standing
        // below this frame (still fixed — nothing is unwound yet) plus the
        // assignment that just failed.  With analysis available, only the
        // decisions the conflict is actually reachable from are kept, and
        // the length cut applies to the minimized clause — deep conflicts
        // with local causes still record.
        if (!use_uip) {
          const bool shrink =
              can_analyze && analyze_conflict(root_mark.domain);
          nogood_buf.clear();
          depth_buf.clear();
          if (nogood_store_ != nullptr &&
              (shrink || static_cast<std::int64_t>(frames.size()) <=
                             options.nogood_max_length)) {
            for (std::size_t k = 0; k + 1 < frames.size(); ++k) {
              const VarId v = frames[k].var;
              if (shrink &&
                  relevant_stamp_[static_cast<std::size_t>(v)] !=
                      relevant_epoch_) {
                continue;
              }
              nogood_buf.push_back(Lit::eq(
                  v, domains_[static_cast<std::size_t>(v)].value()));
              depth_buf.push_back(static_cast<std::int32_t>(k));
            }
            nogood_buf.push_back(Lit::eq(top.var, value));
            depth_buf.push_back(static_cast<std::int32_t>(frames.size()) -
                                1);
          }
        }
        failing_prop_ = -1;

        // Records one learned clause; the frontier form can carry several
        // literals at one depth, so block_lbd gets the deduped strictly-
        // ascending depth set.
        auto record_clause = [&](const std::vector<Lit>& lits,
                                 const std::vector<std::int32_t>& depths,
                                 std::int32_t raw_len) {
          if (nogood_store_ == nullptr || lits.empty() ||
              static_cast<std::int64_t>(lits.size()) >
                  options.nogood_max_length) {
            return;
          }
          lbd_depths_.clear();
          for (const std::int32_t d : depths) {
            if (lbd_depths_.empty() || lbd_depths_.back() != d) {
              lbd_depths_.push_back(d);
            }
          }
          nogood_store_->record(
              lits, raw_len,
              block_lbd(lbd_depths_.data(),
                        static_cast<std::int32_t>(lbd_depths_.size())),
              stats_);
        };

        // Non-chronological backjumping (DESIGN.md §15): when the learned
        // clause is asserting — its assertion level (the second-highest
        // literal depth) sits strictly below the conflict level — unwind
        // straight to that level, record the clause, and assert the
        // negated UIP literal there with the clause as its explicit
        // reason.  A clause that still pins the conflict level (Phase B
        // kept the conflict decision) falls back to the chronological
        // retry, as does every conflict without a usable 1-UIP analysis.
        enter_phase(Phase::kBackjump);
        if (failures_until_restart > 0 && --failures_until_restart == 0) {
          restart_requested = true;  // record below, then restart
        }
        std::int32_t jump_to = -1;
        if (!restart_requested && options.backjump && use_uip) {
          const auto conflict_depth =
              static_cast<std::int32_t>(frames.size());
          const std::int32_t assert_level =
              uip_lits_.size() >= 2 ? uip_depths_[uip_lits_.size() - 2] : 0;
          if (assert_level < conflict_depth) jump_to = assert_level;
        }

        if (jump_to < 0) {
          // Chronological retry: the differential baseline, and the
          // fallback for non-asserting clauses.
          backtrack_to(top.mark);
          record_clause(use_uip ? uip_lits_ : nogood_buf,
                        use_uip ? uip_depths_ : depth_buf,
                        static_cast<std::int32_t>(frames.size()));
          if (restart_requested) break;
          continue;
        }

        bool descend = false;
        for (;;) {  // assertion loop: jump, assert, re-propagate
          const auto depth_now = static_cast<std::int32_t>(frames.size());
          const Mark target = frames[static_cast<std::size_t>(jump_to)].mark;
          frames.resize(static_cast<std::size_t>(jump_to));
          backtrack_to(target);
          cur_depth_ = jump_to;
          ++stats_.backjumps;
          stats_.backjump_levels_saved += (depth_now - 1) - jump_to;
          // Record first (the clause's non-UIP literals are still entailed
          // at the assertion level, the UIP literal is free — exactly the
          // state record() watches against), then assert the negated UIP
          // literal under the clause variables as the explicit reason.
          record_clause(uip_lits_, uip_depths_, depth_now);
          const Lit uip = uip_lits_.back();
          assert_vars_.clear();
          for (const Lit& l : uip_lits_) assert_vars_.push_back(l.var);
          begin_explicit_reason(
              assert_vars_.data(),
              static_cast<std::int32_t>(assert_vars_.size()));
          PropResult asserted = PropResult::kOk;
          if (uip.rel == Rel::kNe) {
            // ¬(var != val) is the assignment itself.
            asserted = fix(uip.var, uip.val);
          } else {
            const Domain64& ud = domains_[static_cast<std::size_t>(uip.var)];
            std::uint64_t kill = ud.raw_mask() & truth_mask(uip, ud.base());
            while (kill != 0 && asserted == PropResult::kOk) {
              const Value v = ud.base() + std::countr_zero(kill);
              kill &= kill - 1;
              asserted = remove(uip.var, v);
            }
          }
          end_explicit_reason();

          if (asserted == PropResult::kOk && propagate_queue()) {
            descend = true;
            break;
          }
          // Fresh conflict at the assertion level.  A failed assert
          // short-circuits propagate_queue, so flush its stale wakeups.
          if (asserted != PropResult::kOk) clear_queue();
          enter_phase(Phase::kAnalyze);
          ++stats_.failures;
          bump_failure(failing_prop_);
          if (frames.empty()) {
            // The clause asserts at the root and still conflicts: UNSAT.
            failing_prop_ = -1;
            return finish(SolveStatus::kUnsat);
          }
          bool again = false;
          if (nogood_store_ != nullptr && track_reasons_ &&
              failing_prop_ >= 0) {
            again = analyze_uip(root_mark.domain, frames.back().mark.domain,
                                options.nogood_minimize);
          }
          enter_phase(Phase::kBackjump);
          failing_prop_ = -1;
          std::int32_t next_level = -1;
          if (again) {
            const auto d_now = static_cast<std::int32_t>(frames.size());
            const std::int32_t lvl =
                uip_lits_.size() >= 2 ? uip_depths_[uip_lits_.size() - 2]
                                      : 0;
            if (lvl < d_now) next_level = lvl;
          }
          if (failures_until_restart > 0 &&
              --failures_until_restart == 0) {
            restart_requested = true;
          }
          if (next_level < 0 || restart_requested) {
            // Chronological fallback: unwind this level and let the value
            // loop retry the standing frame's remaining values.
            backtrack_to(frames.back().mark);
            if (again) {
              record_clause(uip_lits_, uip_depths_,
                            static_cast<std::int32_t>(frames.size()));
            }
            break;
          }
          jump_to = next_level;
        }
        if (descend) break;     // resume decisions from the assertion level
        if (restart_requested) break;
      }
    }

    // Restart: rewind to the root state and search again (the rng state
    // advances, so randomized heuristics explore a different tree).
    enter_phase(Phase::kRestart);
    frames.clear();
    backtrack_to(root_mark);
    cur_depth_ = 0;
    ++restart_index;
    ++stats_.restarts;

    // Nogood database maintenance runs at the root: unit folding, pruning,
    // watch rebuild.  Unit folds strengthen the root
    // permanently, so the root mark advances past the re-propagated state.
    if (nogood_store_ != nullptr) {
      if (!nogood_store_->restart_maintenance(*this, stats_)) {
        return finish(SolveStatus::kUnsat);
      }
      if (!propagate_queue()) {
        bump_failure(failing_prop_);
        failing_prop_ = -1;
        return finish(SolveStatus::kUnsat);
      }
      root_mark = mark();
      // Unit folds may have moved root bounds; the bound-form test in
      // entry_literal must stay root-equivalent.
      if (uip_learning) snapshot_root_bounds();
    }

    reset_restart_budget();
    if (options.deadline.poll()) return finish(SolveStatus::kTimeout);
  }
}

}  // namespace mgrts::csp
