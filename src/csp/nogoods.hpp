// Nogood recording across restarts (DESIGN.md §6, §10–11).
//
// A nogood is a conjunction of csp::Lits refuted by search: its negation is
// a clause, at least one conjunct must fail in every solution, and — unlike
// the trail itself — it stays valid after a restart, which is what lets
// Luby-restarted search stop re-exploring refuted prefixes.  Decision-set
// learning records pure (var == val) conjuncts; 1-UIP learning
// (NogoodLearn::kUip1) records the implied-literal frontier, so clauses mix
// ==, != and bound (<=/>=) literals.
//
// The database is replayed as 2-watched-literal constraints: the store is a
// single propagator whose scope is every variable, so it plugs into the
// existing CSR watch lists (one entry per variable) while clause-level
// watches live in its own per-variable lists.  A conjunct is *entailed*
// exactly when every remaining domain value satisfies it — for (var == val)
// that happens only at a fix, so decision-set stores subscribe kFixedOnly;
// bound and != conjuncts become entailed on bound movement and value
// removal, so general (1-UIP) stores subscribe kAnyChange and the advisor
// tests the entailment transition against the pre-change mask.  Watches
// repair lazily and need no trailing because chronological backtracking
// only un-entails.
//
// Database hygiene happens at restarts (the only point where the trail is
// at the root): impossible-conjunct clauses are dropped, clauses that
// became unit at the root strengthen the root permanently, and when the
// database exceeds its soft limit the worst entries are pruned by *block
// LBD* (see block_lbd and DESIGN.md §10), newest-first within a glue
// class.  Two in-search refinements (DESIGN.md §11): a replay hit
// recomputes the firing clause's block LBD from the current entailment
// depths (a clause that keeps firing inside one depth block is promoted
// toward the protected core), and each fresh recording is checked for
// subsumption against the previous one — only the stronger clause
// survives.  A NogoodPool lets portfolio lanes solving the same model
// share databases in literal form, so lanes import bound clauses too;
// admission is by LBD rather than length.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "csp/solver.hpp"

namespace mgrts::csp {

/// Block LBD (DESIGN.md §10): the number of maximal runs of consecutive
/// decision depths in `depths` (ascending, n >= 1).  Under chronological
/// backtracking, literals at consecutive depths falsify and un-falsify
/// together, so each run behaves like one glued literal; unminimized
/// decision sets are a single run (LBD 1), while conflict-analysis
/// shrinking opens gaps and scattered clauses replay poorly.
[[nodiscard]] std::int32_t block_lbd(const std::int32_t* depths,
                                     std::int32_t n);

/// A clause in flight between lanes: its literals plus the block LBD it
/// was recorded with (the importing lane's admission key).
struct PooledNogood {
  std::vector<Lit> lits;
  std::int32_t lbd = 1;
};

/// Thread-safe exchange of nogoods between lanes solving the same model.
/// Entries are append-only; each lane keeps its own import cursor and skips
/// entries it published itself.
class NogoodPool {
 public:
  void publish(std::int32_t lane, const Lit* lits, std::int32_t len,
               std::int32_t lbd);

  /// Copies entries in [cursor, end) published by other lanes into `out`
  /// (appending) and returns the new cursor.
  std::size_t import_since(std::size_t cursor, std::int32_t lane,
                           std::vector<PooledNogood>& out) const;

  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    std::int32_t lane;
    PooledNogood clause;
  };
  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
};

/// The in-solver nogood database.  Created by Solver::solve when
/// SearchOptions::nogoods (or a pool) is set; owned by the solver like any
/// propagator.
class NogoodStore final : public Propagator {
 public:
  /// `vars` is the total variable count; the store watches every variable.
  /// `max_lbd` is the pool-import admission cut (block LBD at recording).
  /// `general` enables !=/bound literals: the store then wakes on any
  /// change (their entailment moves on prunes); a non-general store keeps
  /// the fix-only subscription and rejects non-== pool imports.
  NogoodStore(std::int64_t vars, std::int32_t max_length,
              std::int32_t max_lbd, std::int32_t db_limit,
              bool general = false);

  // ---- Propagator interface ------------------------------------------
  PropResult propagate(Solver& solver) override;
  void attach(Solver& solver) override { solver_ = &solver; }
  [[nodiscard]] const std::vector<VarId>& scope() const override {
    return scope_;
  }
  [[nodiscard]] const std::vector<VarId>& failure_scope() const override;
  [[nodiscard]] const char* name() const override { return "nogood-store"; }
  [[nodiscard]] WakePolicy wake_policy() const override {
    return general_ ? WakePolicy::kAnyChange : WakePolicy::kFixedOnly;
  }
  [[nodiscard]] PropPriority priority() const override {
    return PropPriority::kFast;
  }
  bool on_event(Solver& solver, std::int32_t pos,
                std::uint64_t old_mask) override;

  // ---- solver hooks ---------------------------------------------------

  /// on_event's aggregate pre-test, inline for the solver's direct
  /// delivery: false proves that an event removing `removed` from `var`
  /// can make no watch entailed, so on_event would return false.
  [[nodiscard]] bool may_wake(VarId var,
                              std::uint64_t removed) const noexcept {
    return (removed & agg_miss_[static_cast<std::size_t>(var)]) != 0;
  }

  /// Records one learned nogood.  `lits` is ordered by depth, shallowest
  /// first, with the conflict-level literal (the failed assignment, or the
  /// 1-UIP) last; the caller invokes this right after backtracking the
  /// conflict level, so the last literal is free and every other literal
  /// is still entailed.  `raw_len` is the full decision-set length before
  /// any shrinking and `lbd` the block LBD of the kept depths (both feed
  /// the stats and the clause's admission key).  Length-1 nogoods queue a
  /// permanent root strengthening instead of a clause.  The fresh clause
  /// is checked for subsumption against the previous recording: only the
  /// stronger one is kept (stats.nogoods_subsumed counts either outcome).
  void record(const std::vector<Lit>& lits, std::int32_t raw_len,
              std::int32_t lbd, SolveStats& stats);

  /// Restart-time database maintenance; must run with the trail at the
  /// root.  Publishes fresh recordings to / imports from `pool` (may be
  /// null), applies queued root units, drops satisfied clauses, prunes an
  /// oversized database, and rebuilds every watch list.  Returns false
  /// when a root unit or root-falsified clause proves UNSAT.
  [[nodiscard]] bool restart_maintenance(Solver& solver, NogoodPool* pool,
                                         std::int32_t lane,
                                         SolveStats& stats);

  /// Live (non-subsumed) clause count.
  [[nodiscard]] std::int64_t clause_count() const noexcept { return live_; }

  /// Points the store at the active solve's stats so in-search unit
  /// removals and clause conflicts are counted (propagate() has no stats
  /// channel of its own).  The target must outlive the solve.
  void bind_stats(SolveStats* stats) noexcept { stats_ = stats; }

 private:
  struct Clause {
    std::int32_t offset;  ///< span start in lits_
    std::int32_t len;
    std::int32_t lbd;  ///< block LBD: recorded, then replay-hit refreshed
    bool imported;     ///< pool-provided; never re-published
    bool deleted;      ///< subsumed mid-search; dropped at maintenance
  };

  /// One clause watch, precomputed for the advisor's hot loop: `miss` is
  /// the complement of the watched literal's truth mask relative to the
  /// variable's (immutable) domain base, so "the watch is entailed by mask
  /// m" is the single test (m & miss) == 0 and the entailment *transition*
  /// the advisor looks for is two ANDs — no clause-memory chase on the
  /// event path.  Entries go stale when a watch moves (the miss mask then
  /// describes the old literal); stale wakes only enqueue the clause for
  /// examine(), which re-verifies against clause memory, so they cost a
  /// redundant examination, never a missed or wrong propagation.
  struct WatchRef {
    std::uint64_t miss;
    std::int32_t clause;
  };

  /// Conjunct entailed by the current domain: the literal *must* hold.
  [[nodiscard]] static bool lit_entailed(const Solver& solver, Lit lit) {
    return entailed(solver.domain(lit.var), lit);
  }
  /// Conjunct impossible: the clause (its negation) is permanently true.
  [[nodiscard]] static bool lit_impossible(const Solver& solver, Lit lit) {
    return impossible(solver.domain(lit.var), lit);
  }

  void add_clause(const Lit* lits, std::int32_t len, std::int32_t lbd,
                  bool imported);
  /// Appends a WatchRef for `lit` under its variable; the miss mask needs
  /// the variable's domain base, read through solver_ (standalone stores —
  /// tests recording without a solver — fall back to base 0, which is fine
  /// because nothing ever delivers events to them).
  void push_watch(Lit lit, std::int32_t clause_id);
  PropResult examine(Solver& solver, std::int32_t clause_id);
  /// Prunes every value satisfying `lit` (asserts the negation); the
  /// caller wraps the call in the clause's explicit-reason window.
  [[nodiscard]] PropResult assert_negation(Solver& solver, Lit lit);
  /// Replay-hit LBD refresh: recompute the clause's block LBD from the
  /// current entailment depths of its literals; keep the improvement.
  void refresh_lbd(const Solver& solver, Clause& clause);
  /// Applies one permanent root strengthening; false when it proves UNSAT.
  [[nodiscard]] bool apply_root_unit(Solver& solver, Lit unit,
                                     SolveStats& stats);

  std::vector<VarId> scope_;  ///< identity over all variables
  std::vector<Lit> lits_;
  std::vector<Clause> clauses_;
  /// Per-variable clause-watch lists.  Entries are stale-tolerant (a watch
  /// move appends to the new variable's list without erasing the old
  /// entry); restart_maintenance rebuilds them compactly.
  std::vector<std::vector<WatchRef>> watch_;
  /// Per-variable OR of every WatchRef::miss in watch_[var].  An entailment
  /// transition needs removed domain bits inside some watch's miss mask, so
  /// when (removed & agg_miss_[var]) == 0 the advisor skips the per-watch
  /// scan entirely — the common case for general (any-change) stores, where
  /// most events touch values no watch cares about.  The aggregate only
  /// grows between maintenances (watch moves OR into the new variable
  /// without shrinking the old one), so like the lists themselves it
  /// over-approximates and can only cost scans, never miss a wake;
  /// restart_maintenance rebuilds it compactly alongside the lists.
  std::vector<std::uint64_t> agg_miss_;
  std::vector<std::int32_t> pending_;  ///< clause ids with an entailed watch
  std::vector<Lit> root_units_;        ///< length-1 nogoods awaiting a restart
  std::vector<VarId> conflict_vars_;   ///< last failing clause, for dom/wdeg
  std::vector<std::int32_t> depth_buf_;  ///< refresh_lbd scratch
  std::vector<Lit> ordered_;             ///< record() watch-order scratch
  const Solver* solver_ = nullptr;       ///< bound at attach / maintenance
  std::size_t export_cursor_ = 0;      ///< first clause not yet published
  std::size_t pool_cursor_ = 0;        ///< pool read position
  SolveStats* stats_ = nullptr;        ///< bound by the active solve
  std::int32_t last_recorded_ = -1;    ///< subsumption partner (-1: none)
  std::int64_t live_ = 0;              ///< non-deleted clause count
  std::int32_t max_length_;
  std::int32_t max_lbd_;
  std::int32_t db_limit_;
  bool general_;
};

}  // namespace mgrts::csp
