// Search configuration, limits, and result types of the generic solver.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "csp/domain.hpp"
#include "support/deadline.hpp"

namespace mgrts::csp {

/// Variable selection strategies.
enum class VarHeuristic {
  kLex,        ///< first unfixed variable in declaration order
  kMinDomain,  ///< smallest current domain, ties by declaration order
  kDomWdeg,    ///< dom/wdeg (Boussemart et al.), the "modern default"
};

/// How the kMinDomain/kDomWdeg winner is located.  kScan is the O(unfixed)
/// reference loop; kHeap is a position-indexed binary heap with one node
/// per variable, whose stored keys absorb the key improvements (narrowings,
/// wdeg bumps, re-entries into the unfixed set) at the next selection
/// (DESIGN.md §7).  Both modes pick the same variable under deterministic
/// tie-breaking, and under random_var_ties both draw once from the same
/// tie set sorted by id, so they explore bit-identical trees either way
/// (the differential tests in csp_engine_test pin this).
enum class SelectionMode {
  kHeap,  ///< indexed binary heap (the fast path)
  kScan,  ///< full scan of the unfixed set (reference)
};

/// Value selection strategies.
enum class ValHeuristic {
  kMin,     ///< ascending values
  kMax,     ///< descending values
  kRandom,  ///< random order per decision (Choco-like randomized search)
};

/// Restart schedules (restarting only makes sense with some randomization,
/// otherwise the search repeats itself).
enum class RestartPolicy {
  kNone,
  kLuby,  ///< Luby sequence scaled by `restart_scale` failures
};

/// How propagators compute their prunings.  kIncremental and kScratch use
/// the same wake events and reach the same fixpoints, so they explore the
/// identical tree; kScratch is the reference for differential testing.
enum class PropagationMode {
  kIncremental,  ///< trailed counters / pending lists (the fast path)
  kScratch,      ///< recompute every propagator from its full scope
};

/// What conflict analysis records when shrinking is on (DESIGN.md §10–11).
/// Both modes need the reason trail; with `nogood_shrink` off the raw
/// decision set records regardless of this knob.
enum class NogoodLearn {
  /// The PR-4 baseline: keep the decisions the conflict is reachable from.
  kDecisionSet,
  /// True 1-UIP: resolve the conflict level to its first unique implication
  /// point and record the implied-literal frontier (==/!=/<=/>= literals).
  /// Per conflict the clause is never longer than the decision set; falls
  /// back to kDecisionSet when the walk meets an untracked entry.
  kUip1,
};

struct SearchOptions {
  VarHeuristic var_heuristic = VarHeuristic::kDomWdeg;
  ValHeuristic val_heuristic = ValHeuristic::kMin;
  PropagationMode propagation = PropagationMode::kIncremental;
  SelectionMode selection = SelectionMode::kHeap;
  RestartPolicy restart = RestartPolicy::kNone;
  std::int64_t restart_scale = 100;  ///< base failure budget between restarts
  bool random_var_ties = false;      ///< break heuristic ties randomly
  std::uint64_t seed = 1;            ///< stream for all randomized choices
  std::int64_t max_nodes = -1;       ///< -1 = unlimited
  support::Deadline deadline;        ///< default: unlimited

  // ---- nogood recording (DESIGN.md §6, §10) ---------------------------
  /// Record the decision-set nogood at every conflict and replay the
  /// database as 2-watched-literal constraints.  Nogoods survive restarts,
  /// so this mainly pays off combined with RestartPolicy::kLuby.  The
  /// database keeps at most kNogoodDbLimit clauses (csp/nogoods.hpp).
  bool nogoods = false;
  /// Minimize nogoods by conflict analysis before recording (DESIGN.md
  /// §10): the solver tracks a reason per trail entry and keeps only the
  /// decisions reachable from the failing propagator's scope through the
  /// implication trail.  Also enables recording at conflicts deeper than
  /// `nogood_max_length` whenever the *minimized* clause fits the cut.
  bool nogood_shrink = true;
  /// Clause form recorded by conflict analysis: true 1-UIP literal
  /// frontiers (the default) or the decision-set baseline (the
  /// differential reference; also what bench_micro's residue race pits the
  /// default against).  Ignored while `nogood_shrink` is off.
  NogoodLearn nogood_learn = NogoodLearn::kUip1;
  /// Conflicts whose recorded clause would exceed this record nothing
  /// (long nogoods barely prune).  With shrinking on the cut applies to
  /// the minimized length, not the raw decision-set length.
  std::int32_t nogood_max_length = 24;

  /// Non-chronological backjumping (DESIGN.md §15): when 1-UIP analysis
  /// yields an asserting clause, unwind the trail straight to its assertion
  /// level (the second-highest decision depth among its literals) and
  /// assert the negated UIP literal there with the clause as its reason —
  /// learned clauses drive search instead of merely pruning it.  Conflicts
  /// whose analysis fails (or whose clause still pins the conflict level)
  /// fall back to the chronological retry.  Only active under kUip1
  /// learning with shrinking on; turning it off restores the pure
  /// chronological search, which stays the differential baseline.
  bool backjump = true;

  /// Recursive self-subsumption minimization (DESIGN.md §15): after the
  /// 1-UIP walk, resolve away clause literals whose reasons are already
  /// covered by the remaining literals (Sörensson-style, depth-bounded by
  /// the trail).  Deepens the shrink ratio at a small analysis cost; the
  /// minimized clause is never longer than the unminimized one.
  bool nogood_minimize = true;

  /// Build the reason trail even when nogood recording is off.  Testing /
  /// diagnostics hook: the determinism tests use it to prove the trail
  /// build is a pure observer (bit-identical trees with it on or off).
  bool force_reason_trail = false;

  /// Wall-time profiling: per propagator (SolveStats::propagators.seconds)
  /// and per search phase (SolveStats::phases).  The wake/run/prune
  /// counters are always on (plain array increments); the clock reads
  /// around every propagator run and at every phase switch are not, so
  /// they hide behind this flag.  Off by default — profiling must not tax
  /// the throughput ledger.
  bool prop_profile = false;
};

enum class SolveStatus {
  kSat,         ///< a complete consistent assignment was found
  kUnsat,       ///< search space exhausted, no solution exists
  kTimeout,     ///< wall-clock deadline hit (paper's "overrun")
  kNodeLimit,   ///< node budget hit
  kMemoryLimit, ///< the model exceeded its variable budget at build time
};

[[nodiscard]] constexpr bool decided(SolveStatus s) noexcept {
  return s == SolveStatus::kSat || s == SolveStatus::kUnsat;
}

/// Per-propagator-class observability row, aggregated over a solve by
/// Propagator::name(): how often the class's advisors asked to run
/// (wakes), how often it actually swept (runs), how many domain changes
/// its sweeps produced (prunes), and — only under
/// SearchOptions::prop_profile — the wall time spent inside its sweeps.
struct PropagatorProfile {
  std::string name;
  std::int64_t wakes = 0;
  std::int64_t runs = 0;
  std::int64_t prunes = 0;
  double seconds = 0.0;
};

/// Wall time per phase of the search loop, filled only under
/// SearchOptions::prop_profile (all zero otherwise).  Every interval of the
/// loop is charged to exactly one phase, so the phases never sum past
/// SolveStats::seconds; the remainder is model freezing, root propagation
/// and result assembly.
struct SearchPhases {
  double select = 0.0;     ///< variable and value selection
  double propagate = 0.0;  ///< a decision's fix and its propagation
  /// Conflict analysis: wdeg bumps, the 1-UIP or decision-set walk and
  /// the clause build, minimization excluded.
  double analyze = 0.0;
  double minimize = 0.0;  ///< recursive self-subsumption of the frontier
  /// Unwinding after a conflict, clause recording, and the backjump
  /// assertion loop (its re-propagation included, its analyses not).
  double backjump = 0.0;
  /// Restart rewinds and nogood-database maintenance.
  double restart = 0.0;

  [[nodiscard]] double total() const noexcept {
    return select + propagate + analyze + minimize + backjump + restart;
  }
};

struct SolveStats {
  std::int64_t nodes = 0;         ///< decision nodes explored
  std::int64_t failures = 0;      ///< dead ends (conflicts)
  std::int64_t propagations = 0;  ///< propagator executions
  std::int64_t events = 0;        ///< domain-change events delivered to watchers
  std::int64_t restarts = 0;
  std::int64_t max_depth = 0;
  std::int64_t nogoods_recorded = 0;  ///< decision-set nogoods stored
  std::int64_t nogood_props = 0;      ///< unit removals by the nogood store
  std::int64_t nogood_conflicts = 0;  ///< conflicts detected by the store
  /// Literal totals over recorded nogoods: the raw decision-set length and
  /// the length actually stored after conflict-analysis shrinking (equal
  /// when shrinking is off); after/before is the shrink ratio.
  std::int64_t nogood_lits_before = 0;
  std::int64_t nogood_lits_after = 0;
  /// On-the-fly subsumption events: a fresh clause replaced (or was
  /// absorbed by) the previously recorded one.
  std::int64_t nogoods_subsumed = 0;
  /// Replay-hit LBD refreshes: a firing clause recomputed its block LBD
  /// from current depths and improved it (possibly into the core tier).
  std::int64_t nogood_lbd_refreshed = 0;
  /// Non-chronological backjumps taken (SearchOptions::backjump) and the
  /// total decision levels skipped by them (levels_saved / backjumps is the
  /// mean jump distance beyond the chronological single level).
  std::int64_t backjumps = 0;
  std::int64_t backjump_levels_saved = 0;
  /// Literals removed by recursive self-subsumption minimization
  /// (SearchOptions::nogood_minimize), summed over recorded clauses.
  std::int64_t nogood_lits_minimized = 0;
  /// Per-propagator-class wake/run/prune rows (seconds only when
  /// SearchOptions::prop_profile is set), sorted by name.
  std::vector<PropagatorProfile> propagators;
  SearchPhases phases;  ///< only under SearchOptions::prop_profile
  double seconds = 0.0;
};

struct SolveOutcome {
  SolveStatus status = SolveStatus::kUnsat;
  /// Value per variable, valid iff status == kSat.
  std::vector<Value> assignment;
  SolveStats stats;
};

}  // namespace mgrts::csp
