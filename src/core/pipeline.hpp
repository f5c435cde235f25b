// The solve spine's shared vocabulary and its presolve stages.
//
// Every solve in this repo — single instance, batch, portfolio race — ends
// in one `SolveReport`: the presolve stages (cheap, sound, allowed to
// answer "unknown") run first, in a fixed order, and the requested search
// method (core/solve.hpp) has the final word when none of them decides.
// Stages and the backend are plain functions that fill that one report;
// it records provenance — which stage or backend decided (`decided_by`)
// and each one's wall time — so harness records and benches can report
// how much work presolve absorbs.
//
// Stage contracts (see DESIGN.md §8):
//   * sound — a decisive result (feasible, or infeasible with
//     `complete == true`) must be a proof; "cannot tell" is kUnknown;
//   * gated — a stage is skipped on instance shapes it cannot judge (the
//     analysis and flow-oracle stages are identical-platform arguments);
//   * bounded — stages respect the shared deadline and their node budget;
//     a stage must never be the reason a solve misses its wall budget;
//   * non-throwing for resource pressure — a stage that would exceed a
//     memory budget reports kUnknown and lets the backend decide.
//
// The stage line-up (each individually toggled by PipelineOptions):
//   1. "analysis"      — the exact one-sided bound tests (analysis/tests);
//   2. "flow-oracle"   — exact polynomial decision, identical platforms;
//   3. "csp2-presolve" — a node-budgeted slack/demand-pruned CSP2 probe
//                        (the bench_ablation_csp2_rules extensions promoted
//                        to a first-class stage).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/verdict.hpp"
#include "csp/options.hpp"
#include "rt/platform.hpp"
#include "rt/schedule.hpp"
#include "rt/task_set.hpp"
#include "support/deadline.hpp"

namespace mgrts::core {

/// Which presolve stages run in front of the backend, and their budgets.
struct PipelineOptions {
  /// Exact one-sided analytical tests (utilization, window fit, forced
  /// demand, density).  Near-free; on by default.
  bool analysis = true;
  /// Exact polynomial max-flow decision on identical platforms.  On by
  /// default: it short-circuits search entirely where it applies.
  bool flow_oracle = true;
  /// Node-budgeted dedicated-CSP2 probe with the slack/demand prunes on.
  /// Off by default (redundant in front of a CSP2 backend with the same
  /// prunes); the portfolio and pipeline line-ups enable it.
  bool csp2_presolve = false;
  /// Node budget for the csp2-presolve probe.
  std::int64_t presolve_max_nodes = 20'000;

  /// No presolve at all: the paper-faithful configuration (the §VII
  /// line-ups filter only by r > 1, which the harness applies separately).
  [[nodiscard]] static PipelineOptions none() {
    PipelineOptions options;
    options.analysis = false;
    options.flow_oracle = false;
    options.csp2_presolve = false;
    return options;
  }
  /// Every stage on — the full presolve chain.
  [[nodiscard]] static PipelineOptions full() {
    PipelineOptions options;
    options.csp2_presolve = true;
    return options;
  }
};

/// Nogood-learning statistics of a generic-engine backend run (zeros when
/// the method does not record nogoods).  Mirrors csp::SolveStats' nogood
/// counters so provenance reports and the bench ledger can track learning
/// quality without reaching into the engine.
struct NogoodStats {
  std::int64_t recorded = 0;     ///< nogoods stored (incl. root units)
  std::int64_t replay_hits = 0;  ///< unit removals + clause conflicts
  /// Literal totals over recorded nogoods: raw decision-set length vs the
  /// length stored after conflict-analysis shrinking.
  std::int64_t lits_before = 0;
  std::int64_t lits_after = 0;
  /// On-the-fly subsumptions (a recording replaced or was absorbed by its
  /// predecessor) and replay-hit block-LBD refreshes.
  std::int64_t subsumed = 0;
  std::int64_t lbd_refreshed = 0;
  /// Non-chronological backjumps taken (csp::SearchOptions::backjump), the
  /// total decision levels they skipped beyond the chronological single
  /// level, and the literals removed by recursive self-subsumption
  /// minimization (DESIGN.md §15).
  std::int64_t backjumps = 0;
  std::int64_t backjump_levels_saved = 0;
  std::int64_t lits_minimized = 0;

  /// Average recorded length over average decision-set length; 1.0 when
  /// nothing was recorded (or shrinking is off and nothing was dropped).
  [[nodiscard]] double shrink_ratio() const noexcept {
    return lits_before > 0 ? static_cast<double>(lits_after) /
                                 static_cast<double>(lits_before)
                           : 1.0;
  }

  /// Adds every counter of `other` (kNogoodCounters).
  NogoodStats& operator+=(const NogoodStats& other) noexcept;

  bool operator==(const NogoodStats&) const = default;
};

/// Every NogoodStats counter, in the order the shard wire's `ng` line
/// carries them.  A new counter goes into the struct and into this list.
inline constexpr std::int64_t NogoodStats::*kNogoodCounters[] = {
    &NogoodStats::recorded,      &NogoodStats::replay_hits,
    &NogoodStats::lits_before,   &NogoodStats::lits_after,
    &NogoodStats::subsumed,      &NogoodStats::lbd_refreshed,
    &NogoodStats::backjumps,     &NogoodStats::backjump_levels_saved,
    &NogoodStats::lits_minimized};

inline NogoodStats& NogoodStats::operator+=(const NogoodStats& other) noexcept {
  for (const auto counter : kNogoodCounters) this->*counter += other.*counter;
  return *this;
}

/// One line of pipeline provenance: stage (or backend) name, its verdict,
/// and its wall time.
struct StageTiming {
  std::string stage;
  Verdict verdict = Verdict::kUnknown;
  double seconds = 0.0;
};

/// What a solve found — and, while the spine runs, what one stage or the
/// backend found.  A fresh report says kUnknown: nothing is settled until
/// a stage or the backend writes a verdict.
struct SolveReport {
  Verdict verdict = Verdict::kUnknown;
  std::optional<rt::Schedule> schedule;  ///< present iff a witness exists

  /// The constrained-deadline system the schedule refers to (differs from
  /// the input when clones were expanded).
  std::optional<rt::TaskSet> solved_tasks;

  /// True when the witness passed the independent validator (always true
  /// for witness-backed kFeasible results; a false one is a solver bug,
  /// flagged in `detail`).
  /// Analytical stages can prove feasibility without constructing a
  /// witness (detail says which test); schedule is then absent.
  bool witness_valid = false;

  /// For kInfeasible: whether the verdict is a proof.  False for the EDF
  /// baseline and for rule-1 CSP2 searches on heterogeneous platforms
  /// (csp2.hpp header discussion).
  bool complete = true;

  /// Why a non-decisive verdict happened (DESIGN.md §12): kDeadline /
  /// kCancelled / kMemory / kNodeBudget for budget outcomes, kInternalError
  /// or kFaultInjected for contained exceptions.  kNone for decisive
  /// answers and plain incomplete give-ups.
  FailureCause cause = FailureCause::kNone;

  /// Provenance: which pipeline stage or backend produced the verdict —
  /// "analysis:<test>", "flow-oracle", "csp2-presolve",
  /// "backend:<method>", or "portfolio:<lane>".  A stage or backend that
  /// leaves it empty is named after itself.
  std::string decided_by;
  /// Stages (and the backend) in execution order, with verdict and wall
  /// time each.
  std::vector<StageTiming> stage_times;

  double seconds = 0.0;
  std::int64_t nodes = 0;
  std::int64_t failures = 0;
  /// Nogood-learning stats of the deciding backend (zeros unless a
  /// generic-engine method with SearchOptions::nogoods ran).
  NogoodStats nogoods;
  /// Per-propagator wake/run/prune rows of the deciding backend (empty
  /// unless a generic-engine method ran; seconds only under
  /// SearchOptions::prop_profile).
  std::vector<csp::PropagatorProfile> propagators;
  std::string detail;  ///< human-readable note (e.g. memory-limit reason)
};

/// Runs the stages `options` enables, in line-up order, over a constrained
/// system.  Each runs behind the stage funnel (DESIGN.md §12): a throwing
/// stage counts as kUnknown and the next one runs.  Every stage that ran
/// appends its timing to `report.stage_times`; the first decisive one ends
/// the chain, its answer becomes `report`, and the call returns true.  An
/// expired deadline skips the remaining stages.
[[nodiscard]] bool run_stages(const rt::TaskSet& ts,
                              const rt::Platform& platform,
                              const PipelineOptions& options,
                              const support::Deadline& deadline,
                              SolveReport& report);

/// The flow-oracle stage on its own (identical platforms, constrained
/// deadlines): a canonical witness or an infeasibility proof.  kUnknown
/// with kDeadline or kCancelled once `deadline` stops it (flow/oracle.hpp
/// says where it is asked); kUnknown with kMemory (kFaultInjected for an
/// injected fault) when the oracle's size guard refuses the network and
/// the density test cannot stand in.
[[nodiscard]] SolveReport flow_oracle_stage(const rt::TaskSet& ts,
                                            const rt::Platform& platform,
                                            const support::Deadline& deadline);

}  // namespace mgrts::core
