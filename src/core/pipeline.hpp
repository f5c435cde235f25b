// The staged solve pipeline: presolve stages in front of a search backend.
//
// Every solve in this repo — single instance, batch, portfolio race — runs
// through one `Pipeline`: an ordered list of `Stage`s (cheap, sound,
// allowed to answer "unknown") followed by exactly one `Backend` (the
// requested search method, which always produces the final word when no
// stage short-circuits).  The pipeline records provenance: which stage or
// backend decided (`decided_by`) and per-stage wall times, so harness
// records and benches can report how much work presolve absorbs.
//
// Stage contracts (see DESIGN.md §8):
//   * sound — a decisive result (feasible, or infeasible with
//     `complete == true`) must be a proof; "cannot tell" is kUnknown;
//   * gated — `applicable()` rejects instance shapes the stage cannot
//     judge (e.g. the flow oracle on heterogeneous platforms) so the
//     pipeline composes over every workload without special-casing;
//   * bounded — stages respect the shared deadline and their node budget;
//     a stage must never be the reason a solve misses its wall budget;
//   * non-throwing for resource pressure — a stage that would exceed a
//     memory budget reports kUnknown and lets the backend decide.
//
// Built-in stage line-up (each individually toggled by PipelineOptions):
//   1. "analysis"      — the exact one-sided bound tests (analysis/tests);
//   2. "flow-oracle"   — exact polynomial decision, identical platforms;
//   3. "csp2-presolve" — a node-budgeted slack/demand-pruned CSP2 probe
//                        (the bench_ablation_csp2_rules extensions promoted
//                        to a first-class stage).
#pragma once

#include <cstdint>
#include <memory>
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

struct SolveConfig;  // core/solve.hpp

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

/// Budgets handed to a running stage.
struct StageContext {
  support::Deadline deadline;
  std::int64_t presolve_max_nodes = 20'000;
};

/// Nogood-learning statistics of a generic-engine backend run (zeros when
/// the method does not record nogoods).  Mirrors csp::SolveStats' nogood
/// counters so provenance reports and the bench ledger can track learning
/// quality without reaching into the engine.
struct NogoodStats {
  std::int64_t recorded = 0;     ///< nogoods stored (incl. root units)
  std::int64_t imported = 0;     ///< adopted from a shared pool
  std::int64_t exported = 0;     ///< published to a shared pool
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

  bool operator==(const NogoodStats&) const = default;
};

/// What a stage (or backend) found.  Stages leave `verdict` at kUnknown to
/// pass the instance on; backends report whatever their search produced.
struct StageResult {
  Verdict verdict = Verdict::kUnknown;
  /// Whether a kInfeasible verdict is an exhaustive proof.
  bool complete = true;
  /// Why a non-decisive verdict happened (kNone for decisive answers and
  /// plain presolve hand-offs).
  FailureCause cause = FailureCause::kNone;
  std::optional<rt::Schedule> schedule;  ///< witness, when one exists
  /// Refined provenance label (e.g. "analysis:utilization"); empty means
  /// "use the stage's name".
  std::string decided_by;
  std::string detail;
  std::int64_t nodes = 0;
  std::int64_t failures = 0;
  NogoodStats nogoods;  ///< generic-engine backends only; zeros elsewhere
  /// Per-propagator wake/run/prune rows, sorted by class name
  /// (generic-engine backends only; empty elsewhere).
  std::vector<csp::PropagatorProfile> propagators;

  [[nodiscard]] bool decisive() const noexcept {
    return core::decisive(verdict, complete);
  }
};

/// A presolve stage: cheap, sound, may answer kUnknown.
class Stage {
 public:
  virtual ~Stage() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  /// Structural gate: false when the stage cannot judge this instance
  /// shape at all (it is then skipped silently).
  [[nodiscard]] virtual bool applicable(const rt::TaskSet& ts,
                                        const rt::Platform& platform) const = 0;
  [[nodiscard]] virtual StageResult run(const rt::TaskSet& ts,
                                        const rt::Platform& platform,
                                        const StageContext& context) const = 0;
};

/// The terminal search method: runs when no stage decided, and its result —
/// decided or not — is the pipeline's result.
class Backend {
 public:
  virtual ~Backend() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual StageResult run(const rt::TaskSet& ts,
                                        const rt::Platform& platform,
                                        const SolveConfig& config,
                                        const support::Deadline& deadline)
      const = 0;
};

/// One line of pipeline provenance: stage (or backend) name, its verdict,
/// and its wall time.
struct StageTiming {
  std::string stage;
  Verdict verdict = Verdict::kUnknown;
  double seconds = 0.0;
};

struct PipelineOutcome {
  StageResult result;
  /// Who produced `result`: a stage name ("analysis:utilization",
  /// "flow-oracle", "csp2-presolve") or "backend:<method>".
  std::string decided_by;
  std::vector<StageTiming> stages;  ///< execution order, timed

  /// Same semantics as exp::RunRecord::decided_by_presolve: a decisive
  /// answer from a stage, not from the backend or a portfolio lane.
  [[nodiscard]] bool decided_by_presolve() const {
    return result.decisive() && decided_by.rfind("backend:", 0) != 0 &&
           decided_by.rfind("portfolio:", 0) != 0;
  }
};

/// An ordered stage list plus (optionally) a backend.
class Pipeline {
 public:
  Pipeline() = default;
  explicit Pipeline(PipelineOptions options) : options_(options) {}

  Pipeline& add(std::unique_ptr<Stage> stage);
  Pipeline& set_backend(std::unique_ptr<Backend> backend);

  /// Runs the stages in order; stops at the first decisive result.  Skips
  /// stages that are inapplicable or whose deadline already expired.
  [[nodiscard]] PipelineOutcome run_stages(const rt::TaskSet& ts,
                                           const rt::Platform& platform,
                                           const support::Deadline& deadline)
      const;

  /// run_stages, then the backend when no stage decided.  Requires a
  /// backend.
  [[nodiscard]] PipelineOutcome run(const rt::TaskSet& ts,
                                    const rt::Platform& platform,
                                    const SolveConfig& config,
                                    const support::Deadline& deadline) const;

 private:
  PipelineOptions options_;
  std::vector<std::unique_ptr<Stage>> stages_;
  std::unique_ptr<Backend> backend_;
};

// Built-in stages (pipeline.cpp).
//
// `necessary_only` restricts the analysis stage to the infeasible
// direction; make_pipeline sets it whenever the flow oracle follows, so
// feasible instances get decided one stage later *with* a constructed
// witness instead of a witness-less density proof.
[[nodiscard]] std::unique_ptr<Stage> make_analysis_stage(
    bool necessary_only = false);
[[nodiscard]] std::unique_ptr<Stage> make_flow_oracle_stage();
[[nodiscard]] std::unique_ptr<Stage> make_csp2_presolve_stage();

/// The standard presolve chain selected by `options` (no backend attached).
[[nodiscard]] Pipeline make_pipeline(const PipelineOptions& options);

}  // namespace mgrts::core
