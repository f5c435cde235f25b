// Batch experiment harness: run a line-up of solvers over a stream of
// random instances and record verdicts/timings, reproducing the paper's
// §VII methodology (every solver sees every instance; runs are independent;
// a wall-clock limit turns long runs into "overruns").
//
// Parallelism: the harness fans the (instance, solver) runs out over a
// thread pool; each run itself stays single-threaded and deterministic,
// mirroring the paper's one-core-per-run setup.  Verdicts under a time
// limit are inherently timing-sensitive (true of the paper's 30 s budget as
// well); fix MGRTS_WORKERS=1 for maximum run-to-run stability.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/solve.hpp"
#include "gen/generator.hpp"
#include "rt/task_set.hpp"

namespace mgrts::exp {

struct SolverSpec {
  std::string label;
  core::SolveConfig config;
};

/// The six solvers of Tables I-III: CSP1 on the generic engine with a
/// randomized Choco-like strategy, and the dedicated CSP2 solver with the
/// plain/RM/DM/(T-C)/(D-C) value orders.
[[nodiscard]] std::vector<SolverSpec> paper_lineup(
    std::int64_t time_limit_ms, std::uint64_t seed,
    csp::SolverLimits limits = {});

/// A single line-up entry for the dedicated CSP2 solver.  `paper_faithful`
/// configures the solver exactly as §V-C describes it — chronological
/// backtracking, value-order heuristic, rules 1 and 2, window-closure
/// checks, and nothing else.  Passing false additionally enables this
/// repo's slack/demand pruning extensions (see bench_ablation_csp2_rules
/// for their effect).
[[nodiscard]] SolverSpec csp2_spec(csp2::ValueOrder order,
                                   std::int64_t time_limit_ms,
                                   bool paper_faithful = true);

/// A line-up entry racing the diversified lane line-up through
/// core::solve_portfolio.  The dedicated value-order lanes match
/// csp2_spec's paper-faithful configuration, so "portfolio vs. the single
/// best fixed order" is a like-for-like comparison inside one batch.
/// `presolve` runs the full pipeline stages (analysis, flow oracle,
/// csp2-presolve) before lanes launch and relabels the spec
/// "CSP2-pipeline"; `diverse_lanes` adds the slack/demand-pruned CSP2 and
/// min-conflicts lanes.  Defaults give the full diversified pipeline
/// portfolio; portfolio_spec(ms, n, false, false) is PR 2's raw four-order
/// race.
[[nodiscard]] SolverSpec portfolio_spec(std::int64_t time_limit_ms,
                                        std::int32_t random_lanes = 1,
                                        bool presolve = true,
                                        bool diverse_lanes = true);

/// A line-up entry for the staged pipeline with the CSP2+(D-C) backend:
/// every presolve stage on, then the dedicated search for the residue.
[[nodiscard]] SolverSpec pipeline_spec(std::int64_t time_limit_ms);

/// A probe entry that is "all presolve": the selected pipeline stages in
/// front of a one-node CSP2 backend, so a run decides essentially iff a
/// stage absorbs the instance.  `flow_oracle=false` models the regimes
/// where the polynomial oracle is unavailable (heterogeneous platforms,
/// memory-guarded hyperperiods) and a genuine search residue exists;
/// `presolve_max_nodes` budgets the csp2-presolve stage.
[[nodiscard]] SolverSpec presolve_probe_spec(
    std::int64_t time_limit_ms, bool flow_oracle = true,
    std::int64_t presolve_max_nodes = 20'000);

// ------------------------------------------------------- spec registry
//
// Stable wire names for the line-up entries above, so a remote shard
// request (serve/shard.hpp) can name its solver line-up without
// serializing a SolveConfig: a name plus (time limit, seed) fully
// determines the spec on any build of this repo, which is exactly the
// determinism contract distributed merge relies on.

/// Every name spec_from_name resolves, in a stable order.
[[nodiscard]] std::vector<std::string> known_spec_names();

/// Resolves a registry name ("csp1", "csp2-dmc", "csp2-dmc-pruned",
/// "csp2g-learn", "pipeline", "portfolio", "portfolio-raw",
/// "presolve-probe", "presolve-probe-noflow", ...) into the same spec the
/// local constructors build.  nullopt for unknown names — callers must
/// refuse, not guess.
[[nodiscard]] std::optional<SolverSpec> spec_from_name(
    const std::string& name, std::int64_t time_limit_ms,
    std::uint64_t seed = 20090911);

struct RunRecord {
  core::Verdict verdict = core::Verdict::kInfeasible;
  double seconds = 0.0;
  bool witness_ok = false;
  bool complete = true;
  std::int64_t nodes = 0;
  /// Pipeline provenance: the stage or backend that produced the verdict
  /// (SolveReport::decided_by).
  std::string decided_by;
  /// Failure taxonomy (SolveReport::cause): why an overrun run stopped
  /// short — deadline, cancellation, memory, node budget, an internal
  /// error, or an injected fault.  kNone for decided runs.
  core::FailureCause failure_cause = core::FailureCause::kNone;
  /// Nogood-learning stats of the run (SolveReport::nogoods; zeros unless
  /// a generic-engine method recorded), including subsumption/LBD-refresh
  /// and backjump events for NogoodLearn::kUip1 runs.
  core::NogoodStats nogoods;
  /// Per-propagator wake/run/prune rows of the run (SolveReport::
  /// propagators; empty unless a generic-engine backend searched).
  std::vector<csp::PropagatorProfile> propagators;

  /// The paper's "overrun": the run did not decide within its budget.
  [[nodiscard]] bool overrun() const noexcept {
    return verdict == core::Verdict::kTimeout ||
           verdict == core::Verdict::kNodeLimit ||
           verdict == core::Verdict::kMemoryLimit ||
           verdict == core::Verdict::kUnknown;
  }

  /// Decided before the search backend ran (a presolve stage answered).
  [[nodiscard]] bool decided_by_presolve() const noexcept {
    return !overrun() && !decided_by.empty() &&
           decided_by.rfind("backend:", 0) != 0 &&
           decided_by.rfind("portfolio:", 0) != 0;
  }
  [[nodiscard]] bool found_schedule() const noexcept {
    return verdict == core::Verdict::kFeasible;
  }
  /// Proved infeasibility (Table II's "provably unsolvable").
  [[nodiscard]] bool proved_infeasible() const noexcept {
    return verdict == core::Verdict::kInfeasible && complete;
  }
};

/// The one sanctioned SolveReport -> RunRecord projection, shared by the
/// in-process harness (run_batch) and the distributed shard executor
/// (dist::execute_shard) so both paths produce bytewise-identical records
/// from the same report.
[[nodiscard]] RunRecord record_from_report(core::SolveReport report);

/// The per-generator-index seed perturbation run_batch applies before a
/// run: randomized generic searches (and local-search restarts) get a
/// per-instance stream, like independent Choco invocations (§VII-B).
/// Keyed by the generator index, so a residue or shard run replays the
/// exact seeds of the full-stream run.  Exposed so the shard executor is
/// seed-identical by construction rather than by copy-paste.
void reseed_for_index(core::SolveConfig& config, std::uint64_t index);

struct InstanceRecord {
  /// Generator-stream index this instance was drawn from (== its position
  /// in the batch unless BatchOptions::indices reshaped the stream).
  std::uint64_t index = 0;
  std::int32_t tasks = 0;
  std::int32_t processors = 0;
  rt::Time hyperperiod = 0;
  double ratio = 0.0;            ///< r = U / m
  bool exceeds_capacity = false; ///< exact r > 1 (the §VII-C filter)
  std::vector<RunRecord> runs;   ///< parallel to the solver line-up

  /// "Solved" in the paper's Table I sense: some solver found a schedule.
  [[nodiscard]] bool solved_by_any() const noexcept {
    for (const auto& run : runs) {
      if (run.found_schedule()) return true;
    }
    return false;
  }
  [[nodiscard]] bool proved_unsolvable_by_any() const noexcept {
    for (const auto& run : runs) {
      if (run.proved_infeasible()) return true;
    }
    return false;
  }
};

struct BatchResult {
  std::vector<std::string> labels;
  std::vector<InstanceRecord> instances;
  /// Aggregate containment accounting over every (instance, solver) run:
  /// `failures` counts runs whose exception was contained into a kUnknown
  /// record (their RunRecord::failure_cause says why), `first_error` keeps
  /// the first such message.  The harness runs each pair exactly once, so
  /// retries/recovered stay 0 here (core::solve_batch is the retrying
  /// path); quarantined mirrors failures so the two surfaces read alike.
  core::BatchHealth health;
};

/// One-line human summary of a BatchHealth block, shared by the bench
/// executables' stdout and the quickstart ("health: clean" when nothing
/// was contained).
[[nodiscard]] std::string health_summary(const core::BatchHealth& health);

struct BatchOptions {
  gen::GeneratorOptions generator;
  std::int64_t instances = 100;
  std::uint64_t seed = 42;
  std::size_t workers = 0;  ///< 0 = hardware concurrency
  /// Explicit generator-stream indices.  Empty means 0..instances-1; when
  /// set it overrides `instances` and the batch runs exactly these draws.
  /// The generator is index-addressable, so an index list is a complete,
  /// machine-independent description of an instance subset — residue sets,
  /// failure reproductions, and (next step) cross-machine shards are all
  /// just index lists.
  std::vector<std::uint64_t> indices;
};

/// Generates the instance stream (reproducible from the seed, independent
/// of worker count) and runs every spec on every instance.
[[nodiscard]] BatchResult run_batch(const BatchOptions& options,
                                    const std::vector<SolverSpec>& specs);

/// An index-addressable instance filter over run_batch: the batch options
/// restricted to the generator indices a probe left undecided.
struct ResidueSpec {
  /// The source options with `indices` set to the residue (feed straight
  /// back into run_batch).  Caveat: empty `indices` is run_batch's
  /// "full stream" sentinel — check indices().empty() before running a
  /// batch that must mean "nothing survived".
  BatchOptions batch;
  std::int64_t probed = 0;    ///< instances examined
  std::int64_t absorbed = 0;  ///< decided by the probe (not residue)

  [[nodiscard]] const std::vector<std::uint64_t>& indices() const noexcept {
    return batch.indices;
  }
};

/// Runs `probe` over the stream described by `options` and keeps the
/// indices it leaves undecided — the *pipeline residue* when the probe is
/// presolve_probe_spec.  Reproducible: same options + probe give the same
/// index set on any machine that reaches the same verdicts (probe budgets
/// are wall-clock-free only if the probe's stages are; keep probe time
/// limits generous enough that verdicts are budget-insensitive).
[[nodiscard]] ResidueSpec residue_spec(const BatchOptions& options,
                                       const SolverSpec& probe);

}  // namespace mgrts::exp
