// Public facade: solve one MGRTS instance with a chosen method, through
// the staged presolve->backend pipeline (core/pipeline.hpp).
//
// Backends (Method):
//   kCsp1Generic    — the paper's CSP1 route: boolean encoding (§IV) handed
//                     to the generic engine (src/csp) with a randomized
//                     Choco-like default strategy;
//   kCsp2Generic    — CSP2's multi-valued encoding (§V) on the generic
//                     engine (ablation: encoding vs. dedicated search);
//   kCsp2Dedicated  — the paper's CSP2 solver with hand-made search (§V-C);
//   kFlowOracle     — exact polynomial feasibility via max-flow (identical
//                     platforms; this repo's ground-truth baseline);
//   kLocalSearch    — min-conflicts over the CSP formalization (§VIII's
//                     first future-work bullet; finds witnesses, proves
//                     nothing — kUnknown when it gives up);
//   kEdfSimulation  — global EDF baseline (incomplete: a deadline miss does
//                     not prove infeasibility).
//
// Every method runs behind the presolve stages selected by
// `SolveConfig::pipeline` (exact analytical tests and the flow oracle by
// default), so cheap proofs short-circuit search uniformly;
// `SolveReport::decided_by` records which stage or backend answered.
// `PipelineOptions::none()` restores the paper-faithful direct-method
// behavior (exp::paper_lineup uses it).
//
// Arbitrary-deadline task sets are clone-expanded (§VI-B) transparently;
// the report then carries the constrained clone system the schedule refers
// to.  All feasible witnesses are re-checked by the independent validator
// unless `validate_witness` is disabled.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/verdict.hpp"
#include "csp/options.hpp"
#include "csp2/csp2.hpp"
#include "encodings/csp2_generic.hpp"
#include "localsearch/min_conflicts.hpp"
#include "rt/platform.hpp"
#include "rt/schedule.hpp"
#include "rt/task_set.hpp"

namespace mgrts::core {

enum class Method {
  kCsp1Generic,
  kCsp2Generic,
  kCsp2Dedicated,
  kFlowOracle,
  kEdfSimulation,
  kLocalSearch,  ///< min-conflicts (feasible-only; kUnknown when it gives up)
  kPortfolio,    ///< race diversified lanes (below) behind shared presolve
};

[[nodiscard]] const char* to_string(Method method);

/// Lane line-up knobs for Method::kPortfolio / solve_portfolio.
struct PortfolioConfig {
  /// Randomized generic-engine lanes (CSP2-generic encoding, Choco-like
  /// strategy, Luby restarts, nogood recording) raced alongside the four
  /// dedicated value-order lanes.  0 disables them — right for workloads
  /// whose m*T variable counts price the generic encoding out (Table IV).
  std::int32_t random_lanes = 1;
  /// Randomized lanes publish/import nogoods through one shared pool.
  bool share_nogoods = true;
  /// Configure the dedicated lanes exactly as §V-C describes them (no
  /// slack/demand pruning extensions), like exp::csp2_spec.
  bool paper_faithful = true;
  /// Anticorrelated extra lane: CSP2+(D-C) with the slack/demand prunes ON
  /// — converts many of the paper-faithful lanes' shared timeouts into
  /// infeasibility proofs (see bench_ablation_csp2_rules).
  bool pruned_lane = true;
  /// Anticorrelated extra lane: min-conflicts local search — finds feasible
  /// witnesses where tree search thrashes (identical platforms only; the
  /// lane is skipped elsewhere).
  bool local_search_lane = true;
  /// Variable budget for the randomized generic lanes; keeps a lane from
  /// burning the whole race budget building a model it cannot search.
  std::int64_t random_lane_max_variables = 250'000;
  /// Thread fan-out for the race; 0 = one thread per lane (deliberate
  /// oversubscription: lanes share wall-clock deadlines, so racing works
  /// even on a single hardware thread).
  std::size_t workers = 0;
  /// Progress-heartbeat watchdog: a lane that has started searching but
  /// whose heartbeat (ticked at every deadline poll) stands still for this
  /// long is cancelled through its per-lane token, so the race continues
  /// with the survivors.  0 disables the watchdog.  The default is generous
  /// — normal lanes poll every few thousand nodes, so only a genuinely
  /// wedged lane (or an injected kStall fault) trips it.
  std::int64_t watchdog_stall_ms = 1'000;
};

struct SolveConfig {
  Method method = Method::kCsp2Dedicated;

  /// Wall-clock budget for build + search; -1 = unlimited.
  std::int64_t time_limit_ms = -1;
  /// Node budget for the searching methods; -1 = unlimited.
  std::int64_t max_nodes = -1;

  /// Presolve stages run in front of the backend (short-circuit on any
  /// decisive answer).  Default: analysis + flow oracle.
  PipelineOptions pipeline;

  /// Knobs for kCsp2Dedicated (deadline/max_nodes fields are overridden by
  /// the budgets above).
  csp2::Options csp2;
  /// Knobs for the generic engine (kCsp1Generic / kCsp2Generic).
  csp::SearchOptions generic;
  /// Encoding options for kCsp2Generic.
  enc::Csp2GenericOptions csp2_generic;
  /// Knobs for kLocalSearch (deadline is overridden by the budgets above).
  ls::Options localsearch;
  /// Variable budget for generic models (Choco-OOM stand-in).
  csp::SolverLimits limits;
  /// Lane knobs for Method::kPortfolio (seeds derive from generic.seed).
  PortfolioConfig portfolio;

  /// Cooperative cancellation: when engaged, the run aborts (reporting
  /// kTimeout) at its next deadline poll after the token is cancelled.
  support::CancelToken cancel;

  /// Progress heartbeat: when set, the run's deadline ticks this counter at
  /// every cooperative poll, so an external watchdog (the portfolio's) can
  /// tell a searching run from a wedged one.
  std::shared_ptr<std::atomic<std::uint64_t>> heartbeat;

  /// Re-check feasible witnesses with the independent validator.
  bool validate_witness = true;
};

/// A Choco-like default line-up for CSP1: dom/wdeg, random value order and
/// tie-breaking, Luby restarts.  §VII-B's observation that CSP1 runs vary
/// between executions corresponds to varying `seed`.
[[nodiscard]] csp::SearchOptions choco_like_defaults(std::uint64_t seed);

struct SolveReport {
  Verdict verdict = Verdict::kInfeasible;
  std::optional<rt::Schedule> schedule;  ///< present iff a witness exists

  /// The constrained-deadline system the schedule refers to (differs from
  /// the input when clones were expanded).
  std::optional<rt::TaskSet> solved_tasks;

  /// True when the witness passed the independent validator (always true
  /// for witness-backed kFeasible results unless validation was disabled).
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
  /// "backend:<method>", or "portfolio:<lane>".
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

/// Solves the instance.  Throws ValidationError for structurally invalid
/// requests (e.g. the flow oracle on a heterogeneous platform).
[[nodiscard]] SolveReport solve_instance(const rt::TaskSet& ts,
                                         const rt::Platform& platform,
                                         const SolveConfig& config = {});

/// Per-lane outcome of a portfolio race (losers report kTimeout once the
/// winner cancels them — indistinguishable from a genuine budget expiry,
/// which is exactly the cooperative-cancellation contract).
struct LaneOutcome {
  std::string label;
  Verdict verdict = Verdict::kTimeout;
  FailureCause cause = FailureCause::kNone;
  double seconds = 0.0;
  std::int64_t nodes = 0;
  /// True when the progress watchdog cancelled this lane for a stalled
  /// heartbeat (the race continued with the survivors).
  bool watchdog_cancelled = false;
};

struct PortfolioReport {
  /// The decisive report: the presolve stages' when they decided before
  /// any lane launched (winner == -1, lanes empty), else the winning
  /// lane's; when nobody decides, lane 0's report (a timeout) so callers
  /// can treat this like any SolveReport.
  SolveReport report;
  std::int32_t winner = -1;  ///< index into lanes; -1 = no lane decided
  std::vector<LaneOutcome> lanes;
  /// Presolve stage timings (also mirrored into report.stage_times).
  std::vector<StageTiming> presolve;
  double seconds = 0.0;  ///< race wall time (not the sum over lanes)
};

/// Races the diversified lane line-up behind the shared presolve stages:
/// the four informed CSP2 value orders (dedicated solver, paper-faithful),
/// a slack/demand-pruned CSP2 lane, a min-conflicts local-search lane
/// (identical platforms), and `config.portfolio.random_lanes` randomized
/// generic lanes — Choco-like strategy with Luby restarts and nogood
/// recording, sharing one nogood pool read-only — over the solve_batch
/// thread pool.  The presolve stages of `config.pipeline` run once before
/// any lane launches; when they decide, no lane runs at all.  Otherwise the
/// first lane with a decisive verdict (feasible, or a complete
/// infeasibility proof) cancels the rest through the shared token; the
/// winner's stats are reported.  Uses config.time_limit_ms / max_nodes /
/// csp2 / generic / portfolio; config.method is ignored.  Also reachable as
/// Method::kPortfolio through solve_instance, which makes portfolios
/// batchable by the harness.
[[nodiscard]] PortfolioReport solve_portfolio(const rt::TaskSet& ts,
                                              const rt::Platform& platform,
                                              const SolveConfig& config = {});

/// One unit of batch work: an instance plus the configuration to solve it
/// with (so a batch can mix methods, budgets, and seeds).
struct BatchJob {
  rt::TaskSet tasks;
  rt::Platform platform;
  SolveConfig config;
};

/// Failure-handling policy for solve_batch (DESIGN.md §12).
struct BatchPolicy {
  /// Thread fan-out, as in support::parallel_for_index (0 = all hardware
  /// threads, 1 = sequential).
  std::size_t workers = 0;
  /// Total attempts per job (1 = no retry).  Only crash-type failures
  /// (kMemory, kInternalError, kFaultInjected) are retried; budget
  /// outcomes (deadline, node limit, cancellation) are legitimate results.
  std::int32_t max_attempts = 1;
  /// Each retry scales the job's time_limit_ms and max_nodes by this
  /// factor — transient memory pressure and timing races get more room.
  double retry_budget_multiplier = 2.0;
  /// Re-derive the generic/localsearch seeds per attempt so a retry does
  /// not deterministically replay the failing trajectory.
  bool retry_fresh_seed = true;
};

/// Aggregate failure accounting for one solve_batch call.
struct BatchHealth {
  std::int64_t failures = 0;    ///< runs that ended in a crash-type cause
  std::int64_t retries = 0;     ///< re-attempts actually launched
  std::int64_t recovered = 0;   ///< jobs whose retry produced a clean report
  std::int64_t quarantined = 0; ///< jobs that exhausted every attempt
  std::vector<std::size_t> quarantined_jobs;  ///< their indices, ascending
  std::string first_error;      ///< first contained failure, human-readable
};

/// Solves every job, fanning the independent runs over the shared thread
/// pool.  Each run stays single-threaded and deterministic, and results[k]
/// always belongs to jobs[k] regardless of worker scheduling.
///
/// Containment contract: a job is never lost and never poisons the batch.
/// A run that throws (ValidationError included) is captured as a kUnknown
/// report carrying its FailureCause and detail; crash-type failures are
/// retried per `policy` (wider budgets, fresh seeds) and jobs that exhaust
/// every attempt are quarantined — their last contained report stands, and
/// `health` (optional) records failures/retries/recoveries/quarantines.
[[nodiscard]] std::vector<SolveReport> solve_batch(
    const std::vector<BatchJob>& jobs, const BatchPolicy& policy,
    BatchHealth* health = nullptr);

/// Convenience overload with the default policy (no retries).  Kept for
/// existing call sites; unlike the pre-hardening behavior it captures
/// failures into reports instead of rethrowing.
[[nodiscard]] std::vector<SolveReport> solve_batch(
    const std::vector<BatchJob>& jobs, std::size_t workers = 0);

}  // namespace mgrts::core
