#include "core/pipeline.hpp"

#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "analysis/tests.hpp"
#include "csp2/csp2.hpp"
#include "flow/oracle.hpp"
#include "support/assert.hpp"
#include "support/error.hpp"

namespace mgrts::core {

namespace {

// ------------------------------------------------------------- stage 1
// Exact one-sided analytical tests.  Decides without producing a witness:
// the density test's fluid argument proves existence (via flow
// integrality), it does not construct the schedule.  When the flow oracle
// runs next anyway, run_stages defers feasible answers to it so every
// feasible short-circuit still carries a validated schedule.
SolveReport analysis_stage(const rt::TaskSet& ts,
                           const rt::Platform& platform) {
  const analysis::TestResult result =
      analysis::quick_decide(ts, platform.processors());
  SolveReport out;
  out.verdict = canonical_verdict(result.verdict);
  if (decisive(out.verdict, out.complete)) {
    out.decided_by = std::string("analysis:") + result.test;
  }
  out.detail = result.detail;
  return out;
}

// ------------------------------------------------------------- stage 3
// Node-budgeted dedicated-CSP2 probe with this repo's slack/demand pruning
// extensions enabled (bench_ablation_csp2_rules quantifies them): many
// instances that time out under the paper-faithful rules become instant
// infeasibility proofs here.  Budget exhaustion, and an incomplete
// infeasibility claim (the heterogeneous idle-rule caveat), prove nothing:
// kUnknown, and the backend still owns the instance.
SolveReport csp2_presolve_stage(const rt::TaskSet& ts,
                                const rt::Platform& platform,
                                const support::Deadline& deadline,
                                std::int64_t max_nodes) {
  csp2::Options options;
  options.value_order = csp2::ValueOrder::kDMinusC;
  options.slack_prune = true;
  options.tight_demand_prune = true;
  options.max_nodes = max_nodes;
  options.deadline = deadline;
  csp2::Result result = csp2::solve(ts, platform, options);

  SolveReport out;
  out.nodes = result.stats.nodes;
  out.failures = result.stats.failures;
  const Verdict verdict = canonical_verdict(result.status);
  if (verdict == Verdict::kFeasible) {
    out.verdict = verdict;
    out.schedule = std::move(result.schedule);
  } else if (verdict == Verdict::kInfeasible && result.search_complete) {
    out.verdict = verdict;
  }
  return out;
}

}  // namespace

// ------------------------------------------------------------- stage 2
// Exact polynomial feasibility via max-flow.  Produces a canonical witness
// schedule for feasible instances.  Memory pressure and the stage's
// deadline running out downgrade to kUnknown (the backend gets its chance)
// instead of aborting the solve, unless the density test proves
// feasibility.
SolveReport flow_oracle_stage(const rt::TaskSet& ts,
                              const rt::Platform& platform,
                              const support::Deadline& deadline) {
  SolveReport out;
  // The analysis stage defers feasible answers to this one (necessary-only
  // mode), so when the oracle cannot answer, re-derive the sufficient
  // density proof here — sound, witness-less, and far better than
  // regressing an already-provable instance to full search or a timeout.
  const auto density_stands = [&](const std::string& why) {
    const analysis::TestResult density =
        analysis::density_test(ts, platform.processors());
    if (density.verdict != analysis::TestVerdict::kFeasible) return false;
    out.verdict = Verdict::kFeasible;
    out.decided_by = "analysis:density";
    out.detail = "flow oracle " + why + "; density proof stands";
    return true;
  };
  try {
    std::optional<flow::OracleResult> oracle =
        flow::decide_feasibility(ts, platform, deadline);
    if (!oracle) {
      // A cancel asks for no answer at all; a deadline stop still owes one.
      const bool cancelled = deadline.cancel_requested();
      if (!cancelled && density_stands("stopped at its deadline")) return out;
      out.cause =
          cancelled ? FailureCause::kCancelled : FailureCause::kDeadline;
      out.detail = std::string("flow oracle stopped: ") +
                   (cancelled ? "cancelled" : "deadline expired");
      return out;
    }
    out.verdict = canonical_verdict(oracle->verdict);
    out.schedule = std::move(oracle->schedule);
    out.detail = "max-flow " + std::to_string(oracle->flow) + " of demand " +
                 std::to_string(oracle->demand);
  } catch (const ResourceError& e) {
    // The oracle's size guard refused the instance before allocating it
    // (more than 50M jobs, window slots and slots, or more than 50M witness
    // cells), or an injected fault shadowed that guard.
    if (!density_stands(std::string("skipped (") + e.what() + ")")) {
      const bool injected = dynamic_cast<const FaultInjectedError*>(&e);
      out.cause =
          injected ? FailureCause::kFaultInjected : FailureCause::kMemory;
      out.detail = std::string("flow oracle skipped: ") + e.what();
    }
  }
  return out;
}

bool run_stages(const rt::TaskSet& ts, const rt::Platform& platform,
                const PipelineOptions& options,
                const support::Deadline& deadline, SolveReport& report) {
  MGRTS_EXPECTS(ts.is_constrained());
  // The stage funnel (DESIGN.md §12): a throwing stage answers kUnknown —
  // a presolve stage must never be the reason a solve dies — and a stage
  // that does not decide leaves nothing behind but its timing.  A feasible
  // analysis answer is owed to the flow stage, which adds the witness; if
  // the deadline skips that stage, the proof stands on its own (a cancel
  // asks for no answer).
  std::optional<SolveReport> deferred;
  const auto run = [&](const char* name, const auto& stage) {
    std::optional<SolveReport> owed = std::exchange(deferred, std::nullopt);
    if (deadline.expired()) {
      if (!owed || deadline.cancel_requested()) return false;
      owed->detail = "flow oracle skipped at its deadline; density proof "
                     "stands";
      owed->stage_times = std::move(report.stage_times);
      report = std::move(*owed);
      return true;
    }
    support::Stopwatch watch;
    SolveReport result;
    try {
      result = stage();
    } catch (const std::exception&) {
      // `result` was never assigned: it still says kUnknown.
    }
    report.stage_times.push_back(
        StageTiming{name, result.verdict, watch.seconds()});
    if (!decisive(result.verdict, result.complete)) return false;
    if (result.decided_by.empty()) result.decided_by = name;
    result.stage_times = std::move(report.stage_times);
    report = std::move(result);
    return true;
  };
  // The analysis and flow-oracle stages are identical-platform arguments.
  const bool identical = platform.is_identical();
  return (options.analysis && identical && run("analysis", [&] {
            SolveReport proof = analysis_stage(ts, platform);
            if (proof.verdict != Verdict::kFeasible || !options.flow_oracle) {
              return proof;
            }
            deferred = std::move(proof);
            return SolveReport{};
          })) ||
         (options.flow_oracle && identical && run("flow-oracle", [&] {
            return flow_oracle_stage(ts, platform, deadline);
          })) ||
         (options.csp2_presolve && run("csp2-presolve", [&] {
            return csp2_presolve_stage(ts, platform, deadline,
                                       options.presolve_max_nodes);
          }));
}

}  // namespace mgrts::core
