#include "core/pipeline.hpp"

#include <exception>
#include <new>
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
// runs next anyway (`necessary_only`), feasible answers are deferred to it
// so every feasible short-circuit still carries a validated schedule.
class AnalysisStage final : public Stage {
 public:
  explicit AnalysisStage(bool necessary_only)
      : necessary_only_(necessary_only) {}

  [[nodiscard]] const char* name() const override { return "analysis"; }

  [[nodiscard]] bool applicable(const rt::TaskSet& ts,
                                const rt::Platform& platform) const override {
    return platform.is_identical() && ts.is_constrained();
  }

  [[nodiscard]] StageResult run(const rt::TaskSet& ts,
                                const rt::Platform& platform,
                                const StageContext&) const override {
    const analysis::TestResult result =
        analysis::quick_decide(ts, platform.processors());
    StageResult out;
    out.verdict = canonical_verdict(result.verdict);
    if (out.verdict == Verdict::kFeasible && necessary_only_) {
      out.verdict = Verdict::kUnknown;
      out.detail = std::string(result.test) +
                   " holds; deferring to the flow oracle for a witness";
      return out;
    }
    if (out.decisive()) {
      out.decided_by = std::string("analysis:") + result.test;
    }
    out.detail = result.detail;
    return out;
  }

 private:
  bool necessary_only_;
};

// ------------------------------------------------------------- stage 2
// Exact polynomial feasibility via max-flow.  Produces a canonical witness
// schedule for feasible instances; memory pressure downgrades to kUnknown
// (the backend gets its chance) instead of aborting the solve, and so does
// the stage's deadline running out between Dinic phases.
class FlowOracleStage final : public Stage {
 public:
  [[nodiscard]] const char* name() const override { return "flow-oracle"; }

  [[nodiscard]] bool applicable(const rt::TaskSet& ts,
                                const rt::Platform& platform) const override {
    return platform.is_identical() && ts.is_constrained();
  }

  [[nodiscard]] StageResult run(const rt::TaskSet& ts,
                                const rt::Platform& platform,
                                const StageContext& context) const override {
    StageResult out;
    try {
      std::optional<flow::OracleResult> oracle =
          flow::decide_feasibility(ts, platform, context.deadline);
      if (!oracle) {
        const bool cancelled = context.deadline.cancel_requested();
        out.verdict = Verdict::kUnknown;
        out.cause =
            cancelled ? FailureCause::kCancelled : FailureCause::kDeadline;
        out.detail = std::string("flow oracle stopped between Dinic phases: ") +
                     (cancelled ? "cancelled" : "deadline expired");
        return out;
      }
      out.verdict = canonical_verdict(oracle->verdict);
      out.schedule = std::move(oracle->schedule);
      out.detail = "max-flow " + std::to_string(oracle->flow) +
                   " of demand " + std::to_string(oracle->demand);
    } catch (const ResourceError& e) {
      // The oracle's size guard refused the network before allocating it
      // (more than 50M forward arcs), or an injected fault shadowed that
      // guard.  The analysis stage defers feasible answers to us
      // (necessary-only mode), so re-derive the sufficient density proof
      // here — sound, witness-less, and far better than regressing an
      // already-provable instance to full search.
      const bool injected = dynamic_cast<const FaultInjectedError*>(&e);
      const analysis::TestResult density =
          analysis::density_test(ts, platform.processors());
      if (density.verdict == analysis::TestVerdict::kFeasible) {
        out.verdict = Verdict::kFeasible;
        out.decided_by = "analysis:density";
        out.detail = std::string("flow oracle skipped (") + e.what() +
                     "); density proof stands";
      } else {
        out.verdict = Verdict::kUnknown;
        out.cause = injected ? FailureCause::kFaultInjected
                             : FailureCause::kMemory;
        out.detail = std::string("flow oracle skipped: ") + e.what();
      }
    }
    return out;
  }
};

// ------------------------------------------------------------- stage 3
// Node-budgeted dedicated-CSP2 probe with this repo's slack/demand pruning
// extensions enabled (bench_ablation_csp2_rules quantifies them): many
// instances that time out under the paper-faithful rules become instant
// infeasibility proofs here.  Budget exhaustion is kUnknown — the backend
// still owns the instance.
class Csp2PresolveStage final : public Stage {
 public:
  [[nodiscard]] const char* name() const override { return "csp2-presolve"; }

  [[nodiscard]] bool applicable(const rt::TaskSet& ts,
                                const rt::Platform&) const override {
    return ts.is_constrained();
  }

  [[nodiscard]] StageResult run(const rt::TaskSet& ts,
                                const rt::Platform& platform,
                                const StageContext& context) const override {
    csp2::Options options;
    options.value_order = csp2::ValueOrder::kDMinusC;
    options.slack_prune = true;
    options.tight_demand_prune = true;
    options.max_nodes = context.presolve_max_nodes;
    options.deadline = context.deadline;
    csp2::Result result = csp2::solve(ts, platform, options);

    StageResult out;
    out.nodes = result.stats.nodes;
    out.failures = result.stats.failures;
    const Verdict verdict = canonical_verdict(result.status);
    if (verdict == Verdict::kFeasible) {
      out.verdict = verdict;
      out.schedule = std::move(result.schedule);
    } else if (verdict == Verdict::kInfeasible && result.search_complete) {
      out.verdict = verdict;
    } else {
      // Budget exhausted, or an incomplete infeasibility claim
      // (heterogeneous idle-rule caveat): proves nothing.
      out.verdict = Verdict::kUnknown;
      out.detail = std::string("presolve probe ") +
                   csp2::to_string(result.status) + " after " +
                   std::to_string(result.stats.nodes) + " nodes";
    }
    return out;
  }
};

}  // namespace

Pipeline& Pipeline::add(std::unique_ptr<Stage> stage) {
  MGRTS_EXPECTS(stage != nullptr);
  stages_.push_back(std::move(stage));
  return *this;
}

Pipeline& Pipeline::set_backend(std::unique_ptr<Backend> backend) {
  MGRTS_EXPECTS(backend != nullptr);
  backend_ = std::move(backend);
  return *this;
}

PipelineOutcome Pipeline::run_stages(const rt::TaskSet& ts,
                                     const rt::Platform& platform,
                                     const support::Deadline& deadline) const {
  PipelineOutcome out;
  StageContext context{deadline, options_.presolve_max_nodes};
  for (const auto& stage : stages_) {
    if (deadline.expired()) break;
    if (!stage->applicable(ts, platform)) continue;
    support::Stopwatch watch;
    StageResult result;
    // Containment funnel (DESIGN.md §12): a throwing stage downgrades to a
    // sound kUnknown with cause provenance — a presolve stage must never be
    // the reason a solve dies.
    try {
      result = stage->run(ts, platform, context);
    } catch (const FaultInjectedError& e) {
      result = StageResult{};
      result.cause = FailureCause::kFaultInjected;
      result.detail = std::string(stage->name()) + " faulted: " + e.what();
    } catch (const ResourceError& e) {
      result = StageResult{};
      result.cause = FailureCause::kMemory;
      result.detail = std::string(stage->name()) + " hit a resource limit: " +
                      e.what();
    } catch (const std::bad_alloc&) {
      result = StageResult{};
      result.cause = FailureCause::kMemory;
      result.detail = std::string(stage->name()) + " ran out of memory";
    } catch (const std::exception& e) {
      result = StageResult{};
      result.cause = FailureCause::kInternalError;
      result.detail = std::string(stage->name()) + " threw: " + e.what();
    }
    out.stages.push_back(
        StageTiming{stage->name(), result.verdict, watch.seconds()});
    if (result.decisive()) {
      out.decided_by =
          result.decided_by.empty() ? stage->name() : result.decided_by;
      out.result = std::move(result);
      return out;
    }
  }
  return out;
}

PipelineOutcome Pipeline::run(const rt::TaskSet& ts,
                              const rt::Platform& platform,
                              const SolveConfig& config,
                              const support::Deadline& deadline) const {
  MGRTS_EXPECTS(backend_ != nullptr);
  PipelineOutcome out = run_stages(ts, platform, deadline);
  if (out.result.decisive()) return out;

  support::Stopwatch watch;
  StageResult result;
  // Same funnel as run_stages, at the backend boundary.  ValidationError
  // stays a thrown contract violation (a structurally invalid request, not
  // a runtime failure); everything else degrades with a cause.
  try {
    result = backend_->run(ts, platform, config, deadline);
  } catch (const ValidationError&) {
    throw;
  } catch (const FaultInjectedError& e) {
    result = StageResult{};
    result.cause = FailureCause::kFaultInjected;
    result.detail = std::string(backend_->name()) + " faulted: " + e.what();
  } catch (const ResourceError& e) {
    result = StageResult{};
    result.verdict = Verdict::kMemoryLimit;
    result.cause = FailureCause::kMemory;
    result.detail = e.what();
  } catch (const std::bad_alloc&) {
    result = StageResult{};
    result.verdict = Verdict::kMemoryLimit;
    result.cause = FailureCause::kMemory;
    result.detail = std::string(backend_->name()) + " ran out of memory";
  } catch (const std::exception& e) {
    result = StageResult{};
    result.cause = FailureCause::kInternalError;
    result.detail = std::string(backend_->name()) + " threw: " + e.what();
  }
  out.stages.push_back(
      StageTiming{backend_->name(), result.verdict, watch.seconds()});
  out.decided_by = result.decided_by.empty()
                       ? std::string("backend:") + backend_->name()
                       : result.decided_by;
  out.result = std::move(result);
  return out;
}

std::unique_ptr<Stage> make_analysis_stage(bool necessary_only) {
  return std::make_unique<AnalysisStage>(necessary_only);
}

std::unique_ptr<Stage> make_flow_oracle_stage() {
  return std::make_unique<FlowOracleStage>();
}

std::unique_ptr<Stage> make_csp2_presolve_stage() {
  return std::make_unique<Csp2PresolveStage>();
}

Pipeline make_pipeline(const PipelineOptions& options) {
  Pipeline pipeline(options);
  if (options.analysis) pipeline.add(make_analysis_stage(options.flow_oracle));
  if (options.flow_oracle) pipeline.add(make_flow_oracle_stage());
  if (options.csp2_presolve) pipeline.add(make_csp2_presolve_stage());
  return pipeline;
}

}  // namespace mgrts::core
