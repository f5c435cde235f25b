// Tests for the staged presolve->backend pipeline (core/pipeline.hpp) and
// the canonical verdict mapping (core/verdict.hpp): stage gating and
// provenance, short-circuit soundness, and randomized differential
// equivalence between the piped and direct solve paths on the paper's
// generator family — including arbitrary-deadline clone expansion.
#include <gtest/gtest.h>

#include <chrono>

#include "analysis/tests.hpp"
#include "core/solve.hpp"
#include "flow/oracle.hpp"
#include "gen/generator.hpp"
#include "localsearch/min_conflicts.hpp"
#include "rt/validate.hpp"
#include "support/deadline.hpp"
#include "support/rng.hpp"
#include "testing.hpp"

namespace mgrts::core {
namespace {

using mgrts::testing::example1;
using rt::Platform;
using rt::TaskSet;

TEST(CanonicalVerdict, OneMappingPerFrontend) {
  EXPECT_EQ(canonical_verdict(csp::SolveStatus::kSat), Verdict::kFeasible);
  EXPECT_EQ(canonical_verdict(csp::SolveStatus::kUnsat),
            Verdict::kInfeasible);
  EXPECT_EQ(canonical_verdict(csp::SolveStatus::kMemoryLimit),
            Verdict::kMemoryLimit);
  EXPECT_EQ(canonical_verdict(csp2::Status::kTimeout), Verdict::kTimeout);
  EXPECT_EQ(canonical_verdict(csp2::Status::kNodeLimit),
            Verdict::kNodeLimit);
  EXPECT_EQ(canonical_verdict(flow::OracleVerdict::kFeasible),
            Verdict::kFeasible);
  EXPECT_EQ(canonical_verdict(flow::OracleVerdict::kInfeasible),
            Verdict::kInfeasible);
  EXPECT_EQ(canonical_verdict(analysis::TestVerdict::kUnknown),
            Verdict::kUnknown);
  EXPECT_EQ(canonical_verdict(ls::Status::kFeasible), Verdict::kFeasible);
  EXPECT_EQ(canonical_verdict(ls::Status::kUnknown), Verdict::kUnknown);
}

TEST(CanonicalVerdict, DecisiveRequiresAProof) {
  EXPECT_TRUE(decisive(Verdict::kFeasible, false));
  EXPECT_TRUE(decisive(Verdict::kInfeasible, true));
  EXPECT_FALSE(decisive(Verdict::kInfeasible, false));  // EDF-style claim
  EXPECT_FALSE(decisive(Verdict::kUnknown, true));
  EXPECT_FALSE(decisive(Verdict::kTimeout, true));
}

TEST(Pipeline, FlowOracleStageDecidesExample1WithProvenance) {
  const SolveReport report =
      solve_instance(example1(), Platform::identical(2));  // default pipeline
  EXPECT_EQ(report.verdict, Verdict::kFeasible);
  EXPECT_EQ(report.decided_by, "flow-oracle");
  EXPECT_TRUE(report.witness_valid);
  EXPECT_EQ(report.nodes, 0) << "no search may run when presolve decides";
  // Stage trace: analysis ran first (undecided), then the oracle.
  ASSERT_EQ(report.stage_times.size(), 2u);
  EXPECT_EQ(report.stage_times[0].stage, "analysis");
  EXPECT_EQ(report.stage_times[0].verdict, Verdict::kUnknown);
  EXPECT_EQ(report.stage_times[1].stage, "flow-oracle");
  EXPECT_EQ(report.stage_times[1].verdict, Verdict::kFeasible);
}

TEST(Pipeline, FlowOracleStageStopsAtItsDeadlineWithACause) {
  // A Table-I instance whose warm start leaves work for Dinic: with the
  // stage's deadline already out, the stage stops before the first phase
  // and says why, with no verdict and no witness.
  gen::GeneratorOptions table1;
  gen::Instance inst;
  for (std::uint64_t k = 0;; ++k) {
    inst = gen::generate_indexed(table1, 1, k);
    if (flow::decide_feasibility(inst.tasks,
                                 Platform::identical(inst.processors))
            .phases >= 1) {
      break;
    }
  }
  const Platform p = Platform::identical(inst.processors);
  const auto stage = make_flow_oracle_stage();

  StageContext expired;
  expired.deadline = support::Deadline::after(std::chrono::nanoseconds(0));
  const StageResult late = stage->run(inst.tasks, p, expired);
  EXPECT_EQ(late.verdict, Verdict::kUnknown);
  EXPECT_EQ(late.cause, FailureCause::kDeadline);
  EXPECT_FALSE(late.schedule.has_value());
  EXPECT_NE(late.detail.find("deadline expired"), std::string::npos)
      << late.detail;

  StageContext cancelled;
  const support::CancelToken token = support::CancelToken::make();
  token.cancel();
  cancelled.deadline.set_cancel(token);
  const StageResult stopped = stage->run(inst.tasks, p, cancelled);
  EXPECT_EQ(stopped.verdict, Verdict::kUnknown);
  EXPECT_EQ(stopped.cause, FailureCause::kCancelled);
  EXPECT_NE(stopped.detail.find("cancelled"), std::string::npos)
      << stopped.detail;

  const StageResult decided = stage->run(inst.tasks, p, StageContext{});
  EXPECT_TRUE(decided.decisive());
  EXPECT_EQ(decided.cause, FailureCause::kNone);
}

TEST(Pipeline, AnalysisStageProvesOverCapacityInfeasible) {
  // Example 1 has U ~ 1.92 > 1: the utilization test settles m=1 before
  // the flow oracle or any backend runs.
  const SolveReport report =
      solve_instance(example1(), Platform::identical(1));
  EXPECT_EQ(report.verdict, Verdict::kInfeasible);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.decided_by, "analysis:utilization");
  ASSERT_EQ(report.stage_times.size(), 1u);
}

TEST(Pipeline, DensityFeasibleIsWitnessLessButSound) {
  // Light tasks: density 2 * (1/4) <= 1, so the sufficient test proves
  // feasibility analytically.  With the flow stage off there is no witness
  // to validate — the verdict must still agree with the oracle.
  const TaskSet ts = TaskSet::from_params({{0, 1, 4, 4}, {0, 1, 4, 4}});
  SolveConfig config;
  config.pipeline = PipelineOptions::none();
  config.pipeline.analysis = true;
  const SolveReport report =
      solve_instance(ts, Platform::identical(1), config);
  EXPECT_EQ(report.verdict, Verdict::kFeasible);
  EXPECT_EQ(report.decided_by, "analysis:density");
  EXPECT_FALSE(report.schedule.has_value());
  EXPECT_TRUE(flow::is_feasible(ts, Platform::identical(1)));
}

TEST(Pipeline, Csp2PresolveStageProvesInfeasibilityWhenEnabledAlone) {
  // Two always-tight tasks on one processor: the slack/demand-pruned probe
  // refutes this instantly, without analysis or the oracle in front.
  const TaskSet ts = TaskSet::from_params({{0, 2, 2, 2}, {0, 2, 2, 2}});
  SolveConfig config;
  config.method = Method::kCsp1Generic;  // backend must never run
  config.pipeline = PipelineOptions::none();
  config.pipeline.csp2_presolve = true;
  const SolveReport report =
      solve_instance(ts, Platform::identical(1), config);
  EXPECT_EQ(report.verdict, Verdict::kInfeasible);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.decided_by, "csp2-presolve");
}

TEST(Pipeline, FlowMemoryGuardFallsBackToTheDeferredDensityProof) {
  // The flow oracle's size guard trips on both inputs.  The analysis stage
  // deferred its density proof to the oracle (necessary-only mode); the
  // oracle must recover it instead of dropping a provable instance into
  // search.
  struct Case {
    TaskSet tasks;
    std::int32_t processors;
  };
  const Case cases[] = {
      // Two coprime ~1e4 periods: T ~1e8 and ~2e8 window slots.
      {TaskSet::from_params({{0, 1, 9973, 9973}, {0, 1, 9967, 9967}}), 1},
      // T = 899,999,879 although the windows hold only 60,000 slots:
      // the hyperperiod alone is over budget.
      {TaskSet::from_params({{0, 1, 1, 30011}, {0, 1, 1, 29989}}), 2},
  };
  SolveConfig config;
  config.method = Method::kCsp2Dedicated;
  config.max_nodes = 1;  // if search ran anyway, the verdict would differ
  for (const Case& c : cases) {
    const SolveReport report = solve_instance(
        c.tasks, Platform::identical(c.processors), config);
    EXPECT_EQ(report.verdict, Verdict::kFeasible);
    EXPECT_EQ(report.decided_by, "analysis:density");
    EXPECT_FALSE(report.schedule.has_value());
    EXPECT_NE(report.detail.find("flow oracle skipped"), std::string::npos)
        << report.detail;
  }
}

TEST(Pipeline, StagesAreGatedOffHeterogeneousPlatforms) {
  // rate(task0, proc0) = 2: one slot serves the whole WCET.  Analysis and
  // the flow oracle must skip (they are identical-platform arguments); the
  // requested backend answers and the trace shows only it.
  const TaskSet ts = TaskSet::from_params({{0, 2, 2, 2}});
  const Platform platform = Platform::heterogeneous({{2}});
  const SolveReport report = solve_instance(ts, platform);  // default stages
  EXPECT_EQ(report.verdict, Verdict::kFeasible);
  EXPECT_EQ(report.decided_by, "backend:CSP2(dedicated)");
  ASSERT_EQ(report.stage_times.size(), 1u);
  EXPECT_EQ(report.stage_times[0].stage, "CSP2(dedicated)");
}

TEST(Pipeline, ZeroBudgetSkipsStages) {
  SolveConfig config;
  config.time_limit_ms = 0;
  config.method = Method::kCsp2Dedicated;
  const SolveReport report =
      solve_instance(example1(), Platform::identical(2), config);
  // The backend polls its deadline at a coarse node granularity, so a tiny
  // instance may still be solved outright; either way no presolve stage may
  // consume wall time on an expired deadline.
  EXPECT_TRUE(report.verdict == Verdict::kTimeout ||
              report.verdict == Verdict::kFeasible);
  ASSERT_EQ(report.stage_times.size(), 1u);
  EXPECT_EQ(report.stage_times[0].stage, "CSP2(dedicated)");
}

// ---------------------------------------------------------- differential
//
// The pipeline must be a pure short-circuit: piped and direct solves agree
// with each other and with the flow oracle on every instance of the
// paper's generator family.  This is the randomized safety harness for
// every stage's soundness.

TEST(PipelineDifferential, PipedVerdictsMatchDirectAndOracle) {
  gen::GeneratorOptions gopt;
  gopt.tasks = 4;
  gopt.processors = 2;
  gopt.t_max = 5;
  for (const std::uint64_t seed : {411ULL, 412ULL}) {
    for (std::uint64_t k = 0; k < 12; ++k) {
      const auto inst = gen::generate_indexed(gopt, seed, k);
      const Platform platform = Platform::identical(inst.processors);
      const bool oracle = flow::is_feasible(inst.tasks, platform);

      SolveConfig direct;
      direct.method = Method::kCsp2Dedicated;
      direct.pipeline = PipelineOptions::none();
      const SolveReport direct_report =
          solve_instance(inst.tasks, platform, direct);

      SolveConfig piped = direct;
      piped.pipeline = PipelineOptions::full();
      const SolveReport piped_report =
          solve_instance(inst.tasks, platform, piped);

      // Also a no-flow chain, so the analysis and csp2-presolve stages are
      // exercised as deciders rather than shadowed by the oracle.
      SolveConfig no_flow = direct;
      no_flow.pipeline = PipelineOptions::full();
      no_flow.pipeline.flow_oracle = false;
      const SolveReport no_flow_report =
          solve_instance(inst.tasks, platform, no_flow);

      ASSERT_EQ(direct_report.verdict,
                oracle ? Verdict::kFeasible : Verdict::kInfeasible)
          << "seed " << seed << " instance " << k;
      EXPECT_EQ(piped_report.verdict, direct_report.verdict)
          << "seed " << seed << " instance " << k << " decided by "
          << piped_report.decided_by;
      EXPECT_EQ(no_flow_report.verdict, direct_report.verdict)
          << "seed " << seed << " instance " << k << " decided by "
          << no_flow_report.decided_by;
      if (piped_report.schedule.has_value()) {
        EXPECT_TRUE(piped_report.witness_valid)
            << "seed " << seed << " instance " << k;
      }
      EXPECT_FALSE(piped_report.decided_by.empty());
    }
  }
}

TEST(PipelineDifferential, ArbitraryDeadlinesAgreeThroughCloneExpansion) {
  // Random arbitrary-deadline systems (some D > T): the facade clone-
  // expands transparently; piped and direct verdicts must agree, and
  // feasible witnesses must validate over the clone system the report
  // carries.
  support::Rng rng(20260731);
  int cloned_checked = 0;
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<rt::TaskParams> params;
    const int n = 2 + static_cast<int>(rng.uniform(0, 1));
    for (int i = 0; i < n; ++i) {
      const rt::Time period = rng.uniform(2, 4);
      const rt::Time wcet = rng.uniform(1, 2);
      // Deadline up to 2T, allowing D > T (and forcing it for task 0).
      const rt::Time lo = i == 0 ? period + 1 : wcet;
      const rt::Time deadline = rng.uniform(lo, 2 * period);
      params.push_back({0, wcet, deadline < wcet ? wcet : deadline, period});
    }
    const TaskSet ts =
        TaskSet::from_params(params, rt::DeadlineModel::kArbitrary);
    const Platform platform = Platform::identical(2);

    SolveConfig direct;
    direct.method = Method::kCsp2Dedicated;
    direct.pipeline = PipelineOptions::none();
    const SolveReport direct_report = solve_instance(ts, platform, direct);

    SolveConfig piped = direct;
    piped.pipeline = PipelineOptions::full();
    const SolveReport piped_report = solve_instance(ts, platform, piped);

    EXPECT_EQ(piped_report.verdict, direct_report.verdict)
        << "trial " << trial << " decided by " << piped_report.decided_by;
    if (!ts.is_constrained()) {
      ASSERT_TRUE(piped_report.solved_tasks.has_value()) << "trial " << trial;
      ++cloned_checked;
      if (piped_report.schedule.has_value()) {
        EXPECT_TRUE(rt::is_valid_schedule(*piped_report.solved_tasks,
                                          platform, *piped_report.schedule))
            << "trial " << trial;
      }
    }
  }
  EXPECT_GT(cloned_checked, 6) << "sweep must actually exercise clones";
}

}  // namespace
}  // namespace mgrts::core
