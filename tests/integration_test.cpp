// Cross-module integration and property tests: the Theorem 1/2 equivalence
// story checked end to end on randomized instance sweeps.
//
// Ground truth is the flow oracle (an independent polynomial algorithm).
// Every complete solver must return the same verdict; every witness from
// any solver must pass the independent validator; the incomplete EDF
// baseline must be sound in one direction.
#include <gtest/gtest.h>

#include "core/solve.hpp"
#include "flow/oracle.hpp"
#include "gen/generator.hpp"
#include "rt/validate.hpp"
#include "testing.hpp"

namespace mgrts {
namespace {

struct SweepParam {
  std::uint64_t seed;
  std::int32_t tasks;
  std::int32_t processors;
  rt::Time t_max;
  bool offsets;
  int instances;
  /// SolverAgreement: generic runs (of 2x instances) that must decide.
  int min_generic_decided = 0;
};

std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto& p = info.param;
  return "n" + std::to_string(p.tasks) + "m" + std::to_string(p.processors) +
         "t" + std::to_string(p.t_max) + (p.offsets ? "off" : "sync") + "s" +
         std::to_string(p.seed);
}

class SolverAgreement : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SolverAgreement, AllCompleteMethodsMatchOracle) {
  const SweepParam param = GetParam();
  gen::GeneratorOptions gopt;
  gopt.tasks = param.tasks;
  gopt.processors = param.processors;
  gopt.t_max = param.t_max;
  gopt.with_offsets = param.offsets;

  int feasible_count = 0;
  int generic_decided = 0;
  for (int k = 0; k < param.instances; ++k) {
    const auto inst =
        gen::generate_indexed(gopt, param.seed, static_cast<std::uint64_t>(k));
    const rt::Platform platform = rt::Platform::identical(inst.processors);
    const bool oracle = flow::is_feasible(inst.tasks, platform);
    feasible_count += oracle ? 1 : 0;

    for (const core::Method method :
         {core::Method::kCsp1Generic, core::Method::kCsp2Generic,
          core::Method::kCsp2Dedicated}) {
      core::SolveConfig config;
      config.method = method;
      config.time_limit_ms = 5'000;  // a backstop only
      if (method != core::Method::kCsp2Dedicated) {
        // A node budget, not the wall clock, bounds the generic searches:
        // which runs decide is then the same in every build.
        config.max_nodes = 100'000;
      }
      config.generic = core::choco_like_defaults(param.seed + 1);
      // Presolve off: agreement must come from the searches themselves
      // (the pipeline-vs-direct equivalence lives in core_pipeline_test).
      config.pipeline = core::PipelineOptions::none();
      const core::SolveReport report =
          core::solve_instance(inst.tasks, platform, config);
      const bool decided = report.verdict == core::Verdict::kFeasible ||
                           report.verdict == core::Verdict::kInfeasible;
      if (method == core::Method::kCsp2Dedicated) {
        // The dedicated solver decides these tiny instances instantly.
        ASSERT_TRUE(decided)
            << core::to_string(method) << " instance " << k << ": "
            << core::to_string(report.verdict);
      } else if (!decided) {
        // Generic searches may legitimately overrun near r = 1 — that is
        // the paper's Table I in miniature.  Agreement is only checked on
        // decided runs.
        continue;
      } else {
        ++generic_decided;
      }
      EXPECT_EQ(report.verdict == core::Verdict::kFeasible, oracle)
          << core::to_string(method) << " disagrees on instance " << k;
      if (report.verdict == core::Verdict::kFeasible) {
        EXPECT_TRUE(report.witness_valid)
            << core::to_string(method) << " invalid witness, instance " << k
            << ": " << report.detail;
      }
    }
  }
  // The generic solvers must decide the pinned share of runs (agreement on
  // a sweep where everything overruns would be vacuous); under the node
  // budget that count is exact.  Individual sweeps may legitimately come
  // out one-sided (all-feasible or all-infeasible); the parameter grid as a
  // whole covers both outcomes.
  static_cast<void>(feasible_count);
  EXPECT_GE(generic_decided, param.min_generic_decided);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SolverAgreement,
    ::testing::Values(
        SweepParam{101, 3, 2, 4, false, 15, 30},
        SweepParam{102, 4, 2, 5, false, 15, 29},
        SweepParam{103, 4, 3, 4, false, 15, 30},
        SweepParam{104, 3, 2, 4, true, 15, 30},
        SweepParam{105, 4, 2, 5, true, 15, 30},
        SweepParam{106, 5, 2, 4, false, 12, 24},
        SweepParam{107, 5, 4, 5, true, 12, 24},
        SweepParam{108, 4, 2, 6, true, 12, 23}),
    sweep_name);

class BaselineSoundness : public ::testing::TestWithParam<SweepParam> {};

TEST_P(BaselineSoundness, IncompleteMethodsNeverContradictOracle) {
  const SweepParam param = GetParam();
  gen::GeneratorOptions gopt;
  gopt.tasks = param.tasks;
  gopt.processors = param.processors;
  gopt.t_max = param.t_max;
  gopt.with_offsets = param.offsets;

  for (int k = 0; k < param.instances; ++k) {
    const auto inst =
        gen::generate_indexed(gopt, param.seed, static_cast<std::uint64_t>(k));
    const rt::Platform platform = rt::Platform::identical(inst.processors);
    const bool oracle = flow::is_feasible(inst.tasks, platform);

    // EDF-schedulable => feasible.
    core::SolveConfig edf;
    edf.method = core::Method::kEdfSimulation;
    edf.pipeline = core::PipelineOptions::none();  // judge EDF itself
    const auto edf_report = core::solve_instance(inst.tasks, platform, edf);
    if (edf_report.verdict == core::Verdict::kFeasible) {
      EXPECT_TRUE(oracle) << "EDF found a schedule for an infeasible "
                             "instance "
                          << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BaselineSoundness,
    ::testing::Values(SweepParam{201, 4, 2, 5, false, 20},
                      SweepParam{202, 4, 2, 5, true, 20},
                      SweepParam{203, 5, 3, 4, false, 20}),
    sweep_name);

TEST(EndToEnd, ArbitraryDeadlinePipeline) {
  // Arbitrary-deadline systems: facade clones transparently; verdict must
  // match the oracle run on the clone system.
  gen::GeneratorOptions gopt;
  gopt.tasks = 3;
  gopt.processors = 2;
  gopt.t_max = 4;
  int cloned_cases = 0;
  for (std::uint64_t k = 0; k < 25; ++k) {
    const auto base = gen::generate_indexed(gopt, 929, k);
    // Stretch deadlines beyond periods to force clones (D' = D + T).
    std::vector<rt::TaskParams> params;
    for (const auto& task : base.tasks.tasks()) {
      rt::TaskParams p = task.params;
      p.deadline = p.deadline + p.period;
      params.push_back(p);
    }
    const rt::TaskSet arbitrary =
        rt::TaskSet::from_params(params, rt::DeadlineModel::kArbitrary);
    const rt::Platform platform = rt::Platform::identical(base.processors);

    core::SolveConfig config;
    config.time_limit_ms = 10'000;
    const auto report = core::solve_instance(arbitrary, platform, config);
    ASSERT_TRUE(report.solved_tasks.has_value());
    EXPECT_GT(report.solved_tasks->size(), arbitrary.size());
    if (report.verdict == core::Verdict::kTimeout) continue;  // rare, hard
    ++cloned_cases;
    const bool oracle =
        flow::is_feasible(arbitrary.to_constrained(), platform);
    EXPECT_EQ(report.verdict == core::Verdict::kFeasible, oracle)
        << "instance " << k;
    if (report.schedule.has_value()) {
      EXPECT_TRUE(report.witness_valid);
    }
  }
  EXPECT_GT(cloned_cases, 0);
}

TEST(EndToEnd, HeterogeneousDedicatedVsGenericAgreement) {
  // On heterogeneous platforms the generic CSP2 encoding is complete; the
  // dedicated solver with the idle rule is only sound for feasibility.
  // Check: dedicated-feasible => generic-feasible, witnesses validate, and
  // with the idle rule off both verdicts coincide.
  gen::GeneratorOptions gopt;
  gopt.tasks = 3;
  gopt.processors = 2;
  gopt.t_max = 4;
  support::Rng rng(77);
  for (std::uint64_t k = 0; k < 20; ++k) {
    const auto inst = gen::generate_indexed(gopt, 414, k);
    std::vector<std::vector<rt::Rate>> rates;
    for (rt::TaskId i = 0; i < inst.tasks.size(); ++i) {
      std::vector<rt::Rate> row;
      for (std::int32_t j = 0; j < 2; ++j) {
        row.push_back(static_cast<rt::Rate>(rng.uniform(0, 2)));
      }
      if (row[0] == 0 && row[1] == 0) row[0] = 1;  // keep it serveable
      rates.push_back(row);
    }
    const rt::Platform platform = rt::Platform::heterogeneous(rates);

    core::SolveConfig generic;
    generic.method = core::Method::kCsp2Generic;
    generic.time_limit_ms = 30'000;
    const auto generic_report =
        core::solve_instance(inst.tasks, platform, generic);
    ASSERT_TRUE(generic_report.verdict == core::Verdict::kFeasible ||
                generic_report.verdict == core::Verdict::kInfeasible);

    core::SolveConfig dedicated;
    dedicated.method = core::Method::kCsp2Dedicated;
    dedicated.csp2.idle_rule = false;  // restore completeness
    dedicated.time_limit_ms = 30'000;
    const auto dedicated_report =
        core::solve_instance(inst.tasks, platform, dedicated);
    EXPECT_EQ(dedicated_report.verdict, generic_report.verdict)
        << "instance " << k;

    core::SolveConfig ruled;
    ruled.method = core::Method::kCsp2Dedicated;
    ruled.time_limit_ms = 30'000;
    const auto ruled_report = core::solve_instance(inst.tasks, platform, ruled);
    if (ruled_report.verdict == core::Verdict::kFeasible) {
      EXPECT_EQ(generic_report.verdict, core::Verdict::kFeasible);
      EXPECT_TRUE(ruled_report.witness_valid);
    }
  }
}

TEST(EndToEnd, Example1RendersEverywhere) {
  // The running example solves under every complete method and the
  // schedules — although possibly different — all validate.
  const auto ts = mgrts::testing::example1();
  const auto platform = mgrts::testing::example1_platform();
  for (const core::Method method :
       {core::Method::kCsp1Generic, core::Method::kCsp2Generic,
        core::Method::kCsp2Dedicated, core::Method::kFlowOracle}) {
    core::SolveConfig config;
    config.method = method;
    config.time_limit_ms = 30'000;
    config.generic = core::choco_like_defaults(5);
    const auto report = core::solve_instance(ts, platform, config);
    ASSERT_EQ(report.verdict, core::Verdict::kFeasible)
        << core::to_string(method);
    EXPECT_TRUE(report.witness_valid) << core::to_string(method);
  }
}

}  // namespace
}  // namespace mgrts
