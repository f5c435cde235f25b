#include "core/solve.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/instance_io.hpp"
#include "core/min_processors.hpp"
#include "rt/validate.hpp"
#include "support/error.hpp"
#include "testing.hpp"

namespace mgrts::core {
namespace {

using mgrts::testing::example1;
using rt::Platform;
using rt::TaskSet;

class AllMethods : public ::testing::TestWithParam<Method> {};

// The sweep tests disable the presolve pipeline so each backend answers
// for itself (core_pipeline_test covers the staged path).
TEST_P(AllMethods, Example1FeasibleOnTwoProcessors) {
  SolveConfig config;
  config.method = GetParam();
  config.time_limit_ms = 10'000;
  config.generic = choco_like_defaults(1);
  config.pipeline = PipelineOptions::none();
  const SolveReport report =
      solve_instance(example1(), Platform::identical(2), config);
  if (GetParam() == Method::kEdfSimulation) {
    // EDF is incomplete and actually misses on Example 1.
    EXPECT_EQ(report.verdict, Verdict::kInfeasible);
    EXPECT_FALSE(report.complete);
    return;
  }
  ASSERT_EQ(report.verdict, Verdict::kFeasible);
  EXPECT_TRUE(report.witness_valid) << report.detail;
  EXPECT_TRUE(report.schedule.has_value());
  if (GetParam() == Method::kPortfolio) {
    EXPECT_EQ(report.decided_by.rfind("portfolio:", 0), 0u)
        << report.decided_by;
  } else {
    EXPECT_EQ(report.decided_by,
              std::string("backend:") + to_string(GetParam()));
  }
}

TEST_P(AllMethods, Example1InfeasibleOnOneProcessor) {
  SolveConfig config;
  config.method = GetParam();
  config.time_limit_ms = 10'000;
  config.generic = choco_like_defaults(2);
  config.pipeline = PipelineOptions::none();
  config.localsearch.restarts = 2;  // keep the hopeless SAT search short
  config.localsearch.iterations_per_restart = 5'000;
  const SolveReport report =
      solve_instance(example1(), Platform::identical(1), config);
  if (GetParam() == Method::kLocalSearch) {
    // Local search can only find witnesses; on an infeasible instance it
    // gives up with kUnknown (§VIII's asymmetry).
    EXPECT_EQ(report.verdict, Verdict::kUnknown);
    EXPECT_FALSE(report.complete);
    return;
  }
  EXPECT_EQ(report.verdict, Verdict::kInfeasible);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllMethods,
    ::testing::Values(Method::kCsp1Generic, Method::kCsp2Generic,
                      Method::kCsp2Dedicated, Method::kFlowOracle,
                      Method::kEdfSimulation, Method::kLocalSearch,
                      Method::kPortfolio),
    [](const ::testing::TestParamInfo<Method>& info) {
      switch (info.param) {
        case Method::kCsp1Generic: return "csp1";
        case Method::kCsp2Generic: return "csp2gen";
        case Method::kCsp2Dedicated: return "csp2";
        case Method::kFlowOracle: return "flow";
        case Method::kEdfSimulation: return "edf";
        case Method::kLocalSearch: return "minconflicts";
        case Method::kPortfolio: return "portfolio";
      }
      return "other";
    });

TEST(SolveInstance, ArbitraryDeadlinesCloneTransparently) {
  const TaskSet ts = TaskSet::from_params({{0, 3, 4, 2}, {0, 1, 2, 2}},
                                          rt::DeadlineModel::kArbitrary);
  SolveConfig config;
  config.method = Method::kCsp2Dedicated;
  const SolveReport report =
      solve_instance(ts, Platform::identical(2), config);
  ASSERT_EQ(report.verdict, Verdict::kFeasible);
  ASSERT_TRUE(report.solved_tasks.has_value());
  EXPECT_EQ(report.solved_tasks->size(), 3);  // tau1 -> 2 clones + tau2
  EXPECT_TRUE(report.witness_valid);
  EXPECT_TRUE(rt::is_valid_schedule(*report.solved_tasks,
                                    Platform::identical(2), *report.schedule));
}

TEST(SolveInstance, MemoryLimitSurfacesAsVerdict) {
  SolveConfig config;
  config.method = Method::kCsp1Generic;
  config.pipeline = PipelineOptions::none();  // let the backend hit the wall
  config.limits.max_variables = 10;
  const SolveReport report =
      solve_instance(example1(), Platform::identical(2), config);
  EXPECT_EQ(report.verdict, Verdict::kMemoryLimit);
  EXPECT_FALSE(report.detail.empty());
}

TEST(SolveInstance, TimeLimitProducesTimeout) {
  // Large-ish CSP1 model with zero budget: building succeeds, search times
  // out at the first check.
  SolveConfig config;
  config.method = Method::kCsp1Generic;
  config.time_limit_ms = 0;
  std::vector<rt::TaskParams> params;
  for (int k = 0; k < 6; ++k) params.push_back({0, 2, 5, 6});
  const SolveReport report = solve_instance(TaskSet::from_params(params),
                                            Platform::identical(3), config);
  EXPECT_TRUE(report.verdict == Verdict::kTimeout ||
              report.verdict == Verdict::kFeasible);
}

TEST(SolveInstance, NodeLimitRespected) {
  SolveConfig config;
  config.method = Method::kCsp2Dedicated;
  config.pipeline = PipelineOptions::none();
  config.max_nodes = 1;
  std::vector<rt::TaskParams> params;
  for (int k = 0; k < 5; ++k) params.push_back({0, 1, 3, 4});
  const SolveReport report = solve_instance(TaskSet::from_params(params),
                                            Platform::identical(2), config);
  EXPECT_TRUE(report.verdict == Verdict::kNodeLimit ||
              report.verdict == Verdict::kFeasible);
}

// ------------------------------------------------------------ min processors

TEST(MinProcessors, Example1NeedsExactlyTwo) {
  const MinProcessorsResult result = min_processors(example1());
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.lower_bound, 2);
  EXPECT_EQ(result.processors, 2);
  EXPECT_TRUE(result.report.witness_valid);
  EXPECT_EQ(result.trail.size(), 1u);  // feasible at the first try
}

TEST(MinProcessors, TightWindowsNeedMoreThanCeilU) {
  // Two D=1 tasks wanting the same slot: ceil(U) = 1 but m = 2 required.
  const TaskSet ts = TaskSet::from_params({{0, 1, 1, 2}, {0, 1, 1, 2}});
  const MinProcessorsResult result = min_processors(ts);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.lower_bound, 1);
  EXPECT_EQ(result.processors, 2);
  EXPECT_EQ(result.trail.size(), 2u);
  EXPECT_EQ(result.trail[0], Verdict::kInfeasible);
  EXPECT_EQ(result.trail[1], Verdict::kFeasible);
}

TEST(MinProcessors, ArbitraryDeadlineInputAccepted) {
  const TaskSet ts = TaskSet::from_params({{0, 3, 4, 2}},
                                          rt::DeadlineModel::kArbitrary);
  const MinProcessorsResult result = min_processors(ts);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.processors, 2);  // two clones must overlap
}

TEST(MinProcessors, UndecidedRunStopsSearch) {
  SolveConfig config;
  config.method = Method::kCsp2Dedicated;
  config.pipeline = PipelineOptions::none();  // presolve would decide m=2
  config.max_nodes = 0;  // every run exhausts instantly
  const MinProcessorsResult result = min_processors(example1(), config);
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.trail.size(), 1u);
  EXPECT_EQ(result.trail[0], Verdict::kNodeLimit);
}

// -------------------------------------------------------------- instance IO

TEST(InstanceIo, RoundTripIdentical) {
  const TaskSet ts = example1();
  const Platform p = Platform::identical(2);
  const std::string text = write_instance_string(ts, p);
  const InstanceFile file = read_instance_string(text);
  EXPECT_EQ(file.tasks.size(), 3);
  for (rt::TaskId i = 0; i < 3; ++i) {
    EXPECT_EQ(file.tasks[i].params, ts[i].params);
  }
  EXPECT_EQ(file.platform.processors(), 2);
  EXPECT_TRUE(file.platform.is_identical());
}

TEST(InstanceIo, RoundTripHeterogeneous) {
  const TaskSet ts = TaskSet::from_params({{0, 1, 1, 1}, {0, 1, 1, 1}});
  const Platform p = Platform::heterogeneous({{1, 0}, {2, 3}});
  const InstanceFile file =
      read_instance_string(write_instance_string(ts, p));
  EXPECT_FALSE(file.platform.is_identical());
  EXPECT_EQ(file.platform.rate(0, 1), 0);
  EXPECT_EQ(file.platform.rate(1, 0), 2);
  EXPECT_EQ(file.platform.rate(1, 1), 3);
}

TEST(InstanceIo, RoundTripArbitraryDeadlineModel) {
  const TaskSet ts = TaskSet::from_params({{0, 1, 5, 4}},
                                          rt::DeadlineModel::kArbitrary);
  const InstanceFile file = read_instance_string(
      write_instance_string(ts, Platform::identical(1)));
  EXPECT_FALSE(file.tasks.is_constrained());
  EXPECT_EQ(file.tasks[0].deadline(), 5);
}

TEST(InstanceIo, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "# a comment\n\n  tasks 1\n# another\n0 1 2 2\n\nprocessors 1\n";
  const InstanceFile file = read_instance_string(text);
  EXPECT_EQ(file.tasks.size(), 1);
}

TEST(InstanceIo, ParseErrorsNameTheLine) {
  try {
    static_cast<void>(read_instance_string("tasks 2\n0 1 2 2\noops\n"));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(InstanceIo, RejectsMissingProcessors) {
  EXPECT_THROW(static_cast<void>(read_instance_string("tasks 1\n0 1 2 2\n")),
               ParseError);
}

TEST(InstanceIo, RejectsTrailingGarbageOnTaskLine) {
  EXPECT_THROW(static_cast<void>(read_instance_string(
                   "tasks 1\n0 1 2 2 9\nprocessors 1\n")),
               ParseError);
}

TEST(InstanceIo, RejectsUnknownDirective) {
  EXPECT_THROW(static_cast<void>(read_instance_string(
                   "tasks 1\n0 1 2 2\nprocessors 1\nbogus 3\n")),
               ParseError);
}

TEST(InstanceIo, InvalidTaskParametersRaiseValidationError) {
  // D > T under the (default) constrained model.
  EXPECT_THROW(static_cast<void>(read_instance_string(
                   "tasks 1\n0 1 5 2\nprocessors 1\n")),
               ValidationError);
}

TEST(InstanceIo, SolveRoundTrippedInstance) {
  const InstanceFile file = read_instance_string(
      write_instance_string(example1(), Platform::identical(2)));
  const SolveReport report = solve_instance(file.tasks, file.platform);
  EXPECT_EQ(report.verdict, Verdict::kFeasible);
}

}  // namespace
}  // namespace mgrts::core
