#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "csp2/csp2.hpp"
#include "gen/generator.hpp"
#include "rt/validate.hpp"
#include "support/error.hpp"
#include "testing.hpp"

namespace mgrts::sim {
namespace {

using mgrts::testing::dhall2;
using mgrts::testing::example1;
using mgrts::testing::light3;
using rt::Platform;
using rt::TaskSet;

TEST(Simulator, LightLoadSchedulableUnderEdf) {
  const TaskSet ts = light3();
  const Platform p = Platform::identical(2);
  const SimResult result = simulate(ts, p);
  ASSERT_EQ(result.status, SimStatus::kSchedulable);
  ASSERT_TRUE(result.schedule.has_value());
  EXPECT_TRUE(rt::is_valid_schedule(ts, p, *result.schedule));
}

TEST(Simulator, DhallEffectEdfMisses) {
  // The classic global-EDF anomaly: two light tasks occupy both processors
  // at t=0 (equal deadlines), starving the heavy task.  The instance itself
  // is feasible (csp2 test) — this is the paper's motivation for exact
  // approaches.
  const SimResult result = simulate(dhall2(), Platform::identical(2));
  EXPECT_EQ(result.status, SimStatus::kDeadlineMiss);
  EXPECT_EQ(result.miss_task, 2);
  EXPECT_EQ(result.miss_time, 2);
}

TEST(Simulator, DhallInstanceFeasibleForCsp2) {
  const auto result = csp2::solve(dhall2(), Platform::identical(2));
  EXPECT_EQ(result.status, csp2::Status::kFeasible);
}

TEST(Simulator, OffsetTasksConverge) {
  const TaskSet ts = example1();
  const SimResult result = simulate(ts, Platform::identical(3));
  // With three processors EDF has enough slack; the steady state must
  // appear and produce a valid cyclic witness.
  ASSERT_EQ(result.status, SimStatus::kSchedulable);
  if (result.schedule.has_value()) {
    EXPECT_TRUE(
        rt::is_valid_schedule(ts, Platform::identical(3), *result.schedule));
  }
}

TEST(Simulator, SingleTaskOnSingleProcessor) {
  const TaskSet ts = TaskSet::from_params({{0, 2, 3, 4}});
  const SimResult result = simulate(ts, Platform::identical(1));
  ASSERT_EQ(result.status, SimStatus::kSchedulable);
  ASSERT_TRUE(result.schedule.has_value());
  EXPECT_EQ(result.schedule->units_of(0), 2);
}

TEST(Simulator, OverloadMissesQuickly) {
  const SimResult result =
      simulate(mgrts::testing::overloaded1(), Platform::identical(1));
  EXPECT_EQ(result.status, SimStatus::kDeadlineMiss);
  EXPECT_GE(result.miss_time, 0);
}

TEST(Simulator, RejectsHeterogeneousPlatform) {
  EXPECT_THROW(
      static_cast<void>(simulate(example1(),
                                 Platform::heterogeneous({{1}, {1}, {1}}))),
      ValidationError);
}

TEST(Simulator, RejectsArbitraryDeadlines) {
  const TaskSet ts =
      TaskSet::from_params({{0, 1, 5, 4}}, rt::DeadlineModel::kArbitrary);
  EXPECT_THROW(static_cast<void>(simulate(ts, Platform::identical(1))),
               ValidationError);
}

TEST(Simulator, EdfWitnessAlwaysValidWhenPresent) {
  // Property sweep: every schedulable-with-witness verdict validates.
  int schedulable = 0;
  for (std::uint64_t k = 0; k < 60; ++k) {
    gen::GeneratorOptions options;
    options.tasks = 4;
    options.processors = 2;
    options.t_max = 6;
    options.with_offsets = (k % 2 == 0);
    const auto inst = gen::generate_indexed(options, 808, k);
    const Platform p = Platform::identical(inst.processors);
    const SimResult result = simulate(inst.tasks, p);
    if (result.status == SimStatus::kSchedulable &&
        result.schedule.has_value()) {
      ++schedulable;
      EXPECT_TRUE(rt::is_valid_schedule(inst.tasks, p, *result.schedule))
          << "instance " << k;
    }
  }
  EXPECT_GT(schedulable, 5);
}

}  // namespace
}  // namespace mgrts::sim
