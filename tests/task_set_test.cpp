#include "rt/task_set.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"
#include "testing.hpp"

namespace mgrts::rt {
namespace {

using mgrts::testing::example1;

TEST(TaskSet, Example1Basics) {
  const TaskSet ts = example1();
  EXPECT_EQ(ts.size(), 3);
  EXPECT_EQ(ts.hyperperiod(), 12);  // lcm(2, 4, 3)
  // U = 1/2 + 3/4 + 2/3 = 23/12.
  EXPECT_EQ(ts.utilization().num(), 23);
  EXPECT_EQ(ts.utilization().den(), 12);
  EXPECT_NEAR(ts.utilization_ratio(2), 23.0 / 24.0, 1e-12);
  EXPECT_FALSE(ts.exceeds_capacity(2));
  EXPECT_TRUE(ts.exceeds_capacity(1));
  EXPECT_EQ(ts.min_processors_bound(), 2);
  EXPECT_EQ(ts.max_offset(), 1);
}

TEST(TaskSet, JobCounts) {
  const TaskSet ts = example1();
  EXPECT_EQ(ts.jobs_per_hyperperiod(0), 6);
  EXPECT_EQ(ts.jobs_per_hyperperiod(1), 3);
  EXPECT_EQ(ts.jobs_per_hyperperiod(2), 4);
  EXPECT_EQ(ts.total_jobs(), 13);
  EXPECT_EQ(ts.total_demand(), 6 * 1 + 3 * 3 + 4 * 2);
}

TEST(TaskSet, DefaultNames) {
  const TaskSet ts = example1();
  EXPECT_EQ(ts[0].name, "tau1");
  EXPECT_EQ(ts[2].name, "tau3");
}

TEST(TaskSet, HeuristicQuantities) {
  const TaskSet ts = example1();
  EXPECT_EQ(ts[1].t_minus_c(), 1);
  EXPECT_EQ(ts[1].d_minus_c(), 1);
  EXPECT_EQ(ts[0].t_minus_c(), 1);
  EXPECT_EQ(ts[2].d_minus_c(), 0);
}

// ---------------------------------------------------------- validation

TEST(TaskSetValidation, RejectsZeroPeriod) {
  EXPECT_THROW(TaskSet::from_params({{0, 1, 1, 0}}), ValidationError);
}

TEST(TaskSetValidation, RejectsZeroWcet) {
  EXPECT_THROW(TaskSet::from_params({{0, 0, 1, 2}}), ValidationError);
}

TEST(TaskSetValidation, AcceptsWcetAboveDeadline) {
  // C > D is valid input: heterogeneous rate-s processors complete s units
  // per slot (see §VI-A); on identical platforms the system is simply
  // infeasible (covered by solver tests).
  const TaskSet ts = TaskSet::from_params({{0, 3, 2, 5}});
  EXPECT_EQ(ts[0].d_minus_c(), -1);
}

TEST(TaskSetValidation, RejectsZeroDeadline) {
  EXPECT_THROW(TaskSet::from_params({{0, 1, 0, 5}}), ValidationError);
}

TEST(TaskSetValidation, RejectsDeadlineAbovePeriodWhenConstrained) {
  EXPECT_THROW(TaskSet::from_params({{0, 1, 5, 4}}), ValidationError);
}

TEST(TaskSetValidation, AcceptsDeadlineAbovePeriodWhenArbitrary) {
  const TaskSet ts =
      TaskSet::from_params({{0, 1, 5, 4}}, DeadlineModel::kArbitrary);
  EXPECT_EQ(ts.size(), 1);
  EXPECT_FALSE(ts.is_constrained());
}

TEST(TaskSetValidation, RejectsNegativeOffset) {
  EXPECT_THROW(TaskSet::from_params({{-1, 1, 2, 2}}), ValidationError);
}

TEST(TaskSetValidation, RejectsOffsetAtOrBeyondPeriod) {
  EXPECT_THROW(TaskSet::from_params({{2, 1, 2, 2}}), ValidationError);
  EXPECT_THROW(TaskSet::from_params({{5, 1, 2, 2}}), ValidationError);
}

TEST(TaskSetValidation, HyperperiodOverflowDetected) {
  // Large pairwise-coprime periods overflow lcm.
  std::vector<TaskParams> params;
  for (const Time p :
       {1000000007LL, 1000000009LL, 999999937LL, 999999893LL}) {
    params.push_back({0, 1, p, p});
  }
  EXPECT_THROW(TaskSet::from_params(params), OverflowError);
}

TEST(TaskSetValidation, ErrorMessagesIdentifyTask) {
  try {
    // Second task violates D <= T under the constrained model.
    TaskSet::from_params({{0, 1, 2, 2}, {0, 1, 9, 5}});
    FAIL() << "expected ValidationError";
  } catch (const ValidationError& e) {
    EXPECT_NE(std::string(e.what()).find("task #2"), std::string::npos);
  }
}

// The label is built only when a rule fails; every message is pinned here
// in full, at a two-digit index and for a caller-given name.
TEST(TaskSetValidation, ErrorMessagesAreExact) {
  const auto message = [](std::vector<Task> tasks) {
    try {
      const TaskSet ts(std::move(tasks));
      return std::string("accepted, last name ") + ts[ts.size() - 1].name;
    } catch (const ValidationError& e) {
      return std::string(e.what());
    }
  };
  const auto eleven_then = [](TaskParams last) {
    std::vector<Task> tasks(11, Task{{0, 1, 2, 2}, ""});
    tasks.push_back(Task{last, ""});
    return tasks;
  };
  EXPECT_EQ(message(eleven_then({0, 1, 2, 2})), "accepted, last name tau12");
  EXPECT_EQ(message(eleven_then({0, 1, 2, 0})),
            "task #12 (tau12): period must be >= 1, got 0");
  EXPECT_EQ(message(eleven_then({0, 0, 2, 4})),
            "task #12 (tau12): WCET must be >= 1, got 0");
  EXPECT_EQ(message(eleven_then({0, 1, -5, 4})),
            "task #12 (tau12): deadline must be >= 1, got -5");
  EXPECT_EQ(message(eleven_then({5, 1, 2, 4})),
            "task #12 (tau12): offset must satisfy 0 <= O < T, got O=5 T=4");
  EXPECT_EQ(message(eleven_then({0, 1, 9, 4})),
            "task #12 (tau12): constrained-deadline model requires D <= T, "
            "got D=9 T=4");
  EXPECT_EQ(message({Task{{0, 0, 2, 4}, "sensor"}}),
            "task #1 (sensor): WCET must be >= 1, got 0");
}

// --------------------------------------------------------------- clones

TEST(Clones, ConstrainedTasksPassThrough) {
  const TaskSet ts = example1();
  const CloneExpansion expansion = ts.expand_clones();
  ASSERT_EQ(expansion.tasks.size(), 3u);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(expansion.tasks[c].params, ts[static_cast<TaskId>(c)].params);
    EXPECT_EQ(expansion.origin[c].original, static_cast<TaskId>(c));
    EXPECT_EQ(expansion.origin[c].clone, 0);
  }
}

TEST(Clones, PaperFormulaForArbitraryDeadline) {
  // D = 7, T = 3  =>  k = ceil(7/3) = 3 clones with period 9.
  const TaskSet ts =
      TaskSet::from_params({{1, 2, 7, 3}}, DeadlineModel::kArbitrary);
  const CloneExpansion expansion = ts.expand_clones();
  ASSERT_EQ(expansion.tasks.size(), 3u);
  for (std::int32_t c = 0; c < 3; ++c) {
    const auto& clone = expansion.tasks[static_cast<std::size_t>(c)];
    EXPECT_EQ(clone.params.offset, 1 + c * 3);  // O + (i'-1) T
    EXPECT_EQ(clone.params.wcet, 2);            // C unchanged
    EXPECT_EQ(clone.params.deadline, 7);        // D unchanged
    EXPECT_EQ(clone.params.period, 9);          // k * T
    EXPECT_EQ(expansion.origin[static_cast<std::size_t>(c)].clone, c);
  }
}

TEST(Clones, CloneNamesCarryIndices) {
  const TaskSet ts =
      TaskSet::from_params({{0, 1, 5, 2}}, DeadlineModel::kArbitrary);
  const CloneExpansion expansion = ts.expand_clones();
  ASSERT_EQ(expansion.tasks.size(), 3u);  // ceil(5/2) = 3
  EXPECT_EQ(expansion.tasks[0].name, "tau1.1");
  EXPECT_EQ(expansion.tasks[2].name, "tau1.3");
}

TEST(Clones, ToConstrainedIsValidConstrainedSystem) {
  const TaskSet ts = TaskSet::from_params(
      {{0, 1, 5, 2}, {1, 2, 3, 3}}, DeadlineModel::kArbitrary);
  const TaskSet constrained = ts.to_constrained();
  EXPECT_TRUE(constrained.is_constrained());
  // tau1: k=3 (period 6); tau2: k=1 (unchanged).
  EXPECT_EQ(constrained.size(), 4);
  // Every clone satisfies D <= T by construction.
  for (TaskId i = 0; i < constrained.size(); ++i) {
    EXPECT_LE(constrained[i].deadline(), constrained[i].period());
  }
}

TEST(Clones, ExactDeadlineMultipleOfPeriod) {
  // D = 2T: exactly 2 clones, no rounding artifacts.
  const TaskSet ts =
      TaskSet::from_params({{0, 1, 6, 3}}, DeadlineModel::kArbitrary);
  EXPECT_EQ(ts.expand_clones().tasks.size(), 2u);
}

TEST(Clones, UtilizationPreserved) {
  // Each original task contributes k_i clones with period k_i*T_i and the
  // same C: total utilization is unchanged.
  const TaskSet ts = TaskSet::from_params(
      {{0, 2, 9, 4}, {0, 1, 3, 3}}, DeadlineModel::kArbitrary);
  const TaskSet constrained = ts.to_constrained();
  EXPECT_EQ(ts.utilization(), constrained.utilization());
}

TEST(TaskSet, EmptySetHasUnitHyperperiod) {
  const TaskSet ts;
  EXPECT_TRUE(ts.empty());
  EXPECT_EQ(ts.hyperperiod(), 1);
}

}  // namespace
}  // namespace mgrts::rt
