#include "analysis/tests.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis_reference.hpp"
#include "flow/oracle.hpp"
#include "gen/generator.hpp"
#include "rt/platform.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "testing.hpp"

namespace mgrts::analysis {
namespace {

using mgrts::testing::example1;
using rt::TaskSet;

TEST(UtilizationTest, FlagsOverCapacity) {
  const auto result = utilization_test(example1(), 1);  // U = 23/12 > 1
  EXPECT_EQ(result.verdict, TestVerdict::kInfeasible);
  EXPECT_NE(result.detail.find("23/12"), std::string::npos);
}

TEST(UtilizationTest, ExactBoundaryIsUnknown) {
  // U = m exactly: the necessary condition is satisfied, so no verdict.
  const TaskSet ts = TaskSet::from_params({{0, 2, 2, 2}, {0, 2, 2, 2}});
  EXPECT_EQ(utilization_test(ts, 2).verdict, TestVerdict::kUnknown);
}

TEST(WindowFitTest, FlagsWcetBeyondDeadline) {
  const TaskSet ts = TaskSet::from_params({{0, 3, 2, 5}});
  const auto result = window_fit_test(ts, 4);
  EXPECT_EQ(result.verdict, TestVerdict::kInfeasible);
  EXPECT_NE(result.detail.find("tau1"), std::string::npos);
}

TEST(WindowFitTest, PassesWellFormedTasks) {
  EXPECT_EQ(window_fit_test(example1(), 2).verdict, TestVerdict::kUnknown);
}

TEST(ForcedDemandTest, CatchesTightWindowOverload) {
  // Two D=1 jobs demand 2 units in [0, 1): infeasible on one processor
  // although U = 1 (the utilization filter cannot see it).
  const TaskSet ts = TaskSet::from_params({{0, 1, 1, 2}, {0, 1, 1, 2}});
  EXPECT_EQ(utilization_test(ts, 1).verdict, TestVerdict::kUnknown);
  const auto result = forced_demand_test(ts, 1);
  EXPECT_EQ(result.verdict, TestVerdict::kInfeasible);
  EXPECT_NE(result.detail.find("demand(1)"), std::string::npos);
}

TEST(ForcedDemandTest, RespectsOffsets) {
  // The same two tight tasks, but one shifted by a slot: feasible on one
  // processor, and the prefix test must stay silent.
  const TaskSet ts = TaskSet::from_params({{0, 1, 1, 2}, {1, 1, 1, 2}});
  EXPECT_EQ(forced_demand_test(ts, 1).verdict, TestVerdict::kUnknown);
  EXPECT_TRUE(flow::is_feasible(ts, rt::Platform::identical(1)));
}

TEST(ForcedDemandTest, EventCapKeepsItSilentNotWrong) {
  const TaskSet ts = TaskSet::from_params({{0, 1, 1, 2}, {0, 1, 1, 2}});
  // With a 1-event budget the violating second event is never reached.
  const auto result = forced_demand_test(ts, 1, /*max_events=*/1);
  EXPECT_EQ(result.verdict, TestVerdict::kUnknown);
}

TEST(ForcedDemandTest, DetailReportsTheWholeDemandAtL) {
  // Three D=1 windows end at L=1 on one processor: demand(1) is 3.  The
  // second end alone already breaks m*L; the detail still sums all three,
  // on the table sweep and on the capped heap walk (a cap of 2 ends).
  const TaskSet ts =
      TaskSet::from_params({{0, 1, 1, 2}, {0, 1, 1, 2}, {0, 1, 1, 2}});
  for (const std::int64_t cap : {std::int64_t{200'000}, std::int64_t{2}}) {
    const auto result = forced_demand_test(ts, 1, cap);
    EXPECT_EQ(result.verdict, TestVerdict::kInfeasible) << cap;
    EXPECT_EQ(result.detail, "demand(1) = 3 > m*L = 1") << cap;
  }
  EXPECT_EQ(forced_demand_test(ts, 1, 1).verdict, TestVerdict::kUnknown);
}

// ---------------------------------------- forced-demand differential
//
// The table sweep against the heap walk of analysis_reference.hpp: the
// same verdict and the same first violating L on every instance, and for
// every event cap from 1 up to past the number of window ends.

/// The L of a "demand(L) = ..." detail, or -1 for a silent result.
rt::Time violating_l(const TestResult& result) {
  if (result.verdict != TestVerdict::kInfeasible) return -1;
  const std::size_t open = result.detail.find("demand(");
  EXPECT_EQ(open, 0u) << result.detail;
  return std::stoll(result.detail.substr(open + 7));
}

/// The window ends in [0, T].
std::int64_t window_ends(const TaskSet& ts) {
  std::int64_t ends = 0;
  for (rt::TaskId i = 0; i < ts.size(); ++i) {
    for (rt::Time at = ts[i].offset() + ts[i].deadline();
         at <= ts.hyperperiod(); at += ts[i].period()) {
      ++ends;
    }
  }
  return ends;
}

TEST(ForcedDemandDifferential, MatchesTheHeapWalk) {
  int checked = 0;
  int violated = 0;
  int capped = 0;
  const auto check = [&](const TaskSet& ts, std::int32_t m,
                         const char* family, std::uint64_t index,
                         bool every_cap) {
    SCOPED_TRACE(::testing::Message() << family << " #" << index);
    const auto got = forced_demand_test(ts, m);
    const auto want = reference::forced_demand_test(ts, m);
    ++checked;
    ASSERT_EQ(got.verdict, want.verdict);
    ASSERT_EQ(violating_l(got), violating_l(want));
    if (got.verdict == TestVerdict::kInfeasible) ++violated;
    if (!every_cap) return;
    const std::int64_t ends = window_ends(ts);
    for (std::int64_t cap = 1; cap <= ends + 2; ++cap) {
      const auto got_capped = forced_demand_test(ts, m, cap);
      const auto want_capped = reference::forced_demand_test(ts, m, cap);
      ++capped;
      ASSERT_EQ(got_capped.verdict, want_capped.verdict) << "cap " << cap;
      ASSERT_EQ(violating_l(got_capped), violating_l(want_capped))
          << "cap " << cap;
    }
  };

  gen::GeneratorOptions table1;
  for (std::uint64_t k = 0; k < 1'500; ++k) {
    const auto inst = gen::generate_indexed(table1, 1, k);
    check(inst.tasks, inst.processors, "table-I", k, k < 40);
  }
  gen::GeneratorOptions offsets;
  offsets.tasks = 6;
  offsets.t_max = 8;
  offsets.with_offsets = true;
  for (std::uint64_t k = 0; k < 1'500; ++k) {
    offsets.processors = 1 + static_cast<std::int32_t>(k % 4);
    const auto inst = gen::generate_indexed(offsets, 7, k);
    check(inst.tasks, inst.processors, "offsets", k, k < 40);
  }
  // Arbitrary deadlines (D up to 2T), clone-expanded.
  support::Rng rng(20'090'911);
  for (std::uint64_t k = 0; k < 600; ++k) {
    std::vector<rt::TaskParams> params;
    const auto n = rng.uniform(2, 5);
    for (std::int64_t i = 0; i < n; ++i) {
      const rt::Time period = rng.uniform(2, 6);
      const rt::Time wcet = rng.uniform(1, period);
      params.push_back({rng.uniform(0, period - 1), wcet,
                        rng.uniform(wcet, 2 * period), period});
    }
    const TaskSet clones =
        TaskSet::from_params(params, rt::DeadlineModel::kArbitrary)
            .to_constrained();
    check(clones, static_cast<std::int32_t>(rng.uniform(1, 3)), "clones", k,
          k < 40);
  }
  // Large hyperperiods, swept over many blocks: a few tasks with coprime
  // periods, some short and tight to force violations.
  const rt::Time periods[] = {7, 9, 11, 13, 16, 17, 19, 25, 27, 32, 49, 64};
  for (std::uint64_t k = 0; k < 200; ++k) {
    std::vector<rt::TaskParams> params;
    const auto n = rng.uniform(2, 5);
    for (std::int64_t i = 0; i < n; ++i) {
      const rt::Time period = periods[rng.uniform(0, 11)];
      const rt::Time deadline = rng.uniform(1, period);
      params.push_back({rng.uniform(0, period - deadline),
                        rng.uniform(1, deadline), deadline, period});
    }
    const TaskSet ts = TaskSet::from_params(params);
    check(ts, static_cast<std::int32_t>(rng.uniform(1, 2)), "large T", k,
          false);
  }
  // Sparse large hyperperiods, mostly more than 24 slots per window end:
  // the heap walk's side of the sweep's limit.
  const rt::Time long_periods[] = {81, 100, 121, 125, 128, 169, 243, 256, 289,
                                   343};
  int sparse = 0;
  for (std::uint64_t k = 0; k < 100; ++k) {
    std::vector<rt::TaskParams> params;
    const auto n = rng.uniform(1, 3);
    for (std::int64_t i = 0; i < n; ++i) {
      const rt::Time period = long_periods[rng.uniform(0, 9)];
      const rt::Time deadline = rng.uniform(1, period);
      params.push_back({rng.uniform(0, period - deadline),
                        rng.uniform(1, deadline), deadline, period});
    }
    const TaskSet ts = TaskSet::from_params(params);
    if (ts.hyperperiod() / 24 > window_ends(ts)) ++sparse;
    check(ts, static_cast<std::int32_t>(rng.uniform(1, 2)), "sparse T", k,
          false);
  }
  // A first violation past the sweep's first block of 1,024 slots: m
  // filler tasks with C = D = T keep demand(L) <= m*L, and one task whose
  // first window ends after slot 1,024 tips it over there or at the next L
  // where the fillers' windows all end.
  const rt::Time late_periods[] = {1'291, 1'543};
  int late = 0;
  for (std::uint64_t k = 0; k < 100; ++k) {
    const auto m = static_cast<std::int32_t>(rng.uniform(1, 2));
    std::vector<rt::TaskParams> params;
    for (std::int32_t j = 0; j < m; ++j) {
      const rt::Time period = rng.uniform(1, 4);
      params.push_back({0, period, period, period});
    }
    const rt::Time period = late_periods[rng.uniform(0, 1)];
    const rt::Time deadline = rng.uniform(1, 8);
    params.push_back({rng.uniform(1'024, period - deadline),
                      rng.uniform(1, deadline), deadline, period});
    const TaskSet ts = TaskSet::from_params(params);
    if (violating_l(reference::forced_demand_test(ts, m)) > 1'024) ++late;
    check(ts, m, "late", k, false);
  }
  EXPECT_EQ(checked, 4'000);
  EXPECT_GT(violated, 400);
  EXPECT_GT(capped, 10'000);
  EXPECT_GT(sparse, 90);
  EXPECT_EQ(late, 100);
}

TEST(DensityTest, SufficientCondition) {
  // densities 1/2 + 1/3 <= 1: feasible on one processor.
  const TaskSet ts = TaskSet::from_params({{0, 1, 2, 4}, {0, 1, 3, 3}});
  const auto result = density_test(ts, 1);
  EXPECT_EQ(result.verdict, TestVerdict::kFeasible);
  EXPECT_TRUE(flow::is_feasible(ts, rt::Platform::identical(1)));
}

TEST(DensityTest, SilentAboveBound) {
  EXPECT_EQ(density_test(example1(), 2).verdict, TestVerdict::kUnknown);
}

TEST(QuickDecide, PicksSomeVerdictWhenPossible) {
  EXPECT_EQ(quick_decide(example1(), 1).verdict, TestVerdict::kInfeasible);
  const TaskSet light = TaskSet::from_params({{0, 1, 4, 4}, {0, 1, 4, 4}});
  EXPECT_EQ(quick_decide(light, 2).verdict, TestVerdict::kFeasible);
  EXPECT_EQ(quick_decide(example1(), 2).verdict, TestVerdict::kUnknown);
}

TEST(QuickDecide, RejectsArbitraryDeadlines) {
  const TaskSet ts =
      TaskSet::from_params({{0, 1, 5, 4}}, rt::DeadlineModel::kArbitrary);
  EXPECT_THROW(static_cast<void>(quick_decide(ts, 1)), ValidationError);
}

// Soundness sweep: analytical verdicts must never contradict the oracle.
struct AnalysisSweep {
  std::uint64_t seed;
  bool offsets;
};

class AnalysisSoundness : public ::testing::TestWithParam<AnalysisSweep> {};

TEST_P(AnalysisSoundness, NeverContradictsOracle) {
  const auto [seed, offsets] = GetParam();
  int decided = 0;
  for (std::uint64_t k = 0; k < 120; ++k) {
    gen::GeneratorOptions gopt;
    gopt.tasks = 5;
    gopt.processors = 2;
    gopt.t_max = 6;
    gopt.with_offsets = offsets;
    const auto inst = gen::generate_indexed(gopt, seed, k);
    const rt::Platform p = rt::Platform::identical(inst.processors);
    const auto verdict = quick_decide(inst.tasks, inst.processors).verdict;
    if (verdict == TestVerdict::kUnknown) continue;
    ++decided;
    EXPECT_EQ(verdict == TestVerdict::kFeasible,
              flow::is_feasible(inst.tasks, p))
        << "instance " << k;
  }
  EXPECT_GT(decided, 20);  // the filters must actually bite
}

INSTANTIATE_TEST_SUITE_P(Sweep, AnalysisSoundness,
                         ::testing::Values(AnalysisSweep{21, false},
                                           AnalysisSweep{22, true},
                                           AnalysisSweep{23, false},
                                           AnalysisSweep{24, true}),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param.seed) +
                                  (info.param.offsets ? "off" : "sync");
                         });

}  // namespace
}  // namespace mgrts::analysis
