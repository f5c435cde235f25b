#include "csp2/csp2.hpp"

#include <gtest/gtest.h>

#include "flow/oracle.hpp"
#include "gen/generator.hpp"
#include "rt/validate.hpp"
#include "support/error.hpp"
#include "testing.hpp"

namespace mgrts::csp2 {
namespace {

using mgrts::testing::dhall2;
using mgrts::testing::example1;
using rt::Platform;
using rt::TaskSet;

// ------------------------------------------------------------ value orders

TEST(ValueOrder, RateMonotonicSortsByPeriod) {
  // Periods: 2, 4, 3 -> RM order 0, 2, 1.
  const auto order = value_order_tasks(example1(), ValueOrder::kRateMonotonic);
  EXPECT_EQ(order, (std::vector<rt::TaskId>{0, 2, 1}));
}

TEST(ValueOrder, DeadlineMonotonicSortsByDeadline) {
  // Deadlines: 2, 4, 2 -> DM order 0, 2, 1 (tie 0/2 broken by id).
  const auto order =
      value_order_tasks(example1(), ValueOrder::kDeadlineMonotonic);
  EXPECT_EQ(order, (std::vector<rt::TaskId>{0, 2, 1}));
}

TEST(ValueOrder, TMinusCAndDMinusC) {
  // T-C: 1, 1, 1 -> input order by tie-break.
  EXPECT_EQ(value_order_tasks(example1(), ValueOrder::kTMinusC),
            (std::vector<rt::TaskId>{0, 1, 2}));
  // D-C: 1, 1, 0 -> tau3 first.
  EXPECT_EQ(value_order_tasks(example1(), ValueOrder::kDMinusC),
            (std::vector<rt::TaskId>{2, 0, 1}));
}

TEST(ValueOrder, InputIsIdentity) {
  EXPECT_EQ(value_order_tasks(example1(), ValueOrder::kInput),
            (std::vector<rt::TaskId>{0, 1, 2}));
}

TEST(ValueOrder, Names) {
  EXPECT_STREQ(to_string(ValueOrder::kInput), "CSP2");
  EXPECT_STREQ(to_string(ValueOrder::kDMinusC), "CSP2+(D-C)");
}

TEST(ValueOrder, GoldenPermutationsWithTieByTaskId) {
  // All four §V-C2 heuristics on one task set with deliberate key ties —
  // tau0 and tau1 are exact duplicates, so every heuristic must order them
  // by task id.  Params (O, C, D, T):
  //   tau0 (0,1,3,4): RM key 4, DM 3, T-C 3, D-C 2
  //   tau1 (0,1,3,4): identical keys -> always after tau0
  //   tau2 (0,2,2,4): RM 4, DM 2, T-C 2, D-C 0
  //   tau3 (0,1,2,3): RM 3, DM 2, T-C 2, D-C 1
  const TaskSet ts = TaskSet::from_params(
      {{0, 1, 3, 4}, {0, 1, 3, 4}, {0, 2, 2, 4}, {0, 1, 2, 3}});
  EXPECT_EQ(value_order_tasks(ts, ValueOrder::kInput),
            (std::vector<rt::TaskId>{0, 1, 2, 3}));
  // RM: periods 4, 4, 4, 3 -> tau3, then the 4-tie in id order.
  EXPECT_EQ(value_order_tasks(ts, ValueOrder::kRateMonotonic),
            (std::vector<rt::TaskId>{3, 0, 1, 2}));
  // DM: deadlines 3, 3, 2, 2 -> ties (2,3) then (0,1), both by id.
  EXPECT_EQ(value_order_tasks(ts, ValueOrder::kDeadlineMonotonic),
            (std::vector<rt::TaskId>{2, 3, 0, 1}));
  // T-C: 3, 3, 2, 2 -> same tie structure as DM.
  EXPECT_EQ(value_order_tasks(ts, ValueOrder::kTMinusC),
            (std::vector<rt::TaskId>{2, 3, 0, 1}));
  // D-C: 2, 2, 0, 1 -> tau2, tau3, then the duplicate pair by id.
  EXPECT_EQ(value_order_tasks(ts, ValueOrder::kDMinusC),
            (std::vector<rt::TaskId>{2, 3, 0, 1}));
}

TEST(ValueOrder, InformedOrdersLineUpMatchesPaper) {
  const auto& orders = informed_value_orders();
  ASSERT_EQ(orders.size(), 4u);
  EXPECT_EQ(orders[0], ValueOrder::kRateMonotonic);
  EXPECT_EQ(orders[1], ValueOrder::kDeadlineMonotonic);
  EXPECT_EQ(orders[2], ValueOrder::kTMinusC);
  EXPECT_EQ(orders[3], ValueOrder::kDMinusC);
}

// ------------------------------------------------------------------ solving

class AllHeuristics : public ::testing::TestWithParam<ValueOrder> {};

TEST_P(AllHeuristics, SolvesExample1WithValidWitness) {
  Options options;
  options.value_order = GetParam();
  const Result result =
      solve(example1(), Platform::identical(2), options);
  ASSERT_EQ(result.status, Status::kFeasible);
  ASSERT_TRUE(result.schedule.has_value());
  EXPECT_TRUE(rt::is_valid_schedule(example1(), Platform::identical(2),
                                    *result.schedule));
  EXPECT_TRUE(result.search_complete);
}

TEST_P(AllHeuristics, ProvesExample1InfeasibleOnOneProcessor) {
  Options options;
  options.value_order = GetParam();
  const Result result = solve(example1(), Platform::identical(1), options);
  EXPECT_EQ(result.status, Status::kInfeasible);
  EXPECT_TRUE(result.search_complete);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllHeuristics,
    ::testing::Values(ValueOrder::kInput, ValueOrder::kRateMonotonic,
                      ValueOrder::kDeadlineMonotonic, ValueOrder::kTMinusC,
                      ValueOrder::kDMinusC),
    [](const ::testing::TestParamInfo<ValueOrder>& info) {
      switch (info.param) {
        case ValueOrder::kInput: return "input";
        case ValueOrder::kRateMonotonic: return "RM";
        case ValueOrder::kDeadlineMonotonic: return "DM";
        case ValueOrder::kTMinusC: return "TmC";
        case ValueOrder::kDMinusC: return "DmC";
      }
      return "other";
    });

TEST(Csp2, DhallInstanceFeasible) {
  // Global EDF famously misses here (see sim tests); the CSP approach does
  // not: tau3 saturates one core, the light tasks share the other.
  const Result result = solve(dhall2(), Platform::identical(2));
  ASSERT_EQ(result.status, Status::kFeasible);
  EXPECT_TRUE(rt::is_valid_schedule(dhall2(), Platform::identical(2),
                                    *result.schedule));
}

TEST(Csp2, DeterministicAcrossRuns) {
  // §VII-B: "our CSP2 solver is completely deterministic".
  const Result a = solve(example1(), Platform::identical(2));
  const Result b = solve(example1(), Platform::identical(2));
  ASSERT_EQ(a.status, Status::kFeasible);
  ASSERT_EQ(b.status, Status::kFeasible);
  EXPECT_EQ(*a.schedule, *b.schedule);
  EXPECT_EQ(a.stats.nodes, b.stats.nodes);
}

TEST(Csp2, StatsPopulated) {
  const Result result = solve(example1(), Platform::identical(2));
  EXPECT_GT(result.stats.nodes, 0);
  EXPECT_EQ(result.stats.max_column, 11);
  EXPECT_GE(result.stats.seconds, 0.0);
}

TEST(Csp2, TimeoutHonored) {
  // A hard instance: near-capacity with many tasks; 0 ms budget must
  // return immediately with kTimeout (or decide instantly, which small
  // instances may).
  Options options;
  options.deadline = support::Deadline::after_ms(0);
  const Result result = solve(example1(), Platform::identical(2), options);
  EXPECT_TRUE(result.status == Status::kTimeout ||
              result.status == Status::kFeasible);
}

TEST(Csp2, NodeLimitHonored) {
  Options options;
  options.max_nodes = 3;
  const Result result = solve(example1(), Platform::identical(2), options);
  EXPECT_TRUE(result.status == Status::kNodeLimit ||
              result.status == Status::kFeasible);
  if (result.status == Status::kNodeLimit) {
    EXPECT_LE(result.stats.nodes, 4);
  }
}

TEST(Csp2, RejectsArbitraryDeadlineInput) {
  const TaskSet ts =
      TaskSet::from_params({{0, 1, 5, 4}}, rt::DeadlineModel::kArbitrary);
  EXPECT_THROW(static_cast<void>(solve(ts, Platform::identical(1))),
               ValidationError);
}

TEST(Csp2, SolvesCloneExpandedArbitraryDeadlines) {
  const TaskSet ts = TaskSet::from_params({{0, 3, 4, 2}, {0, 1, 2, 2}},
                                          rt::DeadlineModel::kArbitrary);
  const TaskSet clones = ts.to_constrained();
  const Platform p = Platform::identical(2);
  const Result result = solve(clones, p);
  ASSERT_EQ(result.status, Status::kFeasible);
  EXPECT_TRUE(rt::is_valid_schedule(clones, p, *result.schedule));
}

// --------------------------------------------------------- rule soundness

struct RuleParam {
  bool idle_rule;
  bool symmetry_rule;
  bool slack;
  bool demand;
  int min_decided;  ///< of the 60 instances, within the node budget
};

class RuleSoundness : public ::testing::TestWithParam<RuleParam> {};

TEST_P(RuleSoundness, VerdictsMatchOracleOnIdenticalPlatforms) {
  // All four switches preserve the feasibility verdict on identical
  // platforms (rules 1/2 by the exchange/canonicity arguments, pruning by
  // being necessary conditions).  A node budget bounds the rule-less
  // configurations; every decided verdict must match the oracle, and each
  // configuration must still decide its pinned share of the family.
  const auto param = GetParam();
  int decided = 0;
  for (std::uint64_t k = 0; k < 60; ++k) {
    gen::GeneratorOptions gopt;
    gopt.tasks = 4;
    gopt.processors = 2;
    gopt.t_max = 5;
    gopt.with_offsets = (k % 2 == 1);
    const auto inst = gen::generate_indexed(gopt, 31, k);
    const Platform p = Platform::identical(inst.processors);
    const bool oracle = flow::is_feasible(inst.tasks, p);

    Options options;
    options.idle_rule = param.idle_rule;
    options.symmetry_rule = param.symmetry_rule;
    options.slack_prune = param.slack;
    options.tight_demand_prune = param.demand;
    options.max_nodes = 1'000'000;
    const Result result = solve(inst.tasks, p, options);
    if (result.status == Status::kNodeLimit) continue;
    ASSERT_TRUE(result.status == Status::kFeasible ||
                result.status == Status::kInfeasible);
    ++decided;
    EXPECT_EQ(result.status == Status::kFeasible, oracle) << "instance " << k;
    if (result.schedule.has_value()) {
      EXPECT_TRUE(rt::is_valid_schedule(inst.tasks, p, *result.schedule));
    }
  }
  EXPECT_GE(decided, param.min_decided);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RuleSoundness,
    ::testing::Values(RuleParam{true, true, true, true, 60},
                      RuleParam{false, true, true, true, 60},
                      RuleParam{true, false, true, true, 59},
                      RuleParam{true, true, false, false, 60},
                      RuleParam{false, false, false, false, 55}),
    [](const ::testing::TestParamInfo<RuleParam>& info) {
      std::string name;
      name += info.param.idle_rule ? "idle" : "noidle";
      name += info.param.symmetry_rule ? "_sym" : "_nosym";
      name += info.param.slack ? "_slack" : "_noslack";
      name += info.param.demand ? "_demand" : "_nodemand";
      return name;
    });

class HeuristicSoundness : public ::testing::TestWithParam<ValueOrder> {};

TEST_P(HeuristicSoundness, RankSymmetryAgreesWithOracleUnderEveryOrder) {
  // Rule 2 breaks symmetry on value-order *ranks* (DESIGN.md §3.4b); the
  // canonical form therefore depends on the heuristic.  Verdicts must
  // still match the oracle for every ordering.
  for (std::uint64_t k = 0; k < 40; ++k) {
    gen::GeneratorOptions gopt;
    gopt.tasks = 5;
    gopt.processors = 2;
    gopt.t_max = 5;
    gopt.with_offsets = (k % 3 == 0);
    const auto inst = gen::generate_indexed(gopt, 1337, k);
    const Platform p = Platform::identical(inst.processors);
    const bool oracle = flow::is_feasible(inst.tasks, p);
    Options options;
    options.value_order = GetParam();
    const Result result = solve(inst.tasks, p, options);
    ASSERT_TRUE(result.status == Status::kFeasible ||
                result.status == Status::kInfeasible);
    EXPECT_EQ(result.status == Status::kFeasible, oracle) << "instance " << k;
    if (result.schedule.has_value()) {
      EXPECT_TRUE(rt::is_valid_schedule(inst.tasks, p, *result.schedule))
          << "instance " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HeuristicSoundness,
    ::testing::Values(ValueOrder::kInput, ValueOrder::kRateMonotonic,
                      ValueOrder::kDeadlineMonotonic, ValueOrder::kTMinusC,
                      ValueOrder::kDMinusC),
    [](const ::testing::TestParamInfo<ValueOrder>& info) {
      switch (info.param) {
        case ValueOrder::kInput: return "input";
        case ValueOrder::kRateMonotonic: return "RM";
        case ValueOrder::kDeadlineMonotonic: return "DM";
        case ValueOrder::kTMinusC: return "TmC";
        case ValueOrder::kDMinusC: return "DmC";
      }
      return "other";
    });

TEST(Csp2Rules, SymmetryRanksFollowValueOrder) {
  // Under a non-identity heuristic the canonical rows ascend by *rank*:
  // tau3 has the smallest D-C in Example 1, so wherever tau3 shares a slot
  // with another task it occupies the earlier processor.
  Options options;
  options.value_order = ValueOrder::kDMinusC;  // order: tau3, tau1, tau2
  const Result result = solve(example1(), Platform::identical(2), options);
  ASSERT_EQ(result.status, Status::kFeasible);
  const rt::Schedule& s = *result.schedule;
  for (rt::Time t = 0; t < s.hyperperiod(); ++t) {
    // tau3 holds rank 0: nothing (neither a task nor a rule-1 idle) can
    // legally precede it, so it never appears on the second processor.
    EXPECT_NE(s.at(t, 1), 2) << "t=" << t;
  }
}

TEST(Csp2Rules, SymmetryRuleKeepsRowsCanonical) {
  const Result result = solve(example1(), Platform::identical(2));
  ASSERT_EQ(result.status, Status::kFeasible);
  const rt::Schedule& s = *result.schedule;
  for (rt::Time t = 0; t < s.hyperperiod(); ++t) {
    rt::TaskId prev = -1;
    for (rt::ProcId j = 0; j < s.processors(); ++j) {
      const rt::TaskId v = s.at(t, j);
      if (v == rt::kIdle) continue;
      EXPECT_GT(v, prev);
      prev = v;
    }
  }
}

TEST(Csp2Rules, IdleRuleKeepsProcessorsBusy) {
  // With the idle rule, a slot column never has an idle processor while a
  // task with remaining work in that slot's window exists that could run.
  // Spot-check on Example 1: total busy cells must equal total demand, and
  // the single idle cell (24 cells, demand 23) sits on the last processor.
  const Result result = solve(example1(), Platform::identical(2));
  ASSERT_EQ(result.status, Status::kFeasible);
  EXPECT_EQ(result.schedule->busy_cells(), example1().total_demand());
}

// ------------------------------------------------------------ heterogeneous

TEST(Csp2Hetero, DedicatedProcessorsRespected) {
  // tau1 only on P1, tau2 only on P2.
  const TaskSet ts = TaskSet::from_params({{0, 2, 2, 2}, {0, 2, 2, 2}});
  const Platform p = Platform::heterogeneous({{1, 0}, {0, 1}});
  const Result result = solve(ts, p);
  ASSERT_EQ(result.status, Status::kFeasible);
  EXPECT_TRUE(rt::is_valid_schedule(ts, p, *result.schedule));
  for (rt::Time t = 0; t < 2; ++t) {
    EXPECT_EQ(result.schedule->at(t, 0), 0);
    EXPECT_EQ(result.schedule->at(t, 1), 1);
  }
}

TEST(Csp2Hetero, WeightedAmountEq12) {
  // C=4 at rate 2: two slots; the third slot must idle (equality (12)).
  const TaskSet ts = TaskSet::from_params({{0, 4, 3, 3}});
  const Platform p = Platform::heterogeneous({{2}});
  const Result result = solve(ts, p);
  ASSERT_EQ(result.status, Status::kFeasible);
  EXPECT_TRUE(rt::is_valid_schedule(ts, p, *result.schedule));
  EXPECT_EQ(result.schedule->units_of(0), 2);
}

TEST(Csp2Hetero, OvershootGuardPreventsInvalidWitness) {
  // C=3, only a rate-2 processor: equality cannot be met.
  const TaskSet ts = TaskSet::from_params({{0, 3, 3, 3}});
  const Platform p = Platform::heterogeneous({{2}});
  const Result result = solve(ts, p);
  EXPECT_EQ(result.status, Status::kInfeasible);
}

TEST(Csp2Hetero, TaskNobodyCanServeIsInfeasibleFast) {
  const TaskSet ts = TaskSet::from_params({{0, 1, 1, 1}});
  const Platform p = Platform::heterogeneous({{0}});
  const Result result = solve(ts, p);
  EXPECT_EQ(result.status, Status::kInfeasible);
  EXPECT_EQ(result.stats.nodes, 0);
}

TEST(Csp2Hetero, MixedRatesSolveAndValidate) {
  const TaskSet ts =
      TaskSet::from_params({{0, 2, 2, 2}, {0, 3, 3, 3}, {0, 1, 2, 4}});
  const Platform p =
      Platform::heterogeneous({{1, 2}, {1, 1}, {2, 0}});
  const Result result = solve(ts, p);
  if (result.status == Status::kFeasible) {
    EXPECT_TRUE(rt::is_valid_schedule(ts, p, *result.schedule));
  } else {
    // Rule-1 searches are incomplete under heterogeneity; the solver must
    // say so rather than claim a proof.
    EXPECT_EQ(result.status, Status::kInfeasible);
    EXPECT_FALSE(result.search_complete);
  }
}

TEST(Csp2Hetero, DisablingIdleRuleRestoresCompleteness) {
  const TaskSet ts = TaskSet::from_params({{0, 2, 2, 2}});
  const Platform p = Platform::heterogeneous({{1, 2}});
  Options options;
  options.idle_rule = false;
  const Result result = solve(ts, p, options);
  EXPECT_TRUE(result.search_complete);
  ASSERT_EQ(result.status, Status::kFeasible);
  EXPECT_TRUE(rt::is_valid_schedule(ts, p, *result.schedule));
}

TEST(Csp2Hetero, RateMatrixArityChecked) {
  const TaskSet ts = TaskSet::from_params({{0, 1, 1, 1}, {0, 1, 1, 1}});
  EXPECT_THROW(
      static_cast<void>(solve(ts, Platform::heterogeneous({{1, 1}}))),
      ValidationError);
}

// ----------------------------------------------------- wrap-around stress

TEST(Csp2Wrap, OffsetHeavyInstancesAgreeWithOracle) {
  for (std::uint64_t k = 0; k < 80; ++k) {
    gen::GeneratorOptions gopt;
    gopt.tasks = 3;
    gopt.processors = 2;
    gopt.t_max = 6;
    gopt.with_offsets = true;  // every instance exercises wrap handling
    const auto inst = gen::generate_indexed(gopt, 5150, k);
    const Platform p = Platform::identical(inst.processors);
    const bool oracle = flow::is_feasible(inst.tasks, p);
    const Result result = solve(inst.tasks, p);
    EXPECT_EQ(result.status == Status::kFeasible, oracle) << "instance " << k;
    if (result.schedule.has_value()) {
      EXPECT_TRUE(rt::is_valid_schedule(inst.tasks, p, *result.schedule))
          << "instance " << k;
    }
  }
}

TEST(Csp2Wrap, FullCycleWindowTask) {
  // O=1, D=T=2 over T=2: the window of job 2 wraps as {1, 0}; combined the
  // task occupies the whole cycle.
  const TaskSet ts = TaskSet::from_params({{1, 2, 2, 2}});
  const Result result = solve(ts, Platform::identical(1));
  ASSERT_EQ(result.status, Status::kFeasible);
  EXPECT_TRUE(
      rt::is_valid_schedule(ts, Platform::identical(1), *result.schedule));
}

}  // namespace
}  // namespace mgrts::csp2
