#include "flow/oracle.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "analysis/tests.hpp"
#include "flow_reference.hpp"
#include "gen/generator.hpp"
#include "rt/validate.hpp"
#include "support/deadline.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "testing.hpp"

namespace mgrts::flow {
namespace {

using mgrts::testing::example1;
using reference::Dinic;
using rt::Platform;
using rt::TaskSet;

// ------------------------------------------------------- reference Dinic

TEST(Dinic, SingleEdge) {
  Dinic net(2);
  const auto e = net.add_edge(0, 1, 5);
  EXPECT_EQ(net.max_flow(0, 1), 5);
  EXPECT_EQ(net.flow_on(e), 5);
}

TEST(Dinic, SeriesBottleneck) {
  Dinic net(3);
  net.add_edge(0, 1, 7);
  net.add_edge(1, 2, 3);
  EXPECT_EQ(net.max_flow(0, 2), 3);
}

TEST(Dinic, ParallelPathsAdd) {
  Dinic net(4);
  net.add_edge(0, 1, 2);
  net.add_edge(1, 3, 2);
  net.add_edge(0, 2, 3);
  net.add_edge(2, 3, 3);
  EXPECT_EQ(net.max_flow(0, 3), 5);
}

TEST(Dinic, ClassicAugmentingCase) {
  // Diamond with a cross edge: max flow needs the residual network.
  Dinic net(4);
  net.add_edge(0, 1, 1);
  net.add_edge(0, 2, 1);
  net.add_edge(1, 2, 1);
  net.add_edge(1, 3, 1);
  net.add_edge(2, 3, 1);
  EXPECT_EQ(net.max_flow(0, 3), 2);
}

TEST(Dinic, DisconnectedSinkYieldsZero) {
  Dinic net(3);
  net.add_edge(0, 1, 4);
  EXPECT_EQ(net.max_flow(0, 2), 0);
}

TEST(Dinic, ZeroCapacityEdge) {
  Dinic net(2);
  net.add_edge(0, 1, 0);
  EXPECT_EQ(net.max_flow(0, 1), 0);
}

// ----------------------------------------------------------------- oracle

/// First slot whose processors do not hold ascending task ids followed
/// only by idles, or -1 when the whole schedule is canonical.
rt::Time first_non_canonical_slot(const rt::Schedule& s) {
  for (rt::Time t = 0; t < s.hyperperiod(); ++t) {
    rt::TaskId prev = -1;
    bool seen_idle = false;
    for (rt::ProcId j = 0; j < s.processors(); ++j) {
      const rt::TaskId v = s.at(t, j);
      if (v == rt::kIdle) {
        seen_idle = true;
      } else if (seen_idle || v <= prev) {
        return t;
      } else {
        prev = v;
      }
    }
  }
  return -1;
}

TEST(Oracle, Example1IsFeasibleWithValidWitness) {
  const TaskSet ts = example1();
  const Platform p = Platform::identical(2);
  const OracleResult result = decide_feasibility(ts, p);
  EXPECT_EQ(result.verdict, OracleVerdict::kFeasible);
  EXPECT_EQ(result.flow, result.demand);
  ASSERT_TRUE(result.schedule.has_value());
  EXPECT_TRUE(rt::is_valid_schedule(ts, p, *result.schedule));
}

TEST(Oracle, Example1InfeasibleOnOneProcessor) {
  // U = 23/12 > 1.
  const OracleResult result =
      decide_feasibility(example1(), Platform::identical(1));
  EXPECT_EQ(result.verdict, OracleVerdict::kInfeasible);
  EXPECT_LT(result.flow, result.demand);
}

TEST(Oracle, OverCapacityInfeasible) {
  EXPECT_FALSE(is_feasible(mgrts::testing::overloaded1(),
                           Platform::identical(1)));
}

TEST(Oracle, TightWindowInfeasibleDespiteLowUtilization) {
  // Two tasks needing the very same single slot each period on one core:
  // D = 1 forces both into slot 0 -> infeasible on m = 1 although U = 1.
  const TaskSet ts = TaskSet::from_params({{0, 1, 1, 2}, {0, 1, 1, 2}});
  EXPECT_FALSE(is_feasible(ts, Platform::identical(1)));
  EXPECT_TRUE(is_feasible(ts, Platform::identical(2)));
}

TEST(Oracle, FullUtilizationBoundaryFeasible) {
  // U = m exactly, schedulable: two saturating tasks on two cores.
  const TaskSet ts = TaskSet::from_params({{0, 2, 2, 2}, {0, 2, 2, 2}});
  EXPECT_TRUE(is_feasible(ts, Platform::identical(2)));
}

TEST(Oracle, IntraTaskParallelismForbidden) {
  // One task with C = D = 2, T = 2 per period is fine on one core, but a
  // task with C=2, D=1 can never fit (needs 2 units in one slot, C3 forbids
  // splitting across processors): C > D is rejected at TaskSet level, so
  // model it via two tight tasks instead; the oracle must respect the
  // job->slot capacity of 1.
  const TaskSet ts = TaskSet::from_params({{0, 2, 2, 4}});
  // On 4 processors the job still needs 2 distinct slots; window has exactly
  // 2 slots, so it is feasible — but only because C3 allows one unit/slot.
  const OracleResult result = decide_feasibility(ts, Platform::identical(4));
  EXPECT_EQ(result.verdict, OracleVerdict::kFeasible);
  ASSERT_TRUE(result.schedule.has_value());
  // Witness must not run tau1 twice in one slot.
  EXPECT_TRUE(rt::is_valid_schedule(ts, Platform::identical(4),
                                    *result.schedule));
}

TEST(Oracle, WitnessIsCanonicalAscending) {
  const OracleResult result =
      decide_feasibility(example1(), Platform::identical(2));
  ASSERT_TRUE(result.schedule.has_value());
  EXPECT_EQ(first_non_canonical_slot(*result.schedule), -1);
}

TEST(Oracle, RejectsHeterogeneousPlatform) {
  EXPECT_THROW(
      static_cast<void>(decide_feasibility(
          example1(), Platform::heterogeneous({{1, 1}, {1, 1}, {1, 1}}))),
      mgrts::ValidationError);
}

TEST(Oracle, RejectsArbitraryDeadlines) {
  const TaskSet ts =
      TaskSet::from_params({{0, 1, 5, 4}}, rt::DeadlineModel::kArbitrary);
  EXPECT_THROW(static_cast<void>(decide_feasibility(ts, Platform::identical(1))),
               mgrts::ValidationError);
}

TEST(Oracle, CloneExpansionDecidesArbitraryDeadlines) {
  // An arbitrary-deadline system solved through §VI-B clones: tau with
  // D = 2T can pipeline two instances in parallel.
  const TaskSet ts = TaskSet::from_params({{0, 3, 4, 2}, {0, 1, 2, 2}},
                                          rt::DeadlineModel::kArbitrary);
  const TaskSet clones = ts.to_constrained();
  const Platform p = Platform::identical(2);
  const OracleResult result = decide_feasibility(clones, p);
  EXPECT_EQ(result.verdict, OracleVerdict::kFeasible);
  ASSERT_TRUE(result.schedule.has_value());
  EXPECT_TRUE(rt::is_valid_schedule(clones, p, *result.schedule));
}

TEST(Oracle, WitnessTableOverTheSlotBudgetIsRefused) {
  // 22 tasks of C = 1 and D = T = 60,000 on 1,000 processors: 1.4 million
  // jobs and window slots, but a witness of T x m = 60 million cells.  The
  // guard refuses it before anything is allocated, and says why.
  const TaskSet ts = TaskSet::from_params(
      std::vector<rt::TaskParams>(22, rt::TaskParams{0, 1, 60'000, 60'000}));
  try {
    static_cast<void>(decide_feasibility(ts, Platform::identical(1'000)));
    FAIL() << "no ResourceError";
  } catch (const mgrts::ResourceError& e) {
    EXPECT_NE(std::string(e.what()).find("witness"), std::string::npos)
        << e.what();
  }
}

TEST(Oracle, RandomWitnessesAlwaysValidate) {
  int feasible = 0;
  for (std::uint64_t k = 0; k < 60; ++k) {
    gen::GeneratorOptions options;
    options.tasks = 5;
    options.processors = 3;
    options.t_max = 6;
    options.with_offsets = (k % 3 == 0);
    const auto inst = gen::generate_indexed(options, 4242, k);
    const Platform p = Platform::identical(inst.processors);
    const OracleResult result = decide_feasibility(inst.tasks, p);
    if (result.verdict == OracleVerdict::kFeasible) {
      ++feasible;
      ASSERT_TRUE(result.schedule.has_value());
      EXPECT_TRUE(rt::is_valid_schedule(inst.tasks, p, *result.schedule))
          << "instance " << k;
    }
  }
  EXPECT_GT(feasible, 10);
}

TEST(Oracle, CapacityFilterAgreesWithVerdictDirection) {
  // r > 1 is a *necessary* condition: whenever it triggers, the oracle must
  // say infeasible (never the other way around).
  for (std::uint64_t k = 0; k < 80; ++k) {
    gen::GeneratorOptions options;
    options.tasks = 4;
    options.processors = 2;
    options.t_max = 5;
    const auto inst = gen::generate_indexed(options, 99, k);
    if (inst.tasks.exceeds_capacity(inst.processors)) {
      EXPECT_FALSE(
          is_feasible(inst.tasks, Platform::identical(inst.processors)))
          << "instance " << k;
    }
  }
}

// ------------------------------------------------------------ deadline

/// The first Table-I instance (seed 1) whose warm start leaves work for
/// Dinic.
gen::Instance instance_needing_a_phase() {
  gen::GeneratorOptions table1;
  for (std::uint64_t k = 0;; ++k) {
    auto inst = gen::generate_indexed(table1, 1, k);
    if (decide_feasibility(inst.tasks, Platform::identical(inst.processors))
            .phases >= 1) {
      return inst;
    }
  }
}

TEST(OracleDeadline, ExpiredOrCancelledGivesNoVerdict) {
  const gen::Instance inst = instance_needing_a_phase();
  const Platform p = Platform::identical(inst.processors);
  const support::Deadline expired =
      support::Deadline::after(std::chrono::nanoseconds(0));
  EXPECT_FALSE(decide_feasibility(inst.tasks, p, expired).has_value());

  support::Deadline cancelled;
  const support::CancelToken token = support::CancelToken::make();
  cancelled.set_cancel(token);
  ASSERT_TRUE(decide_feasibility(inst.tasks, p, cancelled).has_value());
  token.cancel();
  EXPECT_FALSE(decide_feasibility(inst.tasks, p, cancelled).has_value());
}

TEST(OracleDeadline, UnexpiredDeadlineGivesTheTwoArgumentResult) {
  const gen::Instance inst = instance_needing_a_phase();
  const Platform p = Platform::identical(inst.processors);
  const OracleResult want = decide_feasibility(inst.tasks, p);
  const auto got = decide_feasibility(inst.tasks, p,
                                      support::Deadline::after_ms(60'000));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->verdict, want.verdict);
  EXPECT_EQ(got->flow, want.flow);
  EXPECT_EQ(got->phases, want.phases);
  EXPECT_EQ(got->schedule, want.schedule);
}

TEST(OracleDeadline, AWarmStartThatPlacesEverythingNeedsNoPhase) {
  // One task, one processor: the warm start places the whole demand, no
  // phase runs, and so not even an expired deadline is asked.
  const TaskSet ts = TaskSet::from_params({{0, 1, 2, 2}});
  const Platform p = Platform::identical(1);
  const auto got = decide_feasibility(
      ts, p, support::Deadline::after(std::chrono::nanoseconds(0)));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->verdict, OracleVerdict::kFeasible);
  EXPECT_EQ(got->phases, 0);
}

// ----------------------------------------------------- differential

/// Calls `visit(ts, m, family, index)` on every instance the differential
/// checks: the Table-I stream's 700 flow-bound instances (those the analysis
/// tests leave to the oracle), six of its t_max 12 instances, offsets on two
/// and three processors, m from 1 to n, and clone-expanded arbitrary
/// deadlines.
template <typename Visit>
void for_each_differential_instance(const Visit& visit) {
  gen::GeneratorOptions table1;
  int flow_bound = 0;
  for (std::uint64_t k = 0; flow_bound < 700; ++k) {
    const auto inst = gen::generate_indexed(table1, 1, k);
    if (analysis::quick_decide(inst.tasks, inst.processors).verdict ==
        analysis::TestVerdict::kInfeasible) {
      continue;
    }
    ++flow_bound;
    visit(inst.tasks, inst.processors, "table-I", k);
  }
  table1.t_max = 12;
  for (std::uint64_t k = 0; k < 6; ++k) {
    const auto inst = gen::generate_indexed(table1, 1, k);
    visit(inst.tasks, inst.processors, "table-I t_max 12", k);
  }
  gen::GeneratorOptions offsets;
  offsets.tasks = 5;
  offsets.t_max = 6;
  offsets.with_offsets = true;
  for (std::uint64_t k = 0; k < 800; ++k) {
    offsets.processors = 2 + static_cast<std::int32_t>(k % 2);
    const auto inst = gen::generate_indexed(offsets, 7, k);
    visit(inst.tasks, inst.processors, "offsets", k);
  }
  gen::GeneratorOptions sweep;
  sweep.tasks = 6;
  sweep.t_max = 6;
  for (std::uint64_t k = 0; k < 300; ++k) {
    sweep.processors = 1 + static_cast<std::int32_t>(k % 6);
    sweep.with_offsets = k % 4 == 0;
    const auto inst = gen::generate_indexed(sweep, 11, k);
    visit(inst.tasks, inst.processors, "m sweep", k);
  }
  // Arbitrary deadlines (D up to 2T).
  support::Rng rng(20090911);
  for (std::uint64_t k = 0; k < 300; ++k) {
    std::vector<rt::TaskParams> params;
    const auto n = rng.uniform(2, 4);
    for (std::int64_t i = 0; i < n; ++i) {
      const rt::Time period = rng.uniform(2, 5);
      const rt::Time wcet = rng.uniform(1, period);
      params.push_back({rng.uniform(0, period - 1), wcet,
                        rng.uniform(wcet, 2 * period), period});
    }
    const TaskSet clones =
        TaskSet::from_params(params, rt::DeadlineModel::kArbitrary)
            .to_constrained();
    visit(clones, static_cast<std::int32_t>(rng.uniform(1, 3)), "clones", k);
  }
}

TEST(OracleDifferential, MatchesTheReferenceOnGeneratedFamilies) {
  // Every instance: the reference's verdict, flow and demand (the max-flow
  // value is unique), and a witness that validates and is canonical.
  int checked = 0;
  int feasible = 0;
  for_each_differential_instance([&](const TaskSet& ts, std::int32_t m,
                                     const char* family,
                                     std::uint64_t index) {
    const Platform p = Platform::identical(m);
    const OracleResult got = decide_feasibility(ts, p);
    const OracleResult want = reference::decide_feasibility(ts, p);
    ++checked;
    SCOPED_TRACE(::testing::Message() << family << " #" << index);
    ASSERT_EQ(got.verdict, want.verdict);
    ASSERT_EQ(got.flow, want.flow);
    ASSERT_EQ(got.demand, want.demand);
    ASSERT_EQ(got.schedule.has_value(),
              got.verdict == OracleVerdict::kFeasible);
    if (!got.schedule) return;
    ++feasible;
    const rt::ValidationReport report =
        rt::validate_schedule(ts, p, *got.schedule);
    ASSERT_TRUE(report.ok()) << report.to_string();
    ASSERT_EQ(first_non_canonical_slot(*got.schedule), -1);
  });
  EXPECT_GE(checked, 2000);
  EXPECT_GT(feasible, checked / 4);
}

/// FNV-1a over the eight bytes of `word`.
void mix(std::uint64_t& h, std::int64_t word) {
  for (int k = 0; k < 8; ++k) {
    h ^= (static_cast<std::uint64_t>(word) >> (8 * k)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
}

TEST(OracleDifferential, ResultDigestIsPinned) {
  // Which maximum flow the oracle finds, and in how many phases, is its
  // own choice: the reference pins only the max-flow value.  This digest
  // pins all of it, verdict, flow, demand, phases and every witness row,
  // over the differential's instances, 30 more t_max 12 instances and 80
  // small Table-IV shapes (m = ceil(U)) whose warm start mostly leaves
  // phases.  A change to the oracle's internals that keeps its answers
  // must reproduce the digest unmodified.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&](const TaskSet& ts, std::int32_t m, const char*,
                        std::uint64_t) {
    const OracleResult r = decide_feasibility(ts, Platform::identical(m));
    mix(h, static_cast<std::int64_t>(r.verdict));
    mix(h, r.flow);
    mix(h, r.demand);
    mix(h, r.phases);
    mix(h, r.schedule.has_value());
    if (!r.schedule) return;
    for (rt::Time t = 0; t < r.schedule->hyperperiod(); ++t) {
      for (const rt::TaskId cell : r.schedule->row(t)) mix(h, cell);
    }
  };
  for_each_differential_instance(fold);
  gen::GeneratorOptions table1;
  table1.t_max = 12;
  for (std::uint64_t k = 6; k < 36; ++k) {
    const auto inst = gen::generate_indexed(table1, 1, k);
    fold(inst.tasks, inst.processors, "table-I t_max 12", k);
  }
  gen::GeneratorOptions table4;
  table4.rule = gen::ProcessorRule::kMinCapacity;
  table4.t_max = 10;
  for (std::uint64_t k = 0; k < 80; ++k) {
    table4.tasks = 8 + 2 * static_cast<std::int32_t>(k % 2);
    const auto inst = gen::generate_indexed(table4, 4, k);
    fold(inst.tasks, inst.processors, "table-IV shape", k);
  }
  EXPECT_EQ(h, 0xb5efd81912f1c5f5ULL);
}

TEST(OracleDifferential, DinicPhasesOnTheTableIStreamArePinned) {
  // The Dinic phases left after the warm start, summed over the 700
  // flow-bound Table-I instances of the differential above.  The laxity-
  // ordered warm start leaves 792; taking the jobs in index order left
  // 1,434 (889 over the 540 feasible instances, 545 over the 160
  // infeasible ones).  A weaker warm start raises the sum.
  gen::GeneratorOptions table1;
  int flow_bound = 0;
  std::int64_t phases = 0;
  for (std::uint64_t k = 0; flow_bound < 700; ++k) {
    const auto inst = gen::generate_indexed(table1, 1, k);
    if (analysis::quick_decide(inst.tasks, inst.processors).verdict ==
        analysis::TestVerdict::kInfeasible) {
      continue;
    }
    ++flow_bound;
    phases += decide_feasibility(inst.tasks,
                                 Platform::identical(inst.processors))
                  .phases;
  }
  EXPECT_EQ(phases, 792);
}

}  // namespace
}  // namespace mgrts::flow
