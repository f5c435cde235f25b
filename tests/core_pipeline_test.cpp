// Tests for the presolve->backend solve spine (core/pipeline.hpp) and
// the canonical verdict mapping (core/verdict.hpp): stage gating and
// provenance, short-circuit soundness, and randomized differential
// equivalence between the piped and direct solve paths on the paper's
// generator family — including arbitrary-deadline clone expansion.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <exception>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "analysis/tests.hpp"
#include "core/solve.hpp"
#include "exp/harness.hpp"
#include "flow/oracle.hpp"
#include "gen/generator.hpp"
#include "localsearch/min_conflicts.hpp"
#include "rt/validate.hpp"
#include "support/deadline.hpp"
#include "support/fault.hpp"
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

  const SolveReport late = flow_oracle_stage(
      inst.tasks, p, support::Deadline::after(std::chrono::nanoseconds(0)));
  EXPECT_EQ(late.verdict, Verdict::kUnknown);
  EXPECT_EQ(late.cause, FailureCause::kDeadline);
  EXPECT_FALSE(late.schedule.has_value());
  EXPECT_NE(late.detail.find("deadline expired"), std::string::npos)
      << late.detail;

  support::Deadline cancelled;
  const support::CancelToken token = support::CancelToken::make();
  token.cancel();
  cancelled.set_cancel(token);
  const SolveReport stopped = flow_oracle_stage(inst.tasks, p, cancelled);
  EXPECT_EQ(stopped.verdict, Verdict::kUnknown);
  EXPECT_EQ(stopped.cause, FailureCause::kCancelled);
  EXPECT_NE(stopped.detail.find("cancelled"), std::string::npos)
      << stopped.detail;

  const SolveReport decided =
      flow_oracle_stage(inst.tasks, p, support::Deadline{});
  EXPECT_TRUE(decisive(decided.verdict, decided.complete));
  EXPECT_EQ(decided.cause, FailureCause::kNone);
}

TEST(Pipeline, FlowOracleStopsInsideALongNetworkAtItsDeadline) {
  // Pairwise coprime periods give T = 1,113,121 slots and about 3.3 million
  // window arcs: the network build, the warm start and the witness take
  // far longer than the 5 ms budget, while Dinic needs no phase at all.
  // The oracle must stop inside them, as the presolve stage and as the
  // method.  The stage then stands on the density proof (density 1.45 on
  // two processors); the method has none to stand on.  On a loaded machine
  // the analysis stage alone can outlast the 5 ms, and the deadline then
  // skips the flow stage: the proof the analysis stage deferred to it must
  // answer just the same.
  const TaskSet ts = TaskSet::from_params(
      {{0, 50, 101, 101}, {0, 50, 103, 103}, {0, 50, 107, 107}});
  const Platform p = Platform::identical(2);
  SolveConfig config;
  config.time_limit_ms = 5;

  const SolveReport piped = solve_instance(ts, p, config);
  EXPECT_EQ(piped.verdict, Verdict::kFeasible);
  EXPECT_EQ(piped.decided_by, "analysis:density");
  EXPECT_FALSE(piped.schedule.has_value());
  EXPECT_NE(piped.detail.find("at its deadline"), std::string::npos)
      << piped.detail;
  ASSERT_FALSE(piped.stage_times.empty());
  if (piped.stage_times.back().stage == "flow-oracle") {
    EXPECT_EQ(piped.stage_times.back().verdict, Verdict::kFeasible);
  } else {
    EXPECT_EQ(piped.stage_times.back().stage, "analysis");
  }

  config.method = Method::kFlowOracle;
  config.pipeline = PipelineOptions::none();
  const SolveReport direct = solve_instance(ts, p, config);
  EXPECT_EQ(direct.verdict, Verdict::kTimeout);
  EXPECT_EQ(direct.cause, FailureCause::kDeadline);
}

TEST(Pipeline, FlowDeadlineStopFallsBackToTheDeferredDensityProof) {
  // 22 tasks of C = 1 and D = T = 2,000,000 on one processor (U ~ 1e-5):
  // a network of 44 million slots, which the oracle cannot build in 20 ms.
  // The analysis stage deferred its density proof to the oracle; a
  // deadline stop must recover it instead of answering timeout.  The stage
  // is called directly: through solve_instance, a loaded machine can spend
  // the whole 20 ms before the stage starts, and the backend then times
  // out without it.
  std::vector<rt::TaskParams> params(22, rt::TaskParams{0, 1, 2'000'000,
                                                        2'000'000});
  const TaskSet ts = TaskSet::from_params(params);
  const SolveReport report = flow_oracle_stage(
      ts, Platform::identical(1), support::Deadline::after_ms(20));
  EXPECT_EQ(report.verdict, Verdict::kFeasible);
  EXPECT_EQ(report.decided_by, "analysis:density");
  EXPECT_EQ(report.cause, FailureCause::kNone);
  EXPECT_FALSE(report.schedule.has_value());
  EXPECT_NE(report.detail.find("flow oracle stopped at its deadline"),
            std::string::npos)
      << report.detail;

  // A cancel asks for no answer: the stage stays undecided.
  support::Deadline cancelled;
  const support::CancelToken token = support::CancelToken::make();
  token.cancel();
  cancelled.set_cancel(token);
  const SolveReport stopped =
      flow_oracle_stage(ts, Platform::identical(1), cancelled);
  EXPECT_EQ(stopped.verdict, Verdict::kUnknown);
  EXPECT_EQ(stopped.cause, FailureCause::kCancelled);
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

// ------------------------------------------------------------ spine digest
//
// Every deterministic field the solve spine fills, folded into one FNV-1a
// hash over a small family of instances, methods, presolve line-ups and
// fault plans, plus two batch entry points.  Only wall times (seconds,
// stage times, propagator seconds) stay out; a thrown exception enters as
// its type and message.  A refactor of the spine must leave the digest as
// it was.

struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;

  void u64(std::uint64_t word) {
    for (int k = 0; k < 8; ++k) {
      h ^= (word >> (8 * k)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }
  void str(const std::string& text) {
    u64(text.size());
    for (const char c : text) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  }
  void tasks(const TaskSet& ts) {
    i64(static_cast<std::int64_t>(ts.model()));
    i64(ts.size());
    for (rt::TaskId i = 0; i < ts.size(); ++i) {
      i64(ts[i].offset());
      i64(ts[i].wcet());
      i64(ts[i].deadline());
      i64(ts[i].period());
    }
  }
  void nogoods(const NogoodStats& ng) {
    for (const std::int64_t v :
         {ng.recorded, ng.replay_hits, ng.lits_before, ng.lits_after,
          ng.subsumed, ng.lbd_refreshed, ng.backjumps,
          ng.backjump_levels_saved, ng.lits_minimized}) {
      i64(v);
    }
  }
  void propagators(const std::vector<csp::PropagatorProfile>& rows) {
    u64(rows.size());
    for (const csp::PropagatorProfile& row : rows) {
      str(row.name);
      i64(row.wakes);
      i64(row.runs);
      i64(row.prunes);
    }
  }
  void report(const SolveReport& r) {
    i64(static_cast<std::int64_t>(r.verdict));
    i64(r.complete);
    i64(static_cast<std::int64_t>(r.cause));
    str(r.decided_by);
    str(r.detail);
    i64(r.witness_valid);
    i64(r.schedule.has_value());
    if (r.schedule) {
      i64(r.schedule->hyperperiod());
      i64(r.schedule->processors());
      for (rt::Time t = 0; t < r.schedule->hyperperiod(); ++t) {
        for (rt::ProcId j = 0; j < r.schedule->processors(); ++j) {
          i64(r.schedule->at(t, j));
        }
      }
    }
    i64(r.solved_tasks.has_value());
    if (r.solved_tasks) tasks(*r.solved_tasks);
    u64(r.stage_times.size());
    for (const StageTiming& stage : r.stage_times) {
      str(stage.stage);
      i64(static_cast<std::int64_t>(stage.verdict));
    }
    i64(r.nodes);
    i64(r.failures);
    nogoods(r.nogoods);
    propagators(r.propagators);
  }
  void error(const std::exception& e) {
    str(typeid(e).name());
    str(e.what());
  }
  void health(const BatchHealth& health) {
    i64(health.failures);
    i64(health.retries);
    i64(health.recovered);
    i64(health.quarantined);
    u64(health.quarantined_jobs.size());
    for (const std::size_t k : health.quarantined_jobs) u64(k);
    str(health.first_error);
  }
  void record(const exp::RunRecord& run) {
    i64(static_cast<std::int64_t>(run.verdict));
    i64(run.witness_ok);
    i64(run.complete);
    i64(run.nodes);
    str(run.decided_by);
    i64(static_cast<std::int64_t>(run.failure_cause));
    nogoods(run.nogoods);
    propagators(run.propagators);
  }
};

struct SpineCase {
  TaskSet tasks;
  Platform platform;
};

// Table-I draws at one seed on identical platforms, then a uniform, a
// heterogeneous and an arbitrary-deadline system.  `table1` draws come
// first so a smaller family is a prefix-plus-tail of the same cases.
std::vector<SpineCase> spine_cases(std::uint64_t table1) {
  std::vector<SpineCase> cases;
  const gen::GeneratorOptions paper;  // n = 10, m = 5, Tmax = 7
  for (std::uint64_t k = 0; k < table1; ++k) {
    gen::Instance inst = gen::generate_indexed(paper, 24, k);
    cases.push_back({std::move(inst.tasks),
                     Platform::identical(inst.processors)});
  }
  gen::GeneratorOptions small;
  small.tasks = 4;
  small.processors = 2;
  small.t_max = 4;
  cases.push_back({gen::generate_indexed(small, 24, 0).tasks,
                   Platform::uniform({2, 1})});
  cases.push_back({gen::generate_indexed(small, 24, 1).tasks,
                   Platform::heterogeneous({{1, 2}, {2, 1}, {1, 1}, {0, 2}})});
  cases.push_back({TaskSet::from_params({{0, 1, 5, 3}, {0, 2, 4, 4},
                                         {1, 1, 2, 2}},
                                        rt::DeadlineModel::kArbitrary),
                   Platform::identical(2)});
  return cases;
}

std::vector<std::pair<std::string, PipelineOptions>> spine_pipelines() {
  PipelineOptions no_flow = PipelineOptions::full();
  no_flow.flow_oracle = false;
  return {{"none", PipelineOptions::none()},
          {"default", PipelineOptions{}},
          {"full", PipelineOptions::full()},
          {"full-no-flow", no_flow}};
}

std::vector<SolveConfig> spine_methods() {
  std::vector<SolveConfig> methods;
  const auto add = [&](Method method) {
    SolveConfig config;
    config.method = method;
    config.max_nodes = 600;
    config.pipeline.presolve_max_nodes = 300;
    config.localsearch.iterations_per_restart = 400;
    config.localsearch.restarts = 2;
    methods.push_back(config);
    return &methods.back();
  };
  // CSP1's boolean model of a Table-I system costs about a millisecond a
  // node, so it gets a smaller budget.
  SolveConfig* csp1 = add(Method::kCsp1Generic);
  csp1->generic = choco_like_defaults(5);
  csp1->max_nodes = 40;
  // A variable budget no model fits: the backend's memory-limit answer.
  add(Method::kCsp2Generic)->limits.max_variables = 8;
  SolveConfig* generic = add(Method::kCsp2Generic);
  generic->generic = choco_like_defaults(6);
  generic->generic.nogoods = true;
  add(Method::kCsp2Dedicated)->csp2.value_order = csp2::ValueOrder::kDMinusC;
  add(Method::kFlowOracle);
  add(Method::kEdfSimulation);
  add(Method::kLocalSearch);
  return methods;
}

void mix_solves(Digest& d, const std::vector<SpineCase>& cases) {
  for (const SpineCase& c : cases) {
    for (const auto& [label, pipeline] : spine_pipelines()) {
      for (SolveConfig config : spine_methods()) {
        config.pipeline.analysis = pipeline.analysis;
        config.pipeline.flow_oracle = pipeline.flow_oracle;
        config.pipeline.csp2_presolve = pipeline.csp2_presolve;
        d.str(label);
        try {
          d.report(solve_instance(c.tasks, c.platform, config));
        } catch (const std::exception& e) {
          d.error(e);
        }
      }
    }
  }
}

// The portfolio only where presolve decides before any lane launches: a
// race depends on timing.
void mix_portfolios(Digest& d, const std::vector<SpineCase>& cases) {
  for (const SpineCase& c : cases) {
    if (!c.platform.is_identical()) continue;
    SolveConfig config;
    config.method = Method::kPortfolio;
    config.max_nodes = 600;
    for (const PipelineOptions& pipeline :
         {PipelineOptions{}, PipelineOptions::full()}) {
      config.pipeline = pipeline;
      const PortfolioReport race = solve_portfolio(c.tasks, c.platform, config);
      d.i64(race.winner);
      d.u64(race.lanes.size());
      d.report(race.report);
      d.report(solve_instance(c.tasks, c.platform, config));
    }
  }
}

void mix_batches(Digest& d, const std::vector<SpineCase>& cases) {
  std::vector<BatchJob> jobs;
  for (const SpineCase& c : cases) {
    for (SolveConfig config : spine_methods()) {
      config.pipeline = PipelineOptions::full();
      jobs.push_back({c.tasks, c.platform, config});
    }
  }
  BatchPolicy policy;
  policy.workers = 1;
  policy.max_attempts = 2;
  BatchHealth health;
  for (const SolveReport& report : solve_batch(jobs, policy, &health)) {
    d.report(report);
  }
  d.health(health);

  exp::BatchOptions options;
  options.instances = 4;
  options.seed = 24;
  options.workers = 1;
  std::vector<exp::SolverSpec> specs;
  for (const SolveConfig& config : spine_methods()) {
    specs.push_back({to_string(config.method), config});
  }
  const exp::BatchResult batch = exp::run_batch(options, specs);
  for (const exp::InstanceRecord& inst : batch.instances) {
    for (const exp::RunRecord& run : inst.runs) d.record(run);
  }
  d.health(batch.health);
}

TEST(SolveSpine, ReportDigestIsPinned) {
  Digest clean;
  mix_solves(clean, spine_cases(6));
  mix_portfolios(clean, spine_cases(6));
  mix_batches(clean, spine_cases(2));
  EXPECT_EQ(clean.h, 0x11d8bcb8d75891dcULL);

#if MGRTS_FAULT_INJECTION
  // Each throwing or deadline site at rate 1, then one mixed plan; stall
  // and cancel are left out (they race the clock).
  using support::FaultSite;
  std::vector<support::FaultPlan> plans;
  const FaultSite sites[] = {FaultSite::kFlowNetwork, FaultSite::kJobTable,
                             FaultSite::kScheduleTable,
                             FaultSite::kCspVarBudget, FaultSite::kDeadline,
                             FaultSite::kPropagator};
  unsigned all = 0;
  for (const FaultSite site : sites) {
    support::FaultPlan plan;
    plan.rate = 1.0;
    plan.sites = support::FaultPlan::mask(site);
    plans.push_back(plan);
    all |= plan.sites;
  }
  support::FaultPlan mixed;
  mixed.seed = 24;
  mixed.rate = 0.3;
  mixed.sites = all;
  plans.push_back(mixed);

  // Disarms on every exit, so a plan never outlives its round.
  struct Armed {
    explicit Armed(const support::FaultPlan& plan) {
      support::FaultInjector::arm(plan);
    }
    ~Armed() { support::FaultInjector::disarm(); }
  };
  Digest faulted;
  for (const support::FaultPlan& plan : plans) {
    const Armed armed(plan);
    mix_solves(faulted, spine_cases(2));
    mix_batches(faulted, spine_cases(1));
  }
  EXPECT_EQ(faulted.h, 0x20db73985d508a92ULL);
#endif
}

}  // namespace
}  // namespace mgrts::core
