// Tests for core::solve_portfolio and the cooperative cancel token: lane
// line-up, first-decisive-wins semantics, loser cancellation, and the
// Method::kPortfolio plumbing through solve_instance / the harness.
#include <gtest/gtest.h>

#include <chrono>

#include "core/solve.hpp"
#include "exp/harness.hpp"
#include "rt/validate.hpp"
#include "support/deadline.hpp"
#include "testing.hpp"

namespace mgrts::core {
namespace {

using mgrts::testing::example1;
using rt::Platform;

TEST(CancelToken, EmptyTokenNeverCancels) {
  const support::CancelToken token;
  EXPECT_FALSE(token.engaged());
  EXPECT_FALSE(token.cancelled());
  token.cancel();  // no-op on an empty token
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelToken, CopiesShareTheFlagAndDeadlineHonorsIt) {
  const auto token = support::CancelToken::make();
  const support::CancelToken copy = token;
  support::Deadline deadline;  // no wall-clock limit
  deadline.set_cancel(copy);
  EXPECT_FALSE(deadline.expired());
  EXPECT_FALSE(deadline.unlimited()) << "a cancellable deadline can expire";
  token.cancel();
  EXPECT_TRUE(copy.cancelled());
  EXPECT_TRUE(deadline.expired());
}

TEST(CancelToken, LinkedTokenSeesParentButNotViceVersa) {
  const auto parent = support::CancelToken::make();
  const auto child = support::CancelToken::linked(parent);
  EXPECT_FALSE(child.cancelled());
  child.cancel();  // a race winner cancelling its lanes...
  EXPECT_TRUE(child.cancelled());
  EXPECT_FALSE(parent.cancelled());  // ...must not leak to the caller
  const auto child2 = support::CancelToken::linked(parent);
  parent.cancel();  // the caller aborting the whole run...
  EXPECT_TRUE(child2.cancelled());  // ...reaches every lane
}

TEST(Portfolio, FeasibleInstanceProducesAValidatedWinner) {
  SolveConfig config;
  config.time_limit_ms = 5'000;
  config.pipeline = PipelineOptions::none();  // exercise the race itself
  const PortfolioReport race =
      solve_portfolio(example1(), Platform::identical(2), config);
  // Four value orders + pruned lane + min-conflicts + one random lane.
  EXPECT_EQ(race.lanes.size(), 7u);
  ASSERT_GE(race.winner, 0);
  EXPECT_EQ(race.report.verdict, Verdict::kFeasible);
  EXPECT_TRUE(race.report.witness_valid);
  ASSERT_TRUE(race.report.schedule.has_value());
  EXPECT_TRUE(rt::is_valid_schedule(example1(), Platform::identical(2),
                                    *race.report.schedule));
  // The winner's recorded outcome matches the headline report, and the
  // provenance names the winning lane.
  EXPECT_EQ(race.lanes[static_cast<std::size_t>(race.winner)].verdict,
            Verdict::kFeasible);
  EXPECT_EQ(race.report.decided_by,
            "portfolio:" +
                race.lanes[static_cast<std::size_t>(race.winner)].label);
}

TEST(Portfolio, InfeasibleInstanceYieldsACompleteProof) {
  // Example 1 needs two processors; on one the race must prove
  // infeasibility (every dedicated lane is complete on identical
  // platforms; the min-conflicts lane's kUnknown give-up is not decisive).
  SolveConfig config;
  config.time_limit_ms = 5'000;
  config.pipeline = PipelineOptions::none();
  config.localsearch.restarts = 1;  // hopeless here; keep the lane short
  config.localsearch.iterations_per_restart = 2'000;
  const PortfolioReport race =
      solve_portfolio(example1(), Platform::identical(1), config);
  ASSERT_GE(race.winner, 0);
  EXPECT_EQ(race.report.verdict, Verdict::kInfeasible);
  EXPECT_TRUE(race.report.complete);
}

TEST(Portfolio, LaneLineUpMatchesConfig) {
  SolveConfig config;
  config.time_limit_ms = 5'000;
  config.pipeline = PipelineOptions::none();
  config.portfolio.random_lanes = 0;
  config.portfolio.pruned_lane = false;
  config.portfolio.local_search_lane = false;
  const PortfolioReport race =
      solve_portfolio(example1(), Platform::identical(2), config);
  EXPECT_EQ(race.lanes.size(), 4u);  // just the §V-C2 value orders
  EXPECT_GE(race.winner, 0);

  config.portfolio.pruned_lane = true;
  config.portfolio.local_search_lane = true;
  const PortfolioReport diverse =
      solve_portfolio(example1(), Platform::identical(2), config);
  ASSERT_EQ(diverse.lanes.size(), 6u);
  EXPECT_EQ(diverse.lanes[4].label, "CSP2+(D-C)+prunes");
  EXPECT_EQ(diverse.lanes[5].label, "min-conflicts");
}

TEST(Portfolio, PresolveDecidesBeforeAnyLaneLaunches) {
  // Default pipeline: the flow oracle settles Example 1 in the prefilter,
  // so the race never starts (no lanes, winner == -1) and the provenance
  // names the stage.
  SolveConfig config;
  config.time_limit_ms = 5'000;
  const PortfolioReport race =
      solve_portfolio(example1(), Platform::identical(2), config);
  EXPECT_TRUE(race.lanes.empty());
  EXPECT_EQ(race.winner, -1);
  EXPECT_EQ(race.report.verdict, Verdict::kFeasible);
  EXPECT_EQ(race.report.decided_by, "flow-oracle");
  EXPECT_TRUE(race.report.witness_valid);
  ASSERT_FALSE(race.presolve.empty());
  EXPECT_EQ(race.presolve.back().stage, "flow-oracle");
}

// The race ends with its winner.  The watchdog ticks every
// watchdog_stall_ms / 4 = 250 ms by default; the end of the race must wake
// it instead of waiting out the tick.  The presolve stages are
// identical-only, so on this heterogeneous platform the lanes launch, and
// one decides in well under a millisecond.
TEST(Portfolio, RaceReturnsPromptlyAfterItsWinner) {
  SolveConfig config;
  config.time_limit_ms = 5'000;
  ASSERT_EQ(config.portfolio.watchdog_stall_ms, 1'000);
  const rt::TaskSet ts =
      rt::TaskSet::from_params({{0, 1, 2, 2}, {0, 1, 2, 2}, {0, 2, 3, 3}});
  const Platform platform = Platform::heterogeneous({{1, 1}, {1, 1}, {1, 2}});
  const auto start = std::chrono::steady_clock::now();
  const PortfolioReport race = solve_portfolio(ts, platform, config);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_FALSE(race.lanes.empty());
  ASSERT_GE(race.winner, 0);
  EXPECT_LT(wall_ms, 100.0);
}

TEST(Portfolio, ReachableAsAMethodThroughSolveInstance) {
  SolveConfig config;
  config.method = Method::kPortfolio;
  config.time_limit_ms = 5'000;
  config.pipeline = PipelineOptions::none();
  const SolveReport report =
      solve_instance(example1(), Platform::identical(2), config);
  EXPECT_EQ(report.verdict, Verdict::kFeasible);
  EXPECT_TRUE(report.witness_valid);
  EXPECT_NE(report.detail.find("portfolio winner"), std::string::npos)
      << "detail: " << report.detail;

  // With the default pipeline the presolve stages answer instead, and the
  // provenance says so.
  SolveConfig piped;
  piped.method = Method::kPortfolio;
  piped.time_limit_ms = 5'000;
  const SolveReport presolved =
      solve_instance(example1(), Platform::identical(2), piped);
  EXPECT_EQ(presolved.verdict, Verdict::kFeasible);
  EXPECT_EQ(presolved.decided_by, "flow-oracle");
}

TEST(Portfolio, BatchableThroughTheHarnessSpec) {
  exp::BatchOptions options;
  options.generator.tasks = 4;
  options.generator.processors = 2;
  options.generator.rule = gen::ProcessorRule::kFixed;
  options.generator.t_max = 4;
  options.instances = 3;
  options.seed = 7;
  options.workers = 1;
  const exp::BatchResult batch =
      exp::run_batch(options, {exp::portfolio_spec(/*time_limit_ms=*/5'000)});
  ASSERT_EQ(batch.labels.size(), 1u);
  EXPECT_EQ(batch.labels[0], "CSP2-pipeline");
  for (const auto& inst : batch.instances) {
    ASSERT_EQ(inst.runs.size(), 1u);
    // Generous budget on tiny instances: every race must decide, and
    // feasible verdicts must carry validated witnesses.  With the full
    // pipeline in front, these identical-platform instances are settled by
    // a presolve stage before any lane launches.
    EXPECT_TRUE(inst.runs[0].verdict == Verdict::kFeasible ||
                inst.runs[0].verdict == Verdict::kInfeasible);
    if (inst.runs[0].verdict == Verdict::kFeasible) {
      // Witness-backed unless the analysis density test proved existence
      // analytically (the one stage that decides without constructing).
      EXPECT_TRUE(inst.runs[0].witness_ok ||
                  inst.runs[0].decided_by.rfind("analysis:", 0) == 0)
          << inst.runs[0].decided_by;
    }
    EXPECT_TRUE(inst.runs[0].decided_by_presolve())
        << inst.runs[0].decided_by;
  }
}

}  // namespace
}  // namespace mgrts::core
