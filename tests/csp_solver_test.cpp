#include "csp/solver.hpp"

#include <gtest/gtest.h>

#include "csp/propagators.hpp"
#include "support/error.hpp"

namespace mgrts::csp {
namespace {

// ---------------------------------------------------------------- Domain64

TEST(Domain64, ConstructionAndQueries) {
  const Domain64 d(-1, 5);
  EXPECT_EQ(d.size(), 7);
  EXPECT_TRUE(d.contains(-1));
  EXPECT_TRUE(d.contains(5));
  EXPECT_FALSE(d.contains(6));
  EXPECT_FALSE(d.contains(-2));
  EXPECT_EQ(d.min(), -1);
  EXPECT_EQ(d.max(), 5);
  EXPECT_FALSE(d.is_fixed());
}

TEST(Domain64, RemoveAndFix) {
  Domain64 d(0, 3);
  EXPECT_TRUE(d.remove(1));
  EXPECT_FALSE(d.remove(1));  // already gone
  EXPECT_EQ(d.size(), 3);
  EXPECT_TRUE(d.fix(2));
  EXPECT_TRUE(d.is_fixed());
  EXPECT_EQ(d.value(), 2);
  EXPECT_FALSE(d.fix(2));  // no change
}

TEST(Domain64, ForEachAscending) {
  Domain64 d(0, 5);
  d.remove(1);
  d.remove(4);
  std::vector<Value> seen;
  d.for_each([&](Value v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<Value>{0, 2, 3, 5}));
}

TEST(Domain64, FullWidthDomain) {
  const Domain64 d(0, 63);
  EXPECT_EQ(d.size(), 64);
  EXPECT_EQ(d.min(), 0);
  EXPECT_EQ(d.max(), 63);
}

TEST(Domain64, MinMaxAfterRemovals) {
  Domain64 d(10, 14);
  d.remove(10);
  d.remove(14);
  EXPECT_EQ(d.min(), 11);
  EXPECT_EQ(d.max(), 13);
}

// ----------------------------------------------------------------- Solver

TEST(Solver, TrivialAllFree) {
  Solver solver;
  static_cast<void>(solver.add_variable(0, 2));
  static_cast<void>(solver.add_variable(0, 2));
  const auto outcome = solver.solve({});
  EXPECT_EQ(outcome.status, SolveStatus::kSat);
  EXPECT_EQ(outcome.assignment.size(), 2u);
}

TEST(Solver, RespectsPostFixAndRemove) {
  Solver solver;
  const VarId x = solver.add_variable(0, 3);
  const VarId y = solver.add_variable(0, 3);
  EXPECT_TRUE(solver.post_fix(x, 2));
  EXPECT_TRUE(solver.post_remove(y, 0));
  SearchOptions options;
  options.val_heuristic = ValHeuristic::kMin;
  const auto outcome = solver.solve(options);
  ASSERT_EQ(outcome.status, SolveStatus::kSat);
  EXPECT_EQ(outcome.assignment[static_cast<std::size_t>(x)], 2);
  EXPECT_EQ(outcome.assignment[static_cast<std::size_t>(y)], 1);  // min left
}

TEST(Solver, PostFixOutsideDomainFails) {
  Solver solver;
  const VarId x = solver.add_variable(0, 3);
  EXPECT_FALSE(solver.post_fix(x, 7));
}

TEST(Solver, PigeonholeUnsat) {
  // 3 pigeons, 2 holes, all-different via pairwise count constraints:
  // use AllDifferentExcept with an `except` value outside the domains.
  Solver solver;
  std::vector<VarId> pigeons;
  for (int k = 0; k < 3; ++k) pigeons.push_back(solver.add_variable(0, 1));
  solver.add(make_all_different_except(pigeons, /*except=*/-7));
  const auto outcome = solver.solve({});
  EXPECT_EQ(outcome.status, SolveStatus::kUnsat);
}

TEST(Solver, SumEqForcesAssignment) {
  Solver solver;
  std::vector<VarId> vars;
  for (int k = 0; k < 4; ++k) vars.push_back(solver.add_variable(0, 1));
  solver.add(make_sum_eq(vars, 4));  // every boolean must be 1
  const auto outcome = solver.solve({});
  ASSERT_EQ(outcome.status, SolveStatus::kSat);
  for (const Value v : outcome.assignment) EXPECT_EQ(v, 1);
}

TEST(Solver, SumEqInfeasibleTarget) {
  Solver solver;
  std::vector<VarId> vars;
  for (int k = 0; k < 3; ++k) vars.push_back(solver.add_variable(0, 1));
  solver.add(make_sum_eq(vars, 5));
  EXPECT_EQ(solver.solve({}).status, SolveStatus::kUnsat);
}

TEST(Solver, NodeLimitReported) {
  Solver solver;
  std::vector<VarId> vars;
  for (int k = 0; k < 20; ++k) vars.push_back(solver.add_variable(0, 1));
  // Unsatisfiable parity-ish problem to force search: sum == 21.
  solver.add(make_sum_eq(vars, 21));
  SearchOptions options;
  options.max_nodes = 1;
  const auto outcome = solver.solve(options);
  // Root propagation already proves UNSAT here (bounds), so accept either.
  EXPECT_TRUE(outcome.status == SolveStatus::kUnsat ||
              outcome.status == SolveStatus::kNodeLimit);
}

TEST(Solver, NodeLimitOnSatisfiableSearch) {
  Solver solver;
  std::vector<VarId> vars;
  for (int k = 0; k < 30; ++k) vars.push_back(solver.add_variable(0, 1));
  // sum == 15: needs at least a handful of decisions.
  solver.add(make_sum_eq(vars, 15));
  SearchOptions options;
  options.max_nodes = 2;
  const auto outcome = solver.solve(options);
  EXPECT_EQ(outcome.status, SolveStatus::kNodeLimit);
  EXPECT_LE(outcome.stats.nodes, 3);
}

TEST(Solver, ExpiredDeadlineTimesOut) {
  Solver solver;
  std::vector<VarId> vars;
  for (int k = 0; k < 64; ++k) vars.push_back(solver.add_variable(0, 1));
  solver.add(make_sum_eq(vars, 32));
  SearchOptions options;
  options.deadline = support::Deadline::after_ms(0);
  const auto outcome = solver.solve(options);
  EXPECT_EQ(outcome.status, SolveStatus::kTimeout);
}

TEST(Solver, VariableBudgetEnforced) {
  SolverLimits limits;
  limits.max_variables = 3;
  Solver solver(limits);
  for (int k = 0; k < 3; ++k) static_cast<void>(solver.add_variable(0, 1));
  EXPECT_THROW(static_cast<void>(solver.add_variable(0, 1)), ResourceError);
}

TEST(Solver, MaxValueHeuristicPrefersLargeValues) {
  Solver solver;
  const VarId x = solver.add_variable(0, 9);
  SearchOptions options;
  options.val_heuristic = ValHeuristic::kMax;
  const auto outcome = solver.solve(options);
  ASSERT_EQ(outcome.status, SolveStatus::kSat);
  EXPECT_EQ(outcome.assignment[static_cast<std::size_t>(x)], 9);
}

TEST(Solver, RandomSearchIsSeedDeterministic) {
  auto run = [](std::uint64_t seed) {
    Solver solver;
    std::vector<VarId> vars;
    for (int k = 0; k < 12; ++k) vars.push_back(solver.add_variable(0, 3));
    solver.add(make_all_different_except({vars[0], vars[1], vars[2]}, -9));
    SearchOptions options;
    options.val_heuristic = ValHeuristic::kRandom;
    options.random_var_ties = true;
    options.var_heuristic = VarHeuristic::kMinDomain;
    options.seed = seed;
    return solver.solve(options).assignment;
  };
  EXPECT_EQ(run(5), run(5));
  // Different seeds usually give different assignments (not guaranteed per
  // variable, but across 12 variables a collision of all is implausible).
  EXPECT_NE(run(5), run(6));
}

TEST(Solver, LubyRestartsMakeProgress) {
  // A satisfiable instance that a restarting randomized search solves.
  Solver solver;
  std::vector<VarId> vars;
  for (int k = 0; k < 10; ++k) vars.push_back(solver.add_variable(0, 4));
  solver.add(make_all_different_except({vars[0], vars[1], vars[2], vars[3],
                                        vars[4]},
                                       -9));
  SearchOptions options;
  options.restart = RestartPolicy::kLuby;
  options.restart_scale = 2;
  options.val_heuristic = ValHeuristic::kRandom;
  options.seed = 3;
  const auto outcome = solver.solve(options);
  EXPECT_EQ(outcome.status, SolveStatus::kSat);
}

TEST(Solver, UnsatProofTerminatesWithRestartsEnabled) {
  Solver solver;
  std::vector<VarId> vars;
  for (int k = 0; k < 3; ++k) vars.push_back(solver.add_variable(0, 1));
  solver.add(make_all_different_except(vars, -9));  // pigeonhole
  SearchOptions options;
  options.restart = RestartPolicy::kLuby;
  options.restart_scale = 1;
  options.val_heuristic = ValHeuristic::kRandom;
  const auto outcome = solver.solve(options);
  EXPECT_EQ(outcome.status, SolveStatus::kUnsat);
}

TEST(Solver, StatsArePopulated) {
  Solver solver;
  std::vector<VarId> vars;
  for (int k = 0; k < 6; ++k) vars.push_back(solver.add_variable(0, 1));
  solver.add(make_sum_eq(vars, 3));
  const auto outcome = solver.solve({});
  EXPECT_EQ(outcome.status, SolveStatus::kSat);
  EXPECT_GT(outcome.stats.nodes, 0);
  EXPECT_GT(outcome.stats.propagations, 0);
  EXPECT_GE(outcome.stats.seconds, 0.0);
}

TEST(Solver, LubyMatchesClosedForm) {
  // Closed form: luby(i) = 2^(k-1) when i = 2^k - 1; otherwise recurse on
  // i - (2^(k-1) - 1) where k is minimal with 2^k - 1 >= i.
  struct Ref {
    static std::int64_t at(std::int64_t i) {
      std::int64_t pow = 1;
      while (2 * pow - 1 < i) pow *= 2;
      if (2 * pow - 1 == i) return pow;
      return at(i - (pow - 1));
    }
  };
  const std::vector<std::int64_t> prefix = {1, 1, 2, 1, 1, 2, 4, 1,
                                            1, 2, 1, 1, 2, 4, 8};
  for (std::size_t k = 0; k < prefix.size(); ++k) {
    EXPECT_EQ(luby(static_cast<std::int64_t>(k) + 1), prefix[k])
        << "i=" << k + 1;
  }
  for (std::int64_t i = 1; i <= 2000; ++i) {
    ASSERT_EQ(luby(i), Ref::at(i)) << "i=" << i;
  }
  // End-of-subtree milestones: luby(2^k - 1) = 2^(k-1).
  for (int k = 1; k <= 40; ++k) {
    EXPECT_EQ(luby((std::int64_t{1} << k) - 1), std::int64_t{1} << (k - 1));
  }
}

TEST(Solver, RestartSearchIsSeedDeterministic) {
  // The whole restart-driven stack — randomized value order and ties, Luby
  // budgets, nogood recording, heap selection — must replay identically
  // under a fixed seed.
  auto run = [&](std::uint64_t seed) {
    Solver solver;
    std::vector<VarId> vars;
    for (int k = 0; k < 8; ++k) vars.push_back(solver.add_variable(0, 6));
    solver.add(make_all_different_except(vars, -9));  // pigeonhole: UNSAT
    solver.add(make_count_eq(vars, /*value=*/5, /*target=*/1));
    SearchOptions options;
    options.val_heuristic = ValHeuristic::kRandom;
    options.random_var_ties = true;
    options.restart = RestartPolicy::kLuby;
    options.restart_scale = 2;
    options.nogoods = true;
    options.seed = seed;
    return solver.solve(options);
  };
  const auto a = run(23);
  const auto b = run(23);
  EXPECT_EQ(a.status, SolveStatus::kUnsat);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.stats.nodes, b.stats.nodes);
  EXPECT_EQ(a.stats.failures, b.stats.failures);
  EXPECT_EQ(a.stats.restarts, b.stats.restarts);
  EXPECT_EQ(a.stats.nogoods_recorded, b.stats.nogoods_recorded);
  // Conflict analysis (on by default with nogoods) must replay too: the
  // same conflicts shrink to the same clauses.
  EXPECT_EQ(a.stats.nogood_lits_before, b.stats.nogood_lits_before);
  EXPECT_EQ(a.stats.nogood_lits_after, b.stats.nogood_lits_after);
  EXPECT_GT(a.stats.restarts, 0);
}

TEST(Solver, ReasonTrailIsAPureObserver) {
  // With nogood recording off, building the reason trail anyway
  // (force_reason_trail) must leave the search bit-identical: reasons are
  // written, never read.  This is the zero-cost contract of DESIGN.md §10.
  auto run = [&](bool force) {
    Solver solver;
    std::vector<VarId> vars;
    for (int k = 0; k < 8; ++k) vars.push_back(solver.add_variable(0, 6));
    solver.add(make_all_different_except(vars, -9));  // pigeonhole: UNSAT
    solver.add(make_count_eq(vars, /*value=*/5, /*target=*/1));
    SearchOptions options;
    options.val_heuristic = ValHeuristic::kRandom;
    options.random_var_ties = true;
    options.restart = RestartPolicy::kLuby;
    options.restart_scale = 2;
    options.nogoods = false;
    options.force_reason_trail = force;
    options.seed = 23;
    return solver.solve(options);
  };
  const auto plain = run(false);
  const auto traced = run(true);
  EXPECT_EQ(plain.status, SolveStatus::kUnsat);
  EXPECT_EQ(plain.status, traced.status);
  EXPECT_EQ(plain.stats.nodes, traced.stats.nodes);
  EXPECT_EQ(plain.stats.failures, traced.stats.failures);
  EXPECT_EQ(plain.stats.restarts, traced.stats.restarts);
  EXPECT_EQ(plain.stats.propagations, traced.stats.propagations);
  EXPECT_EQ(plain.stats.events, traced.stats.events);
  EXPECT_EQ(plain.assignment, traced.assignment);
}

TEST(Solver, PhaseProfileFillsOnlyUnderProfilingAndStaysWithinSeconds) {
  // The phase clock reads hide behind prop_profile: off, every phase reads
  // zero; on, each interval of the search loop is charged to one phase, so
  // the phases never sum past the solve's wall time.  Profiling observes
  // only: the tree is the same either way.
  auto run = [&](bool profile) {
    Solver solver;
    std::vector<VarId> vars;
    for (int k = 0; k < 7; ++k) vars.push_back(solver.add_variable(0, 5));
    solver.add(make_all_different_except(vars, -9));  // pigeonhole: UNSAT
    solver.add(make_count_eq(vars, /*value=*/5, /*target=*/1));
    SearchOptions options;
    options.val_heuristic = ValHeuristic::kRandom;
    options.random_var_ties = true;
    options.restart = RestartPolicy::kLuby;
    options.restart_scale = 2;
    options.nogoods = true;
    options.prop_profile = profile;
    options.seed = 23;
    return solver.solve(options);
  };
  const auto off = run(false);
  const auto on = run(true);
  EXPECT_EQ(off.status, SolveStatus::kUnsat);
  EXPECT_EQ(off.stats.nodes, on.stats.nodes);
  EXPECT_EQ(off.stats.failures, on.stats.failures);
  EXPECT_EQ(off.stats.restarts, on.stats.restarts);

  const SearchPhases& zero = off.stats.phases;
  EXPECT_EQ(zero.select, 0.0);
  EXPECT_EQ(zero.propagate, 0.0);
  EXPECT_EQ(zero.analyze, 0.0);
  EXPECT_EQ(zero.minimize, 0.0);
  EXPECT_EQ(zero.backjump, 0.0);
  EXPECT_EQ(zero.restart, 0.0);

  const SearchPhases& p = on.stats.phases;
  ASSERT_GT(on.stats.restarts, 0);
  ASSERT_GT(on.stats.backjumps, 0);
  EXPECT_GT(p.select, 0.0);
  EXPECT_GT(p.propagate, 0.0);
  EXPECT_GT(p.analyze, 0.0);
  EXPECT_GE(p.minimize, 0.0);
  EXPECT_GT(p.backjump, 0.0);
  EXPECT_GT(p.restart, 0.0);
  EXPECT_LE(p.total(), on.stats.seconds);
}

TEST(Solver, CancelledTokenReportsTimeout) {
  // Cooperative cancellation surfaces as a deadline expiry at the next
  // poll, even with no wall-clock limit set.
  Solver solver;
  std::vector<VarId> vars;
  for (int k = 0; k < 10; ++k) vars.push_back(solver.add_variable(0, 8));
  solver.add(make_all_different_except(vars, -9));  // pigeonhole: slow proof
  const auto token = support::CancelToken::make();
  token.cancel();
  SearchOptions options;
  options.deadline.set_cancel(token);
  const auto outcome = solver.solve(options);
  EXPECT_EQ(outcome.status, SolveStatus::kTimeout);
}

TEST(Solver, LexHeuristicAssignsInDeclarationOrder) {
  Solver solver;
  const VarId a = solver.add_variable(0, 1);
  const VarId b = solver.add_variable(0, 1);
  solver.add(make_at_most_one({a, b}));
  SearchOptions options;
  options.var_heuristic = VarHeuristic::kLex;
  options.val_heuristic = ValHeuristic::kMax;  // try 1 first
  const auto outcome = solver.solve(options);
  ASSERT_EQ(outcome.status, SolveStatus::kSat);
  EXPECT_EQ(outcome.assignment[static_cast<std::size_t>(a)], 1);
  EXPECT_EQ(outcome.assignment[static_cast<std::size_t>(b)], 0);
}

TEST(SolverDeathTest, SecondSolveIsANamedPrecondition) {
  // A solve leaves the domains and the trail where its search stopped, so
  // a second one on the same instance is refused by name, not by whatever
  // invariant it would trip first.
  Solver solver;
  const VarId a = solver.add_variable(0, 1);
  const VarId b = solver.add_variable(0, 1);
  solver.add(make_at_most_one({a, b}));
  ASSERT_EQ(solver.solve({}).status, SolveStatus::kSat);
  EXPECT_DEATH(static_cast<void>(solver.solve({})),
               "precondition violated.*may run once per Solver instance");
}

}  // namespace
}  // namespace mgrts::csp
