// Unit tests for individual propagators, driven through tiny Solver models
// so that pruning happens exactly as in production (queue + trail).
#include "csp/propagators.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "csp/solver.hpp"
#include "support/rng.hpp"

namespace mgrts::csp {
namespace {

/// Enumerates all solutions of a small model by repeatedly solving with an
/// added "block this assignment" constraint is overkill; instead just check
/// solution counts by brute force over a fresh solver per candidate.
/// Helper: returns true iff the model with the given pre-assignments is SAT.
template <typename Builder>
bool sat_with(Builder&& build, const std::vector<std::pair<int, Value>>& pins) {
  Solver solver;
  std::vector<VarId> vars = build(solver);
  for (const auto& [idx, value] : pins) {
    if (!solver.post_fix(vars[static_cast<std::size_t>(idx)], value)) {
      return false;
    }
  }
  return solver.solve({}).status == SolveStatus::kSat;
}

// ----------------------------------------------------------- AtMostOneTrue

TEST(AtMostOneTrue, AllowsZeroOrOne) {
  auto build = [](Solver& s) {
    std::vector<VarId> vars{s.add_variable(0, 1), s.add_variable(0, 1),
                            s.add_variable(0, 1)};
    s.add(make_at_most_one(vars));
    return vars;
  };
  EXPECT_TRUE(sat_with(build, {}));
  EXPECT_TRUE(sat_with(build, {{0, 1}}));
  EXPECT_TRUE(sat_with(build, {{0, 0}, {1, 0}, {2, 0}}));
}

TEST(AtMostOneTrue, RejectsTwoTrue) {
  auto build = [](Solver& s) {
    std::vector<VarId> vars{s.add_variable(0, 1), s.add_variable(0, 1),
                            s.add_variable(0, 1)};
    s.add(make_at_most_one(vars));
    return vars;
  };
  EXPECT_FALSE(sat_with(build, {{0, 1}, {2, 1}}));
}

TEST(AtMostOneTrue, PropagatesZerosFromOne) {
  Solver solver;
  std::vector<VarId> vars{solver.add_variable(0, 1), solver.add_variable(0, 1),
                          solver.add_variable(0, 1)};
  solver.add(make_at_most_one(vars));
  ASSERT_TRUE(solver.post_fix(vars[1], 1));
  const auto outcome = solver.solve({});
  ASSERT_EQ(outcome.status, SolveStatus::kSat);
  EXPECT_EQ(outcome.assignment[0], 0);
  EXPECT_EQ(outcome.assignment[2], 0);
}

// --------------------------------------------------------- LinearBoolSumEq

TEST(LinearBoolSumEq, ExactCount) {
  auto build = [](Solver& s) {
    std::vector<VarId> vars;
    for (int k = 0; k < 5; ++k) vars.push_back(s.add_variable(0, 1));
    s.add(make_sum_eq(vars, 2));
    return vars;
  };
  EXPECT_TRUE(sat_with(build, {}));
  EXPECT_TRUE(sat_with(build, {{0, 1}, {1, 1}, {2, 0}, {3, 0}, {4, 0}}));
  EXPECT_FALSE(sat_with(build, {{0, 1}, {1, 1}, {2, 1}}));          // > 2
  EXPECT_FALSE(sat_with(build, {{0, 0}, {1, 0}, {2, 0}, {3, 0}}));  // < 2
}

TEST(LinearBoolSumEq, WeightedReachability) {
  auto build = [](Solver& s) {
    std::vector<VarId> vars{s.add_variable(0, 1), s.add_variable(0, 1)};
    s.add(make_weighted_sum_eq(vars, {2, 3}, 3));
    return vars;
  };
  // Only x1=0, x2=1 reaches exactly 3.
  EXPECT_TRUE(sat_with(build, {}));
  EXPECT_FALSE(sat_with(build, {{0, 1}}));  // 2 alone can't reach 3: 2 or 5
  EXPECT_TRUE(sat_with(build, {{1, 1}}));
}

TEST(LinearBoolSumEq, WeightedParityGap) {
  // Weights {2, 2}, target 3: unreachable.
  auto build = [](Solver& s) {
    std::vector<VarId> vars{s.add_variable(0, 1), s.add_variable(0, 1)};
    s.add(make_weighted_sum_eq(vars, {2, 2}, 3));
    return vars;
  };
  EXPECT_FALSE(sat_with(build, {}));
}

TEST(LinearBoolSumEq, ForcesRemainderThroughPropagation) {
  Solver solver;
  std::vector<VarId> vars;
  for (int k = 0; k < 3; ++k) vars.push_back(solver.add_variable(0, 1));
  solver.add(make_sum_eq(vars, 3));
  const auto outcome = solver.solve({});
  ASSERT_EQ(outcome.status, SolveStatus::kSat);
  // Propagation alone must fix everything: exactly one node explored at
  // most (the solve loop may even find all variables fixed pre-search).
  EXPECT_LE(outcome.stats.nodes, 1);
}

TEST(LinearBoolSumEq, ZeroTargetForcesAllZero) {
  Solver solver;
  std::vector<VarId> vars;
  for (int k = 0; k < 4; ++k) vars.push_back(solver.add_variable(0, 1));
  solver.add(make_sum_eq(vars, 0));
  const auto outcome = solver.solve({});
  ASSERT_EQ(outcome.status, SolveStatus::kSat);
  for (const Value v : outcome.assignment) EXPECT_EQ(v, 0);
}

// ------------------------------------------------------------------ CountEq

TEST(CountEq, ExactOccurrences) {
  auto build = [](Solver& s) {
    std::vector<VarId> vars;
    for (int k = 0; k < 4; ++k) vars.push_back(s.add_variable(0, 2));
    s.add(make_count_eq(vars, 1, 2));
    return vars;
  };
  EXPECT_TRUE(sat_with(build, {}));
  EXPECT_FALSE(sat_with(build, {{0, 1}, {1, 1}, {2, 1}}));
  EXPECT_TRUE(sat_with(build, {{0, 1}, {1, 1}, {2, 0}, {3, 2}}));
  EXPECT_FALSE(sat_with(build, {{0, 0}, {1, 0}, {2, 2}}));  // at most 1 left
}

TEST(CountEq, UbEqualsTargetForcesValue) {
  Solver solver;
  std::vector<VarId> vars{solver.add_variable(0, 2), solver.add_variable(0, 2),
                          solver.add_variable(0, 2)};
  solver.add(make_count_eq(vars, 2, 3));
  const auto outcome = solver.solve({});
  ASSERT_EQ(outcome.status, SolveStatus::kSat);
  for (const Value v : outcome.assignment) EXPECT_EQ(v, 2);
  EXPECT_LE(outcome.stats.nodes, 1);
}

TEST(CountEq, TargetZeroRemovesValueEverywhere) {
  Solver solver;
  std::vector<VarId> vars{solver.add_variable(0, 1), solver.add_variable(0, 1)};
  solver.add(make_count_eq(vars, 0, 0));
  const auto outcome = solver.solve({});
  ASSERT_EQ(outcome.status, SolveStatus::kSat);
  for (const Value v : outcome.assignment) EXPECT_EQ(v, 1);
}

// --------------------------------------------------------- WeightedCountEq

TEST(WeightedCountEq, HeterogeneousAmounts) {
  // Two slots with rates 2 and 1; task value = 1; required amount 3:
  // both slots must take value 1.
  auto build = [](Solver& s) {
    std::vector<VarId> vars{s.add_variable(0, 1), s.add_variable(0, 1)};
    s.add(make_weighted_count_eq(vars, {2, 1}, 1, 3));
    return vars;
  };
  EXPECT_TRUE(sat_with(build, {}));
  EXPECT_FALSE(sat_with(build, {{0, 0}}));
  EXPECT_FALSE(sat_with(build, {{1, 0}}));
}

TEST(WeightedCountEq, OvershootPruned) {
  // Rates {3}; amount 2: impossible (running overshoots, not running
  // undershoots).
  auto build = [](Solver& s) {
    std::vector<VarId> vars{s.add_variable(0, 1)};
    s.add(make_weighted_count_eq(vars, {3}, 1, 2));
    return vars;
  };
  EXPECT_FALSE(sat_with(build, {}));
}

// ------------------------------------------------------ AllDifferentExcept

TEST(AllDifferentExcept, IdleMayRepeat) {
  auto build = [](Solver& s) {
    std::vector<VarId> vars{s.add_variable(-1, 1), s.add_variable(-1, 1),
                            s.add_variable(-1, 1)};
    s.add(make_all_different_except(vars, -1));
    return vars;
  };
  EXPECT_TRUE(sat_with(build, {{0, -1}, {1, -1}, {2, -1}}));
  EXPECT_TRUE(sat_with(build, {{0, 0}, {1, 1}, {2, -1}}));
  EXPECT_FALSE(sat_with(build, {{0, 0}, {1, 0}}));
  EXPECT_FALSE(sat_with(build, {{0, 1}, {2, 1}}));
}

TEST(AllDifferentExcept, PropagatesRemovalFromFixed) {
  Solver solver;
  std::vector<VarId> vars{solver.add_variable(0, 1), solver.add_variable(0, 1)};
  solver.add(make_all_different_except(vars, -1));
  ASSERT_TRUE(solver.post_fix(vars[0], 1));
  const auto outcome = solver.solve({});
  ASSERT_EQ(outcome.status, SolveStatus::kSat);
  EXPECT_EQ(outcome.assignment[1], 0);
}

// ------------------------------------------------------------ SymmetryChain

TEST(SymmetryChain, AscendingWithIdleLast) {
  // Domain {0,1,2, idle=3} on a 2-chain: valid rows are strictly ascending
  // non-idle prefixes with idles trailing.
  auto build = [](Solver& s) {
    std::vector<VarId> vars{s.add_variable(0, 3), s.add_variable(0, 3)};
    s.add(make_symmetry_chain(vars, 3));
    return vars;
  };
  EXPECT_TRUE(sat_with(build, {{0, 0}, {1, 1}}));
  EXPECT_TRUE(sat_with(build, {{0, 2}, {1, 3}}));   // task then idle
  EXPECT_TRUE(sat_with(build, {{0, 3}, {1, 3}}));   // both idle
  EXPECT_FALSE(sat_with(build, {{0, 1}, {1, 1}}));  // equal non-idle
  EXPECT_FALSE(sat_with(build, {{0, 2}, {1, 1}}));  // descending
  EXPECT_FALSE(sat_with(build, {{0, 3}, {1, 0}}));  // task after idle
}

TEST(SymmetryChain, TripleChainTransitivity) {
  auto build = [](Solver& s) {
    std::vector<VarId> vars{s.add_variable(0, 4), s.add_variable(0, 4),
                            s.add_variable(0, 4)};
    s.add(make_symmetry_chain(vars, 4));
    return vars;
  };
  EXPECT_TRUE(sat_with(build, {{0, 0}, {1, 2}, {2, 3}}));
  EXPECT_TRUE(sat_with(build, {{0, 1}, {1, 4}, {2, 4}}));
  EXPECT_FALSE(sat_with(build, {{0, 2}, {2, 1}}));  // end below start
  EXPECT_FALSE(sat_with(build, {{1, 4}, {2, 0}}));  // task after idle
}

TEST(SymmetryChain, PropagatesBoundsBothWays) {
  Solver solver;
  // a in {2,3}, b in {0..4}, idle = 4: fixing b = 3 forces a to {2} (a < 3,
  // and idle is not allowed before a task).
  const VarId a = solver.add_variable(2, 3);
  const VarId b = solver.add_variable(0, 4);
  solver.add(make_symmetry_chain({a, b}, 4));
  ASSERT_TRUE(solver.post_fix(b, 3));
  const auto outcome = solver.solve({});
  ASSERT_EQ(outcome.status, SolveStatus::kSat);
  EXPECT_EQ(outcome.assignment[static_cast<std::size_t>(a)], 2);
}

TEST(SymmetryChain, RootFixpointEqualsThePropagatorsRootSweep) {
  // SymmetryChain::root_fixpoint must leave exactly the domains the
  // propagator's own first run leaves: random small chains over mixed
  // domain bases, idle a value inside the domains' span or one outside it,
  // some positions fixed with post_fix, including chains that empty a
  // domain (the helper returns false where the solve fails at the root).
  support::Rng rng(2026);
  int emptied = 0;
  int narrowed = 0;
  for (int trial = 0; trial < 3'000; ++trial) {
    const auto len = static_cast<int>(rng.uniform(2, 6));
    const auto top = static_cast<Value>(rng.uniform(1, 6));
    Value idle = top;  // inside the span of every domain below
    const auto idle_kind = rng.uniform(0, 2);
    if (idle_kind == 1) idle = -1;  // below every domain
    if (idle_kind == 2) idle = 200;  // past every domain's window
    Solver solver;
    std::vector<VarId> vars;
    std::vector<Domain64> domains;
    for (int p = 0; p < len; ++p) {
      const auto lo = static_cast<Value>(rng.uniform(0, 1));
      const VarId v = solver.add_variable(lo, top);
      std::uint64_t keep = rng.next_u64();
      if ((keep & solver.domain(v).raw_mask()) == 0) keep = 1;
      ASSERT_TRUE(solver.post_restrict(v, keep));
      if (rng.chance(0.2)) {
        ASSERT_TRUE(solver.post_fix(v, solver.domain(v).max()));
      }
      vars.push_back(v);
      domains.push_back(solver.domain(v));
    }
    const std::vector<Domain64> before = domains;
    solver.add(make_symmetry_chain(vars, idle));
    SearchOptions options;
    options.max_nodes = 0;
    const SolveOutcome outcome = solver.solve(options);

    const bool ok = SymmetryChain::root_fixpoint(domains, idle);
    ASSERT_EQ(ok, outcome.status != SolveStatus::kUnsat) << "trial " << trial;
    if (!ok) {
      ++emptied;
      continue;
    }
    for (std::size_t p = 0; p < vars.size(); ++p) {
      ASSERT_EQ(domains[p].raw_mask(), solver.domain(vars[p]).raw_mask())
          << "trial " << trial << ", position " << p;
      if (domains[p].raw_mask() != before[p].raw_mask()) ++narrowed;
    }
  }
  EXPECT_GT(emptied, 100);
  EXPECT_GT(narrowed, 1'000);
}

}  // namespace
}  // namespace mgrts::csp
