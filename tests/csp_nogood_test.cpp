// Conflict-analysis nogood minimization (DESIGN.md §10): the block-LBD
// measure and a hand-built implication chain whose minimal nogood is
// pinned exactly.
#include <gtest/gtest.h>

#include <vector>

#include "csp/nogoods.hpp"
#include "csp/propagators.hpp"
#include "csp/solver.hpp"

namespace mgrts::csp {
namespace {

// ------------------------------------------------------------- block LBD

TEST(BlockLbd, CountsMaximalRunsOfConsecutiveDepths) {
  auto lbd = [](std::vector<std::int32_t> depths) {
    return block_lbd(depths.data(), static_cast<std::int32_t>(depths.size()));
  };
  EXPECT_EQ(lbd({0}), 1);
  EXPECT_EQ(lbd({0, 1, 2}), 1);       // an unminimized decision set
  EXPECT_EQ(lbd({3, 4, 5, 6, 7, 8}), 1);  // long but narrow
  EXPECT_EQ(lbd({0, 2, 4}), 3);       // every literal its own block
  EXPECT_EQ(lbd({2, 10, 20}), 3);     // short but wide
  EXPECT_EQ(lbd({0, 1, 5, 6}), 2);
  EXPECT_EQ(lbd({7, 8, 9, 40}), 2);
}

// ------------------------------------------------- implication-chain walk

// Pigeonhole over {b, c, d} (3 variables, 2 values) behind a decoy
// decision on `a`.  Lex search decides a=0, then b=0; forward checking
// fixes c=1 and d=1 and fails.  The implication trail is
//   d!=1 <- c=1 <- b=0 (decision),   d=1 <- b=0,   c=1 <- b=0,
// so the conflict is reachable from b alone: the minimized nogood is the
// unit (b != 0), while the raw decision set is {a=0, b=0}.
TEST(ConflictAnalysis, ImplicationChainPinsTheMinimalNogood) {
  auto first_conflict = [](bool shrink) {
    Solver solver;
    static_cast<void>(solver.add_variable(0, 1));  // a: the decoy decision
    const VarId b = solver.add_variable(0, 1);
    const VarId c = solver.add_variable(0, 1);
    const VarId d = solver.add_variable(0, 1);
    solver.add(make_all_different_except({b, c, d}, /*except=*/-9));
    SearchOptions options;
    options.var_heuristic = VarHeuristic::kLex;
    options.val_heuristic = ValHeuristic::kMin;
    options.nogoods = true;
    options.nogood_shrink = shrink;
    // Chronological baseline: backjumping would assert (b != 0) at the root
    // after this conflict and fail again without consuming a node, so the
    // "exactly one failure" pin below only holds for the classic retry.
    options.backjump = false;
    options.max_nodes = 2;  // stop right after the first conflict
    return solver.solve(options).stats;
  };

  const SolveStats shrunk = first_conflict(true);
  EXPECT_EQ(shrunk.failures, 1);
  EXPECT_EQ(shrunk.nogoods_recorded, 1);
  EXPECT_EQ(shrunk.nogood_lits_before, 2);  // raw set: {a=0, b=0}
  EXPECT_EQ(shrunk.nogood_lits_after, 1);   // minimized: {b=0}, a root unit

  const SolveStats raw = first_conflict(false);
  EXPECT_EQ(raw.nogoods_recorded, 1);
  EXPECT_EQ(raw.nogood_lits_before, 2);
  EXPECT_EQ(raw.nogood_lits_after, 2);  // shrinking off: full decision set
}

TEST(ConflictAnalysis, ShrunkSearchStillProvesUnsat) {
  for (const bool shrink : {false, true}) {
    Solver solver;
    static_cast<void>(solver.add_variable(0, 1));
    std::vector<VarId> hole;
    for (int k = 0; k < 3; ++k) hole.push_back(solver.add_variable(0, 1));
    solver.add(make_all_different_except(hole, /*except=*/-9));
    SearchOptions options;
    options.var_heuristic = VarHeuristic::kLex;
    options.nogoods = true;
    options.nogood_shrink = shrink;
    EXPECT_EQ(solver.solve(options).status, SolveStatus::kUnsat);
  }
}

// Deep conflicts with local causes: the raw decision set exceeds the
// length cut (so pre-analysis recording skipped them entirely), but the
// minimized clause fits and records.
TEST(ConflictAnalysis, RecordsDeepConflictsWhoseMinimizedClauseFits) {
  auto run = [](bool shrink) {
    Solver solver;
    // 6 decoy variables deepen the frame stack past the length cut before
    // the 3-variable pigeonhole conflicts.
    for (int k = 0; k < 6; ++k) static_cast<void>(solver.add_variable(0, 1));
    std::vector<VarId> hole;
    for (int k = 0; k < 3; ++k) hole.push_back(solver.add_variable(0, 1));
    solver.add(make_all_different_except(hole, /*except=*/-9));
    SearchOptions options;
    options.var_heuristic = VarHeuristic::kLex;
    options.val_heuristic = ValHeuristic::kMin;
    options.nogoods = true;
    options.nogood_shrink = shrink;
    options.nogood_max_length = 3;  // below the 7-decision conflict depth
    return solver.solve(options);
  };
  const auto raw = run(false);
  EXPECT_EQ(raw.status, SolveStatus::kUnsat);
  EXPECT_EQ(raw.stats.nogoods_recorded, 0) << "raw decision sets exceed "
                                              "the cut and must be skipped";
  const auto shrunk = run(true);
  EXPECT_EQ(shrunk.status, SolveStatus::kUnsat);
  EXPECT_GT(shrunk.stats.nogoods_recorded, 0)
      << "minimized clauses fit the cut and must record";
}

}  // namespace
}  // namespace mgrts::csp
