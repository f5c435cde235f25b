// True 1-UIP clause learning (DESIGN.md §11): a hand-built implication
// chain whose exact 1-UIP clause is pinned against the decision-set
// baseline, generalized (bound-literal) watch/replay semantics, on-the-fly
// subsumption, replay-hit LBD refresh, and the randomized 1-UIP vs
// decision-set differential — solver-level and on the pipeline residue.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/solve.hpp"
#include "csp/nogoods.hpp"
#include "csp/propagators.hpp"
#include "csp/solver.hpp"
#include "encodings/csp2_generic.hpp"
#include "exp/harness.hpp"
#include "gen/generator.hpp"
#include "rt/platform.hpp"
#include "support/rng.hpp"

namespace mgrts::csp {
namespace {

// ------------------------------------------------ 1-UIP implication chain

// Two decisions u=0, x=0 jointly imply y=1 through CountEq({u,x,y}, 0, 2)
// (exactly two zeros); y=1 then collapses the {y,c,d} pigeonhole over
// {1,2}.  The conflict's frontier is the single implied literal y=1: the
// 1-UIP clause is the unit (y >= 1) — emitted in bound form because the
// pruned value is y's root min — while the decision-set walk must expand
// y's reason and keep both decisions {u=0, x=0}.
SolveStats uip_chain_run(NogoodLearn learn) {
  Solver solver;
  const VarId u = solver.add_variable(0, 1);
  const VarId x = solver.add_variable(0, 1);
  const VarId y = solver.add_variable(0, 1);
  const VarId c = solver.add_variable(1, 2);
  const VarId d = solver.add_variable(1, 2);
  solver.add(make_count_eq({u, x, y}, /*value=*/0, /*target=*/2));
  solver.add(make_all_different_except({y, c, d}, /*except=*/-9));
  SearchOptions options;
  options.var_heuristic = VarHeuristic::kLex;
  options.val_heuristic = ValHeuristic::kMin;
  options.nogoods = true;
  options.nogood_learn = learn;
  const SolveOutcome outcome = solver.solve(options);
  EXPECT_EQ(outcome.status, SolveStatus::kSat);
  return outcome.stats;
}

TEST(Uip, FirstUipIsTheImpliedLiteralNotTheDecisions) {
  const SolveStats uip = uip_chain_run(NogoodLearn::kUip1);
  EXPECT_EQ(uip.failures, 1);
  EXPECT_EQ(uip.nogoods_recorded, 1);
  EXPECT_EQ(uip.nogood_lits_before, 2);  // raw decision set: {u=0, x=0}
  EXPECT_EQ(uip.nogood_lits_after, 1);   // the 1-UIP unit: (y >= 1)

  const SolveStats ds = uip_chain_run(NogoodLearn::kDecisionSet);
  EXPECT_EQ(ds.failures, 1);  // the same conflict
  EXPECT_EQ(ds.nogoods_recorded, 1);
  EXPECT_EQ(ds.nogood_lits_after, 2);  // decision-set keeps both decisions
}

// ------------------------------------------- bound watches fire on prunes

/// A general store holding one clause, recorded before the search starts
/// and compacted by a root-level maintenance pass, ready to be added to
/// `solver` from outside (Solver::solve then leaves it on the watch lists).
std::unique_ptr<NogoodStore> seeded_store(Solver& solver,
                                          const std::vector<Lit>& clause,
                                          std::int32_t lbd,
                                          SolveStats& stats) {
  auto store = std::make_unique<NogoodStore>(
      solver.variable_count(), /*max_length=*/24, /*db_limit=*/100,
      /*general=*/true);
  store->bind_stats(&stats);
  store->attach(solver);
  const auto len = static_cast<std::int32_t>(clause.size());
  store->record(clause, len, lbd, stats);
  EXPECT_TRUE(store->restart_maintenance(solver, stats));
  EXPECT_EQ(store->clause_count(), 1);
  return store;
}

TEST(Uip, BoundWatchFiresOnBoundMovementNotOnlyOnFix) {
  // SymmetryChain(x < b) with x decided to 3 prunes b's low values without
  // ever fixing b; the stored nogood {b >= 3, c == 1} must wake on that
  // bound movement and assert c != 1 before c is ever decided.
  Solver solver;
  const VarId x = solver.add_variable(2, 3);
  const VarId b = solver.add_variable(0, 4);
  const VarId c = solver.add_variable(0, 1);
  solver.add(make_symmetry_chain({x, b}, /*idle=*/-1));

  SolveStats replay;
  solver.add(seeded_store(solver, {Lit::ge(b, 3), Lit::eq(c, 1)},
                          /*lbd=*/1, replay));

  SearchOptions options;
  options.var_heuristic = VarHeuristic::kLex;
  options.val_heuristic = ValHeuristic::kMax;  // x=3 first, c would be 1
  const SolveOutcome outcome = solver.solve(options);
  ASSERT_EQ(outcome.status, SolveStatus::kSat);
  EXPECT_EQ(outcome.assignment[static_cast<std::size_t>(x)], 3);
  EXPECT_EQ(outcome.assignment[static_cast<std::size_t>(b)], 4);
  // Without the replay, kMax would have picked c = 1.
  EXPECT_EQ(outcome.assignment[static_cast<std::size_t>(c)], 0);
  EXPECT_EQ(replay.nogood_props, 1);
}

// --------------------------------------------------- on-the-fly subsumption

TEST(Uip, FreshRecordingSubsumesThePreviousOne) {
  NogoodStore store(10, /*max_length=*/24, /*db_limit=*/100,
                    /*general=*/true);
  SolveStats stats;
  const std::vector<Lit> longer{Lit::eq(0, 1), Lit::eq(1, 1), Lit::eq(2, 1)};
  const std::vector<Lit> shorter{Lit::eq(0, 1), Lit::eq(1, 1)};
  store.record(longer, 3, 1, stats);
  EXPECT_EQ(store.clause_count(), 1);
  store.record(shorter, 2, 1, stats);
  // The shorter clause forbids strictly more states: the longer one dies.
  EXPECT_EQ(stats.nogoods_subsumed, 1);
  EXPECT_EQ(store.clause_count(), 1);
  EXPECT_EQ(stats.nogoods_recorded, 2);
}

TEST(Uip, PreviousRecordingAbsorbsARedundantFreshClause) {
  NogoodStore store(10, 24, 100, /*general=*/true);
  SolveStats stats;
  const std::vector<Lit> shorter{Lit::eq(0, 1), Lit::eq(1, 1)};
  const std::vector<Lit> longer{Lit::eq(0, 1), Lit::eq(1, 1), Lit::eq(2, 1)};
  store.record(shorter, 2, 1, stats);
  store.record(longer, 3, 1, stats);
  EXPECT_EQ(stats.nogoods_subsumed, 1);
  EXPECT_EQ(store.clause_count(), 1);
  EXPECT_EQ(stats.nogoods_recorded, 1) << "the absorbed clause must not "
                                          "count as a recording";
}

TEST(Uip, BoundLiteralsSubsumeByImplication) {
  NogoodStore store(10, 24, 100, /*general=*/true);
  SolveStats stats;
  // {x>=2, y==1} is a special case of {x>=1, y==1}: the second recording
  // (weaker literals, more general nogood) replaces the first.
  const std::vector<Lit> tight{Lit::ge(0, 2), Lit::eq(1, 1)};
  const std::vector<Lit> loose{Lit::ge(0, 1), Lit::eq(1, 1)};
  store.record(tight, 2, 1, stats);
  store.record(loose, 2, 1, stats);
  EXPECT_EQ(stats.nogoods_subsumed, 1);
  EXPECT_EQ(store.clause_count(), 1);
}

// ---------------------------------------------------- replay-hit LBD refresh

TEST(Uip, ReplayHitRefreshesBlockLbdFromCurrentDepths) {
  // A clause recorded with a pessimistic LBD (6); its first replay fires
  // with both entailed literals glued at consecutive depths 1,2, so the
  // refresh must drop the clause's LBD into the protected core.
  Solver solver;
  const VarId a = solver.add_variable(0, 1);
  const VarId b = solver.add_variable(0, 1);
  const VarId c = solver.add_variable(0, 1);
  static_cast<void>(solver.add_variable(0, 1));  // d: keeps the search going

  SolveStats replay;
  solver.add(seeded_store(solver,
                          {Lit::eq(a, 1), Lit::eq(b, 1), Lit::eq(c, 1)},
                          /*lbd=*/6, replay));

  SearchOptions options;
  options.var_heuristic = VarHeuristic::kLex;
  options.val_heuristic = ValHeuristic::kMax;  // a=1, b=1 → unit on c
  // The refresh reads entailment depths off the per-variable trail chain,
  // which is threaded only while the reason trail is built.
  options.force_reason_trail = true;
  const SolveOutcome outcome = solver.solve(options);
  ASSERT_EQ(outcome.status, SolveStatus::kSat);
  EXPECT_EQ(outcome.assignment[static_cast<std::size_t>(c)], 0);
  EXPECT_EQ(replay.nogood_props, 1);
  EXPECT_EQ(replay.nogood_lbd_refreshed, 1);
}

// force_reason_trail can switch the reason trail on while nogood_shrink is
// off; 1-UIP must not run there (its scratch arrays are only sized for
// real kUip1 learning) and recording falls back to the raw decision set —
// unshrunk, and never driving a backjump.
TEST(Uip, ForcedReasonTrailWithShrinkOffStaysOnTheDecisionSet) {
  Solver solver;
  std::vector<VarId> vars;
  for (int k = 0; k < 6; ++k) vars.push_back(solver.add_variable(0, 4));
  solver.add(make_all_different_except(vars, /*except=*/-9));  // pigeonhole
  SearchOptions options;
  options.nogoods = true;
  options.nogood_shrink = false;
  options.force_reason_trail = true;
  options.restart = RestartPolicy::kLuby;
  options.restart_scale = 2;
  const SolveOutcome outcome = solver.solve(options);
  EXPECT_EQ(outcome.status, SolveStatus::kUnsat);
  EXPECT_EQ(outcome.stats.nogood_lits_after, outcome.stats.nogood_lits_before);
  EXPECT_EQ(outcome.stats.backjumps, 0);
  EXPECT_GT(outcome.stats.nogoods_recorded, 0);
}

// ------------------------------------- non-chronological backjumping (§15)

// The uip_chain model behind a decoy decision: lex search decides a=0,
// u=0, x=0; propagation implies y=1 and collapses the {y,c,d} pigeonhole
// at depth 3.  The 1-UIP clause is the unit (y >= 1), so its assertion
// level is the root: one backjump must discard BOTH standing decision
// levels above it ((3-1) - 0 = 2 levels saved, where chronological retry
// would have unwound one) and assert y = 0 there, which the final
// solution then carries.
TEST(Backjump, UnitClauseJumpsToTheRootAndAssertsTheNegatedUip) {
  auto run = [](bool backjump) {
    Solver solver;
    static_cast<void>(solver.add_variable(0, 1));  // a: the decoy decision
    const VarId u = solver.add_variable(0, 1);
    const VarId x = solver.add_variable(0, 1);
    const VarId y = solver.add_variable(0, 1);
    const VarId c = solver.add_variable(1, 2);
    const VarId d = solver.add_variable(1, 2);
    solver.add(make_count_eq({u, x, y}, /*value=*/0, /*target=*/2));
    solver.add(make_all_different_except({y, c, d}, /*except=*/-9));
    SearchOptions options;
    options.var_heuristic = VarHeuristic::kLex;
    options.val_heuristic = ValHeuristic::kMin;
    options.nogoods = true;
    options.backjump = backjump;
    const SolveOutcome outcome = solver.solve(options);
    EXPECT_EQ(outcome.status, SolveStatus::kSat);
    return outcome;
  };

  const SolveOutcome jumped = run(true);
  EXPECT_EQ(jumped.stats.backjumps, 1);
  EXPECT_EQ(jumped.stats.backjump_levels_saved, 2);
  // The asserted literal ¬(y >= 1) pruned y to 0 at the root, so the
  // solution must carry it (and CountEq then forbids a second zero).
  EXPECT_EQ(jumped.assignment[3], 0);  // y
  EXPECT_NE(jumped.assignment[1], jumped.assignment[2]);  // u != x

  const SolveOutcome chrono = run(false);
  EXPECT_EQ(chrono.stats.backjumps, 0);
  EXPECT_EQ(chrono.stats.backjump_levels_saved, 0);
  EXPECT_EQ(chrono.status, jumped.status);
}

// ------------------------------------------------- randomized differential

/// Random pigeonhole-flavored models: alldifferent blocks over shared
/// variables plus a counting rule — conflict-rich, restart-heavy, and
/// fully decidable at this size.
SolveOutcome random_model_run(std::uint64_t seed, NogoodLearn learn,
                              bool backjump = true) {
  support::Rng model_rng(seed);
  Solver solver;
  const int nv = 9;
  std::vector<VarId> vars;
  for (int k = 0; k < nv; ++k) {
    vars.push_back(solver.add_variable(0, 4 + static_cast<Value>(
                                                  model_rng.uniform(0, 2))));
  }
  for (int block = 0; block < 3; ++block) {
    std::vector<VarId> scope;
    for (const VarId v : vars) {
      if (model_rng.uniform(0, 2) != 0) scope.push_back(v);
    }
    if (scope.size() >= 2) {
      solver.add(make_all_different_except(scope, /*except=*/-9));
    }
  }
  solver.add(make_count_eq(vars, /*value=*/0,
                           /*target=*/model_rng.uniform(0, 2)));
  SearchOptions options;
  options.val_heuristic = ValHeuristic::kRandom;
  options.random_var_ties = true;
  options.restart = RestartPolicy::kLuby;
  options.restart_scale = 3;
  options.nogoods = true;
  options.nogood_learn = learn;
  options.backjump = backjump;
  options.seed = seed * 77 + 13;
  return solver.solve(options);
}

TEST(UipDifferential, VerdictEqualAndNeverLongerThanDecisionSet) {
  std::int64_t recorded = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const SolveOutcome uip = random_model_run(seed, NogoodLearn::kUip1);
    const SolveOutcome ds = random_model_run(seed, NogoodLearn::kDecisionSet);
    // Both searches are complete, so learning must not change the verdict.
    EXPECT_EQ(uip.status, ds.status) << "seed " << seed;
    // Per conflict the 1-UIP clause is never longer than the decision set
    // the conflict stands on, so the recorded total never exceeds the raw
    // decision-set total.
    EXPECT_LE(uip.stats.nogood_lits_after, uip.stats.nogood_lits_before)
        << "seed " << seed;
    recorded += uip.stats.nogoods_recorded;
  }
  EXPECT_GT(recorded, 0) << "the family must actually learn";
}

// The same differential where the ledger measures it: the pipeline residue
// (instances the csp2 presolve probe leaves undecided).  Node budgets keep
// both lanes deterministic; instances both lanes decide must agree.
TEST(UipDifferential, ResidueLanesAreVerdictEqual) {
  exp::BatchOptions options;
  options.generator.tasks = 10;
  options.generator.processors = 5;
  options.generator.t_max = 7;
  options.instances = 24;
  options.seed = 20090911;
  options.workers = 1;
  const exp::ResidueSpec residue = exp::residue_spec(
      options, exp::presolve_probe_spec(/*limit_ms=*/200,
                                        /*flow_oracle=*/false,
                                        /*presolve_max_nodes=*/300));
  ASSERT_GT(residue.probed, 0);
  if (residue.indices().empty()) {
    GTEST_SKIP() << "presolve absorbed the whole stream at this seed";
  }

  auto lane = [&](const char* label, NogoodLearn learn) {
    exp::SolverSpec spec;
    spec.label = label;
    spec.config.method = core::Method::kCsp2Generic;
    spec.config.max_nodes = 3000;
    spec.config.pipeline = core::PipelineOptions::none();
    spec.config.generic = core::choco_like_defaults(/*seed=*/7);
    spec.config.generic.nogoods = true;
    spec.config.generic.nogood_learn = learn;
    return spec;
  };
  const exp::BatchResult batch = exp::run_batch(
      residue.batch, {lane("uip", NogoodLearn::kUip1),
                      lane("dset", NogoodLearn::kDecisionSet)});

  std::int64_t recorded = 0;
  for (const auto& inst : batch.instances) {
    const exp::RunRecord& uip = inst.runs[0];
    const exp::RunRecord& ds = inst.runs[1];
    if (!uip.overrun() && !ds.overrun()) {
      EXPECT_EQ(uip.verdict, ds.verdict) << "instance " << inst.index;
    }
    recorded += uip.nogoods.recorded;
  }
  EXPECT_GT(recorded, 0) << "the residue race must actually analyze "
                            "conflicts";
}

// Backjumping re-routes the search tree, so node counts are not expected
// to match the chronological run seed-by-seed — but both searches stay
// complete (verdict-equal), every jump must actually skip levels, and over
// the family the asserting-clause-driven search must not cost more nodes
// than pure chronological retry.
TEST(BackjumpDifferential, VerdictEqualAndNoCostlierOverTheFamily) {
  std::int64_t nodes_jumped = 0;
  std::int64_t nodes_chrono = 0;
  std::int64_t backjumps = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const SolveOutcome jumped =
        random_model_run(seed, NogoodLearn::kUip1, /*backjump=*/true);
    const SolveOutcome chrono =
        random_model_run(seed, NogoodLearn::kUip1, /*backjump=*/false);
    EXPECT_EQ(jumped.status, chrono.status) << "seed " << seed;
    EXPECT_EQ(chrono.stats.backjumps, 0) << "seed " << seed;
    // A jump to level (conflict_depth - 1) lands on the chronological
    // retry's trail prefix (asserting instead of re-deciding) and saves 0
    // levels, so levels_saved only bounds the multi-level jumps.
    EXPECT_GE(jumped.stats.backjump_levels_saved, 0) << "seed " << seed;
    nodes_jumped += jumped.stats.nodes;
    nodes_chrono += chrono.stats.nodes;
    backjumps += jumped.stats.backjumps;
  }
  EXPECT_GT(backjumps, 0) << "the family must actually exercise the jump";
  EXPECT_LE(nodes_jumped, nodes_chrono);
}

/// A denser sibling of random_model_run: wider domains and overlapping
/// blocks, so every instance settles only after thousands of backjump
/// unwinds.
SolveOutcome random_dense_model_run(std::uint64_t seed, PropagationMode mode) {
  support::Rng model_rng(seed);
  Solver solver;
  const int nv = 12;
  std::vector<VarId> vars;
  for (int k = 0; k < nv; ++k) {
    vars.push_back(solver.add_variable(0, 6 + static_cast<Value>(
                                                  model_rng.uniform(0, 2))));
  }
  for (int block = 0; block < 4; ++block) {
    std::vector<VarId> scope;
    for (const VarId v : vars) {
      if (model_rng.uniform(0, 3) != 0) scope.push_back(v);
    }
    if (scope.size() >= 2) {
      solver.add(make_all_different_except(scope, /*except=*/-9));
    }
  }
  solver.add(make_count_eq(vars, /*value=*/0,
                           /*target=*/1 + model_rng.uniform(0, 2)));
  solver.add(make_count_eq(vars, /*value=*/1,
                           /*target=*/1 + model_rng.uniform(0, 2)));
  SearchOptions options;
  options.val_heuristic = ValHeuristic::kRandom;
  options.random_var_ties = true;
  options.restart = RestartPolicy::kLuby;
  options.restart_scale = 3;
  options.nogoods = true;
  options.nogood_learn = NogoodLearn::kUip1;
  options.propagation = mode;
  options.seed = seed * 77 + 13;
  return solver.solve(options);
}

// Multi-level unwinds stress the propagator restore disciplines
// (propagators.hpp: trailed counter slots, stale-tolerant pending buffers).
// Scratch propagation recomputes every propagator from its full scope and
// is tree-identical to incremental by construction, so any trailed state
// left inconsistent by a jump shows up as a node or verdict divergence.
TEST(BackjumpDifferential, IncrementalMatchesScratchAcrossMultiLevelUnwinds) {
  std::int64_t backjumps = 0;
  for (const std::uint64_t seed : {9u, 41u, 61u, 67u}) {
    const SolveOutcome fast =
        random_dense_model_run(seed, PropagationMode::kIncremental);
    const SolveOutcome reference =
        random_dense_model_run(seed, PropagationMode::kScratch);
    EXPECT_EQ(fast.status, reference.status) << "seed " << seed;
    EXPECT_EQ(fast.stats.nodes, reference.stats.nodes) << "seed " << seed;
    EXPECT_EQ(fast.stats.failures, reference.stats.failures)
        << "seed " << seed;
    EXPECT_EQ(fast.stats.backjumps, reference.stats.backjumps)
        << "seed " << seed;
    EXPECT_EQ(fast.stats.backjump_levels_saved,
              reference.stats.backjump_levels_saved)
        << "seed " << seed;
    EXPECT_GT(fast.stats.backjumps, 0) << "seed " << seed;
    backjumps += fast.stats.backjumps;
  }
  EXPECT_GT(backjumps, 1000) << "the family must jump in bulk";
}

// ------------------------------------------------- search-tree count pins

// The fleet lane (`csp2g-learn`: CSP2 encoding, Choco-like randomized
// dom/wdeg search with Luby restarts, 1-UIP learning, backjumping and
// minimization) on 24 fixed Table-I instances at a 1,000-node budget.  The
// sums below were recorded from the engine and pin its search trees count
// by count: a throughput change to the engine must leave every tree count
// unchanged.  A change that alters trees on purpose, or moves the
// root-work counts (propagations, wakes), re-pins them and says so in its
// change notes.
TEST(SearchTrees, Csp2gLearnCountsArePinned) {
  gen::GeneratorOptions workload;
  workload.tasks = 10;
  workload.processors = 5;
  workload.rule = gen::ProcessorRule::kFixed;
  workload.t_max = 7;
  workload.order = gen::ParamOrder::kDFirst;

  std::int64_t nodes = 0, failures = 0, restarts = 0, propagations = 0;
  std::int64_t recorded = 0, backjumps = 0, minimized = 0;
  std::map<std::string, std::int64_t> wakes;
  for (std::uint64_t index = 0; index < 24; ++index) {
    const gen::Instance inst = gen::generate_indexed(workload, 1, index);
    exp::SolverSpec spec =
        *exp::spec_from_name("csp2g-learn", /*time_limit_ms=*/60'000,
                             /*seed=*/1);
    exp::reseed_for_index(spec.config, index);
    const enc::Csp2GenericModel model = enc::build_csp2_generic(
        inst.tasks, rt::Platform::identical(inst.processors),
        spec.config.csp2_generic, spec.config.limits);
    SearchOptions options = spec.config.generic;
    options.max_nodes = 1'000;
    const SolveOutcome outcome = model.solver->solve(options);
    nodes += outcome.stats.nodes;
    failures += outcome.stats.failures;
    restarts += outcome.stats.restarts;
    propagations += outcome.stats.propagations;
    recorded += outcome.stats.nogoods_recorded;
    backjumps += outcome.stats.backjumps;
    minimized += outcome.stats.nogood_lits_minimized;
    for (const PropagatorProfile& row : outcome.stats.propagators) {
      wakes[row.name] += row.wakes;
    }
  }
  EXPECT_EQ(nodes, 22'592);
  EXPECT_EQ(failures, 13'686);
  EXPECT_EQ(restarts, 76);
  // propagations and the wakes also count root propagation, so a change to
  // where a model starts (say, a fixpoint posted at build) may move them
  // with identical trees; the tree counts above and below may not move.
  EXPECT_EQ(propagations, 202'811);
  EXPECT_EQ(recorded, 13'618);
  EXPECT_EQ(backjumps, 13'609);
  EXPECT_EQ(minimized, 10'452);
  const std::map<std::string, std::int64_t> pinned_wakes{
      {"all-different-except", 69'707},
      {"count-eq", 160'654},
      {"nogood-store", 57'879},
      {"symmetry-chain", 241'858}};
  EXPECT_EQ(wakes, pinned_wakes);
}

}  // namespace
}  // namespace mgrts::csp
