// Tests for the event-driven incremental propagation engine: event
// filtering (kFixedOnly watchers never see prune events), trailed
// propagator state surviving backtracking and restarts, and a randomized
// differential check that the incremental mode explores exactly the tree
// the from-scratch reference explores.  The search-stack layer rides the
// same harness: heap selection must explore the scan's tree bit-for-bit,
// nogood-enabled search must return the scan on verdicts, and the
// symmetry-chain pair worklist must match the full-sweep reference.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/solve.hpp"
#include "csp/propagators.hpp"
#include "csp/solver.hpp"
#include "encodings/csp1.hpp"
#include "encodings/csp2_generic.hpp"
#include "gen/generator.hpp"
#include "rt/platform.hpp"
#include "support/rng.hpp"

namespace mgrts::csp {
namespace {

// ------------------------------------------------------------ event filter

/// Observes events without pruning; records the domain size seen at every
/// advisor call.
class EventRecorder final : public Propagator {
 public:
  EventRecorder(std::vector<VarId> vars, WakePolicy policy,
                std::vector<int>* sizes_seen)
      : vars_(std::move(vars)), policy_(policy), sizes_seen_(sizes_seen) {}

  PropResult propagate(Solver&) override { return PropResult::kOk; }
  [[nodiscard]] const std::vector<VarId>& scope() const override {
    return vars_;
  }
  [[nodiscard]] const char* name() const override { return "recorder"; }
  [[nodiscard]] WakePolicy wake_policy() const override { return policy_; }
  bool on_event(Solver& solver, std::int32_t pos, std::uint64_t) override {
    sizes_seen_->push_back(
        solver.domain(vars_[static_cast<std::size_t>(pos)]).size());
    return false;
  }

 private:
  std::vector<VarId> vars_;
  WakePolicy policy_;
  std::vector<int>* sizes_seen_;
};

/// Removes one value from its variable on its first run, then stays quiet —
/// produces a prune event that does not fix the variable.
class OnePruner final : public Propagator {
 public:
  explicit OnePruner(VarId var, Value remove) : vars_{var}, remove_(remove) {}
  PropResult propagate(Solver& solver) override {
    if (done_) return PropResult::kOk;
    done_ = true;
    return solver.remove(vars_[0], remove_);
  }
  [[nodiscard]] const std::vector<VarId>& scope() const override {
    return vars_;
  }
  [[nodiscard]] const char* name() const override { return "one-pruner"; }

 private:
  std::vector<VarId> vars_;
  Value remove_;
  bool done_ = false;
};

TEST(EventEngine, FixedOnlyWatcherNeverWakesOnPrune) {
  Solver solver;
  const VarId x = solver.add_variable(0, 3);
  std::vector<int> fixed_sizes;
  std::vector<int> any_sizes;
  solver.add(std::make_unique<OnePruner>(x, 3));
  solver.add(std::make_unique<EventRecorder>(
      std::vector<VarId>{x}, WakePolicy::kFixedOnly, &fixed_sizes));
  solver.add(std::make_unique<EventRecorder>(
      std::vector<VarId>{x}, WakePolicy::kAnyChange, &any_sizes));

  const auto outcome = solver.solve({});
  ASSERT_EQ(outcome.status, SolveStatus::kSat);

  // The any-change watcher saw the root prune (domain size 3) and the
  // search decision that fixed x (size 1).
  ASSERT_GE(any_sizes.size(), 2u);
  EXPECT_EQ(any_sizes.front(), 3);
  EXPECT_EQ(any_sizes.back(), 1);

  // The fixed-only watcher woke exactly once — for the fix — and never for
  // the prune: every event it saw had a singleton domain.
  ASSERT_FALSE(fixed_sizes.empty());
  for (const int size : fixed_sizes) EXPECT_EQ(size, 1);
}

// -------------------------------------------------- trailed state restore

/// Maintains an incremental count of scope variables containing `value`
/// through advisor events and cross-checks it against a from-scratch
/// recount on every run — any missed event or bad trail restore trips the
/// EXPECT inside the search.
class VerifiedCounter final : public Propagator {
 public:
  VerifiedCounter(std::vector<VarId> vars, Value value)
      : vars_(std::move(vars)), value_(value) {}

  void attach(Solver& solver) override {
    count_ = solver.alloc_state(0);
  }

  bool on_event(Solver& solver, std::int32_t pos,
                std::uint64_t old_mask) override {
    if (!primed_) return true;
    const Domain64& d = solver.domain(vars_[static_cast<std::size_t>(pos)]);
    const std::int64_t off = value_ - d.base();
    const bool had =
        off >= 0 && off < 64 && ((old_mask >> static_cast<unsigned>(off)) & 1U);
    const bool has = d.contains(value_);
    if (had != has) solver.set_state(count_, solver.state(count_) - 1);
    return true;
  }

  PropResult propagate(Solver& solver) override {
    std::int64_t fresh = 0;
    for (const VarId v : vars_) {
      if (solver.domain(v).contains(value_)) ++fresh;
    }
    if (!primed_) {
      primed_ = true;
      solver.set_state(count_, fresh);
      return PropResult::kOk;
    }
    ++checks;
    EXPECT_EQ(solver.state(count_), fresh)
        << "incremental counter diverged from the from-scratch recount";
    return PropResult::kOk;
  }

  [[nodiscard]] const std::vector<VarId>& scope() const override {
    return vars_;
  }
  [[nodiscard]] const char* name() const override {
    return "verified-counter";
  }

  int checks = 0;

 private:
  std::vector<VarId> vars_;
  Value value_;
  StateSlot count_ = -1;
  bool primed_ = false;
};

TEST(EventEngine, TrailedStateSurvivesBacktrackingAndRestarts) {
  // A model with heavy backtracking: a pigeonhole (8 variables, 7 values,
  // pairwise distinct — UNSAT) plus a counting rule, searched with
  // randomized restarts, so trailed counters are restored across deep
  // backtracks and full restart rewinds before every check.
  Solver solver;
  std::vector<VarId> vars;
  for (int k = 0; k < 8; ++k) vars.push_back(solver.add_variable(0, 6));
  solver.add(make_all_different_except(vars, /*except=*/-9));
  solver.add(make_count_eq(vars, /*value=*/6, /*target=*/1));
  auto counter = std::make_unique<VerifiedCounter>(vars, /*value=*/3);
  VerifiedCounter* probe = counter.get();
  solver.add(std::move(counter));

  SearchOptions options;
  options.val_heuristic = ValHeuristic::kRandom;
  options.random_var_ties = true;
  options.restart = RestartPolicy::kLuby;
  options.restart_scale = 2;
  options.seed = 11;
  const auto outcome = solver.solve(options);
  EXPECT_EQ(outcome.status, SolveStatus::kUnsat);
  EXPECT_GT(outcome.stats.restarts, 0) << "workload too easy to exercise "
                                          "restart restoration";
  EXPECT_GT(probe->checks, 10);
}

// -------------------------------------------------------- differential

/// Advisors answer identically in both propagation modes (scratch mode
/// only skips the watched-value filter, never an advisor's answer), so on
/// models whose propagators prune in the same event order in both modes the
/// per-class wake counts match too — root propagation included, where
/// unprimed counters must hear every event.  Symmetry chains are the
/// exception: the worklist and the full sweep reach the same fixpoint
/// through different event sequences, so only their trees match.
void expect_same_wakes(const SolveStats& inc, const SolveStats& ref,
                       std::uint64_t index) {
  ASSERT_EQ(inc.propagators.size(), ref.propagators.size());
  for (std::size_t k = 0; k < inc.propagators.size(); ++k) {
    EXPECT_EQ(inc.propagators[k].name, ref.propagators[k].name);
    EXPECT_EQ(inc.propagators[k].wakes, ref.propagators[k].wakes)
        << inc.propagators[k].name << ", instance " << index;
  }
}

csp::SolveOutcome solve_csp2_generic(const gen::Instance& inst,
                                     const rt::Platform& platform,
                                     PropagationMode mode, std::uint64_t seed,
                                     std::int64_t max_nodes = 20'000) {
  const auto model = enc::build_csp2_generic(inst.tasks, platform);
  SearchOptions options;
  options.var_heuristic = VarHeuristic::kDomWdeg;
  options.val_heuristic = ValHeuristic::kRandom;
  options.random_var_ties = true;
  options.restart = RestartPolicy::kLuby;
  options.restart_scale = 16;
  options.propagation = mode;
  options.seed = seed;
  options.max_nodes = max_nodes;
  return model.solver->solve(options);
}

csp::SolveOutcome solve_csp2_generic(const gen::Instance& inst,
                                     PropagationMode mode,
                                     std::uint64_t seed) {
  return solve_csp2_generic(inst, rt::Platform::identical(inst.processors),
                            mode, seed);
}

TEST(EventEngine, IncrementalExploresSameTreeAsScratchOnCsp2) {
  gen::GeneratorOptions workload;
  workload.tasks = 10;
  workload.processors = 5;
  workload.rule = gen::ProcessorRule::kFixed;
  workload.t_max = 7;
  workload.order = gen::ParamOrder::kDFirst;

  for (std::uint64_t index = 0; index < 8; ++index) {
    const gen::Instance inst = gen::generate_indexed(workload, 777, index);
    const auto inc =
        solve_csp2_generic(inst, PropagationMode::kIncremental, index);
    const auto ref = solve_csp2_generic(inst, PropagationMode::kScratch,
                                        index);
    EXPECT_EQ(inc.status, ref.status) << "instance " << index;
    EXPECT_EQ(inc.stats.nodes, ref.stats.nodes) << "instance " << index;
    EXPECT_EQ(inc.stats.failures, ref.stats.failures) << "instance " << index;
    EXPECT_EQ(inc.stats.restarts, ref.stats.restarts) << "instance " << index;
    EXPECT_EQ(inc.assignment, ref.assignment) << "instance " << index;
  }
}

TEST(EventEngine, IncrementalExploresSameTreeAsScratchOnHeterogeneousCsp2) {
  // A heterogeneous rate matrix makes the per-job counters WeightedCountEq
  // over task values, not just over {0,1} as in CSP1, so the watched-value
  // filter of both counter classes meets its unfiltered (scratch)
  // reference on the values it actually filters.
  gen::GeneratorOptions workload;
  workload.tasks = 6;
  workload.processors = 3;
  workload.rule = gen::ProcessorRule::kFixed;
  workload.t_max = 6;
  workload.order = gen::ParamOrder::kDFirst;

  std::int64_t weighted_wakes = 0;
  for (std::uint64_t index = 0; index < 12; ++index) {
    const gen::Instance inst = gen::generate_indexed(workload, 4711, index);
    support::Rng rng(index + 1);
    std::vector<std::vector<rt::Rate>> rates(
        static_cast<std::size_t>(inst.tasks.size()));
    for (auto& row : rates) {
      for (int j = 0; j < inst.processors; ++j) {
        row.push_back(static_cast<rt::Rate>(rng.uniform(0, 2)));
      }
      row[static_cast<std::size_t>(rng.uniform(0, inst.processors - 1))] = 2;
    }
    const rt::Platform platform = rt::Platform::heterogeneous(rates);
    const auto inc = solve_csp2_generic(inst, platform,
                                        PropagationMode::kIncremental, index,
                                        /*max_nodes=*/4'000);
    const auto ref = solve_csp2_generic(inst, platform,
                                        PropagationMode::kScratch, index,
                                        /*max_nodes=*/4'000);
    EXPECT_EQ(inc.status, ref.status) << "instance " << index;
    EXPECT_EQ(inc.stats.nodes, ref.stats.nodes) << "instance " << index;
    EXPECT_EQ(inc.stats.failures, ref.stats.failures) << "instance " << index;
    EXPECT_EQ(inc.stats.restarts, ref.stats.restarts) << "instance " << index;
    EXPECT_EQ(inc.assignment, ref.assignment) << "instance " << index;
    expect_same_wakes(inc.stats, ref.stats, index);
    for (const PropagatorProfile& row : inc.stats.propagators) {
      if (row.name == "weighted-count-eq") weighted_wakes += row.wakes;
    }
  }
  EXPECT_GT(weighted_wakes, 0) << "the rate matrix must weight the counters";
}

TEST(EventEngine, IncrementalExploresSameTreeAsScratchOnCsp1) {
  gen::GeneratorOptions workload;
  workload.tasks = 4;
  workload.processors = 2;
  workload.rule = gen::ProcessorRule::kFixed;
  workload.t_max = 5;

  for (std::uint64_t index = 0; index < 4; ++index) {
    const gen::Instance inst = gen::generate_indexed(workload, 4242, index);
    auto run = [&](PropagationMode mode) {
      const auto model = enc::build_csp1(
          inst.tasks, rt::Platform::identical(inst.processors));
      SearchOptions options;
      options.var_heuristic = VarHeuristic::kDomWdeg;
      options.val_heuristic = ValHeuristic::kRandom;
      options.random_var_ties = true;
      options.propagation = mode;
      options.seed = index + 1;
      options.max_nodes = 20'000;
      return model.solver->solve(options);
    };
    const auto inc = run(PropagationMode::kIncremental);
    const auto ref = run(PropagationMode::kScratch);
    EXPECT_EQ(inc.status, ref.status) << "instance " << index;
    EXPECT_EQ(inc.stats.nodes, ref.stats.nodes) << "instance " << index;
    EXPECT_EQ(inc.stats.failures, ref.stats.failures) << "instance " << index;
    EXPECT_EQ(inc.assignment, ref.assignment) << "instance " << index;
    expect_same_wakes(inc.stats, ref.stats, index);
  }
}

// ------------------------------------------------- incremental fast paths

TEST(EventEngine, IncrementalRunsFarFewerSweepsThanEvents) {
  // On a counting-heavy model the incremental engine should resolve most
  // events in the advisor (O(1)) without queueing the propagator: the
  // propagation count stays well below the event count.
  gen::GeneratorOptions workload;
  workload.tasks = 10;
  workload.processors = 5;
  workload.rule = gen::ProcessorRule::kFixed;
  workload.t_max = 7;
  const gen::Instance inst = gen::generate_indexed(workload, 20090911, 3);
  const auto outcome =
      solve_csp2_generic(inst, PropagationMode::kIncremental, 1);
  ASSERT_GT(outcome.stats.events, 0);
  EXPECT_LT(outcome.stats.propagations, outcome.stats.events / 4)
      << "advisors are not filtering wakes";
}

// ------------------------------------------------------- selection heap

TEST(SelectionHeap, HeapExploresSameTreeAsScanOnCsp2) {
  // Deterministic tie-breaking: the lazy heap must reproduce the scan's
  // pick — minimum size/wdeg fraction, then minimum id — at every node,
  // across backtracking, wdeg bumps, and Luby restarts.
  gen::GeneratorOptions workload;
  workload.tasks = 10;
  workload.processors = 5;
  workload.rule = gen::ProcessorRule::kFixed;
  workload.t_max = 7;
  workload.order = gen::ParamOrder::kDFirst;

  for (const VarHeuristic heuristic :
       {VarHeuristic::kDomWdeg, VarHeuristic::kMinDomain}) {
    for (std::uint64_t index = 0; index < 6; ++index) {
      const gen::Instance inst = gen::generate_indexed(workload, 555, index);
      auto run = [&](SelectionMode mode) {
        const auto model = enc::build_csp2_generic(
            inst.tasks, rt::Platform::identical(inst.processors));
        SearchOptions options;
        options.var_heuristic = heuristic;
        options.val_heuristic = ValHeuristic::kMin;
        options.selection = mode;
        options.restart = RestartPolicy::kLuby;
        options.restart_scale = 16;
        options.max_nodes = 20'000;
        return model.solver->solve(options);
      };
      const auto heap = run(SelectionMode::kHeap);
      const auto scan = run(SelectionMode::kScan);
      EXPECT_EQ(heap.status, scan.status) << "instance " << index;
      EXPECT_EQ(heap.stats.nodes, scan.stats.nodes) << "instance " << index;
      EXPECT_EQ(heap.stats.failures, scan.stats.failures)
          << "instance " << index;
      EXPECT_EQ(heap.stats.restarts, scan.stats.restarts)
          << "instance " << index;
      EXPECT_EQ(heap.assignment, scan.assignment) << "instance " << index;
    }
  }
}

TEST(SelectionHeap, HeapExploresSameTreeAsScanWithRandomTies) {
  // Under random tie-breaking both modes collect the exact tie set, sort it
  // by id and draw from it once, so the heap must reproduce the scan's tree
  // in the fleet lane's configuration too: Choco-like randomized dom/wdeg
  // with Luby restarts, 1-UIP learning, backjumping and minimization, on
  // Table-I-shaped instances.
  gen::GeneratorOptions workload;
  workload.tasks = 10;
  workload.processors = 5;
  workload.rule = gen::ProcessorRule::kFixed;
  workload.t_max = 7;
  workload.order = gen::ParamOrder::kDFirst;

  for (std::uint64_t index = 0; index < 6; ++index) {
    const gen::Instance inst = gen::generate_indexed(workload, 999, index);
    auto run = [&](SelectionMode mode) {
      const auto model = enc::build_csp2_generic(
          inst.tasks, rt::Platform::identical(inst.processors));
      SearchOptions options = core::choco_like_defaults(index + 7);
      options.nogoods = true;
      options.selection = mode;
      options.max_nodes = 1'000;
      return model.solver->solve(options);
    };
    const auto heap = run(SelectionMode::kHeap);
    const auto scan = run(SelectionMode::kScan);
    EXPECT_EQ(heap.status, scan.status) << "instance " << index;
    EXPECT_EQ(heap.stats.nodes, scan.stats.nodes) << "instance " << index;
    EXPECT_EQ(heap.stats.failures, scan.stats.failures)
        << "instance " << index;
    EXPECT_EQ(heap.stats.restarts, scan.stats.restarts)
        << "instance " << index;
    EXPECT_EQ(heap.assignment, scan.assignment) << "instance " << index;
  }
}

// -------------------------------------------------------------- nogoods

TEST(Nogoods, SameVerdictsAsPlainRestartSearchOnCsp2) {
  // Nogood replay prunes refuted prefixes but never solutions: on
  // exhaustively-decided instances the verdict must match the plain run.
  gen::GeneratorOptions workload;
  workload.tasks = 4;
  workload.processors = 2;
  workload.rule = gen::ProcessorRule::kFixed;
  workload.t_max = 4;

  std::int64_t recorded = 0;
  for (std::uint64_t index = 0; index < 8; ++index) {
    const gen::Instance inst = gen::generate_indexed(workload, 20090911,
                                                     index);
    auto run = [&](bool nogoods) {
      const auto model = enc::build_csp2_generic(
          inst.tasks, rt::Platform::identical(inst.processors));
      SearchOptions options;
      options.var_heuristic = VarHeuristic::kDomWdeg;
      options.val_heuristic = ValHeuristic::kRandom;
      options.random_var_ties = true;
      options.restart = RestartPolicy::kLuby;
      options.restart_scale = 4;
      options.seed = index + 1;
      options.nogoods = nogoods;
      return model.solver->solve(options);
    };
    const auto with = run(true);
    const auto without = run(false);
    ASSERT_TRUE(decided(with.status)) << "instance " << index;
    EXPECT_EQ(with.status, without.status) << "instance " << index;
    recorded += with.stats.nogoods_recorded;
  }
  EXPECT_GT(recorded, 0) << "workload produced no conflicts to record";
}

TEST(Nogoods, SameVerdictsAsPlainRestartSearchOnCsp1) {
  gen::GeneratorOptions workload;
  workload.tasks = 4;
  workload.processors = 2;
  workload.rule = gen::ProcessorRule::kFixed;
  workload.t_max = 4;

  for (std::uint64_t index = 0; index < 4; ++index) {
    const gen::Instance inst = gen::generate_indexed(workload, 4242, index);
    auto run = [&](bool nogoods) {
      const auto model = enc::build_csp1(
          inst.tasks, rt::Platform::identical(inst.processors));
      SearchOptions options;
      options.var_heuristic = VarHeuristic::kDomWdeg;
      options.val_heuristic = ValHeuristic::kRandom;
      options.random_var_ties = true;
      options.restart = RestartPolicy::kLuby;
      options.restart_scale = 8;
      options.seed = index + 3;
      options.nogoods = nogoods;
      return model.solver->solve(options);
    };
    const auto with = run(true);
    const auto without = run(false);
    ASSERT_TRUE(decided(with.status)) << "instance " << index;
    EXPECT_EQ(with.status, without.status) << "instance " << index;
  }
}

TEST(Nogoods, ShrinkKeepsVerdictsAndNeverCostsNodesOnCsp2) {
  // Conflict-analysis shrinking drops decisions the conflict is not
  // reachable from, so the recorded clauses are at least as strong as the
  // raw decision sets: on exhaustively-decided instances the verdicts must
  // match and the family-total node count must not grow.  Deterministic
  // heuristics so the comparison is tree-vs-tree, not draw-vs-draw.
  gen::GeneratorOptions workload;
  workload.tasks = 4;
  workload.processors = 2;
  workload.rule = gen::ProcessorRule::kFixed;
  workload.t_max = 4;

  std::int64_t nodes_on = 0;
  std::int64_t nodes_off = 0;
  std::int64_t before = 0;
  std::int64_t after = 0;
  for (std::uint64_t index = 0; index < 8; ++index) {
    const gen::Instance inst = gen::generate_indexed(workload, 20090911,
                                                     index);
    auto run = [&](bool shrink) {
      const auto model = enc::build_csp2_generic(
          inst.tasks, rt::Platform::identical(inst.processors));
      SearchOptions options;
      options.var_heuristic = VarHeuristic::kDomWdeg;
      options.val_heuristic = ValHeuristic::kMin;
      options.restart = RestartPolicy::kLuby;
      options.restart_scale = 4;
      options.nogoods = true;
      options.nogood_shrink = shrink;
      return model.solver->solve(options);
    };
    const auto shrunk = run(true);
    const auto raw = run(false);
    ASSERT_TRUE(decided(shrunk.status)) << "instance " << index;
    EXPECT_EQ(shrunk.status, raw.status) << "instance " << index;
    nodes_on += shrunk.stats.nodes;
    nodes_off += raw.stats.nodes;
    before += shrunk.stats.nogood_lits_before;
    after += shrunk.stats.nogood_lits_after;
    EXPECT_LE(shrunk.stats.nogood_lits_after,
              shrunk.stats.nogood_lits_before)
        << "instance " << index;
  }
  EXPECT_LE(nodes_on, nodes_off);
  EXPECT_GT(before, 0) << "workload produced no conflicts to shrink";
  EXPECT_LT(after, before) << "conflict analysis never dropped a decision";
}

TEST(Nogoods, ShrinkKeepsVerdictsUnderRandomizedSearchOnCsp2) {
  // Under the Choco-like randomized strategy the trees diverge (replay
  // changes domain sizes, hence tie sets), but exhaustive verdicts may
  // not: shrinking must never prune a solution.
  gen::GeneratorOptions workload;
  workload.tasks = 4;
  workload.processors = 2;
  workload.rule = gen::ProcessorRule::kFixed;
  workload.t_max = 4;

  for (std::uint64_t index = 0; index < 6; ++index) {
    const gen::Instance inst = gen::generate_indexed(workload, 777, index);
    auto run = [&](bool shrink) {
      const auto model = enc::build_csp2_generic(
          inst.tasks, rt::Platform::identical(inst.processors));
      SearchOptions options;
      options.var_heuristic = VarHeuristic::kDomWdeg;
      options.val_heuristic = ValHeuristic::kRandom;
      options.random_var_ties = true;
      options.restart = RestartPolicy::kLuby;
      options.restart_scale = 4;
      options.seed = index + 1;
      options.nogoods = true;
      options.nogood_shrink = shrink;
      return model.solver->solve(options);
    };
    const auto shrunk = run(true);
    const auto raw = run(false);
    ASSERT_TRUE(decided(shrunk.status)) << "instance " << index;
    EXPECT_EQ(shrunk.status, raw.status) << "instance " << index;
  }
}

// ------------------------------------------------- symmetry-chain finesse

TEST(SymmetryChainFinesse, FixedMiddleForcesAscendingNeighbours) {
  // Chain over {v0..v3}, values 0..3, idle = 3.  Fixing v1 = 1 forces
  // v0 = 0 (only key below 1) and v3 = idle (no key above v2's minimum 2).
  Solver solver;
  std::vector<VarId> vars;
  for (int k = 0; k < 4; ++k) vars.push_back(solver.add_variable(0, 3));
  solver.add(make_symmetry_chain(vars, /*idle=*/3));
  ASSERT_TRUE(solver.post_fix(vars[1], 1));
  SearchOptions options;
  options.var_heuristic = VarHeuristic::kLex;
  const auto outcome = solver.solve(options);
  ASSERT_EQ(outcome.status, SolveStatus::kSat);
  EXPECT_EQ(outcome.assignment, (std::vector<Value>{0, 1, 2, 3}));
}

TEST(SymmetryChainFinesse, PairWorklistMatchesScratchOnChainHeavyModel) {
  // A deep chain plus counting rules under randomized restarts: the dirty
  // pairs survive backtracks and restarts as stale marks, and the worklist
  // fixpoint must equal the full-sweep fixpoint at every node.
  auto run = [&](PropagationMode mode) {
    Solver solver;
    std::vector<VarId> vars;
    for (int k = 0; k < 10; ++k) vars.push_back(solver.add_variable(0, 10));
    solver.add(make_symmetry_chain(vars, /*idle=*/10));
    solver.add(make_count_eq(vars, /*value=*/2, /*target=*/1));
    solver.add(make_count_eq(vars, /*value=*/5, /*target=*/2));
    solver.add(make_all_different_except(vars, /*except=*/10));
    SearchOptions options;
    options.var_heuristic = VarHeuristic::kDomWdeg;
    options.val_heuristic = ValHeuristic::kRandom;
    options.random_var_ties = true;
    options.restart = RestartPolicy::kLuby;
    options.restart_scale = 8;
    options.propagation = mode;
    options.seed = 31;
    options.max_nodes = 20'000;
    return solver.solve(options);
  };
  const auto inc = run(PropagationMode::kIncremental);
  const auto ref = run(PropagationMode::kScratch);
  EXPECT_EQ(inc.status, ref.status);
  EXPECT_EQ(inc.stats.nodes, ref.stats.nodes);
  EXPECT_EQ(inc.stats.failures, ref.stats.failures);
  EXPECT_EQ(inc.stats.restarts, ref.stats.restarts);
  EXPECT_EQ(inc.assignment, ref.assignment);
}

TEST(EventEngine, ScratchModeSolvesAndMatchesStatusOnUnsat) {
  // Pigeonhole: 3 variables, 2 values, pairwise distinct — UNSAT in every
  // mode, proving the reference mode also terminates on proofs.
  for (const PropagationMode mode :
       {PropagationMode::kIncremental, PropagationMode::kScratch}) {
    Solver solver;
    std::vector<VarId> pigeons;
    for (int k = 0; k < 3; ++k) pigeons.push_back(solver.add_variable(0, 1));
    solver.add(make_all_different_except(pigeons, /*except=*/-7));
    SearchOptions options;
    options.propagation = mode;
    EXPECT_EQ(solver.solve(options).status, SolveStatus::kUnsat);
  }
}

}  // namespace
}  // namespace mgrts::csp
