#include "encodings/csp1.hpp"
#include "encodings/csp2_generic.hpp"

#include <gtest/gtest.h>

#include "flow/oracle.hpp"
#include "gen/generator.hpp"
#include "rt/validate.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "testing.hpp"

namespace mgrts::enc {
namespace {

using mgrts::testing::example1;
using rt::Platform;
using rt::TaskSet;

TEST(Csp1, Example1ModelShape) {
  const TaskSet ts = example1();
  const Csp1Model model = build_csp1(ts, Platform::identical(2));
  EXPECT_EQ(model.hyperperiod, 12);
  EXPECT_EQ(model.tasks, 3);
  EXPECT_EQ(model.processors, 2);
  EXPECT_EQ(model.solver->variable_count(), 3 * 2 * 12);
}

TEST(Csp1, OutOfWindowVariablesFixedAtRoot) {
  const TaskSet ts = example1();
  const Csp1Model model = build_csp1(ts, Platform::identical(2));
  // tau3 has no window at t = 2 (windows {0,1},{3,4},...).
  for (rt::ProcId j = 0; j < 2; ++j) {
    const auto& d = model.solver->domain(model.var(2, j, 2));
    ASSERT_TRUE(d.is_fixed());
    EXPECT_EQ(d.value(), 0);
  }
  // tau1 covers every slot: variables stay open.
  EXPECT_FALSE(model.solver->domain(model.var(0, 0, 0)).is_fixed());
}

TEST(Csp1, SolvesExample1AndDecodesValidSchedule) {
  const TaskSet ts = example1();
  const Platform p = Platform::identical(2);
  Csp1Model model = build_csp1(ts, p);
  const auto outcome = model.solver->solve({});
  ASSERT_EQ(outcome.status, csp::SolveStatus::kSat);
  const rt::Schedule schedule = decode_csp1(model, outcome.assignment);
  EXPECT_TRUE(rt::is_valid_schedule(ts, p, schedule));
}

TEST(Csp1, InfeasibleOnSingleProcessor) {
  Csp1Model model = build_csp1(example1(), Platform::identical(1));
  EXPECT_EQ(model.solver->solve({}).status, csp::SolveStatus::kUnsat);
}

TEST(Csp1, VariableBudgetThrows) {
  csp::SolverLimits limits;
  limits.max_variables = 10;  // far below 72
  EXPECT_THROW(
      static_cast<void>(build_csp1(example1(), Platform::identical(2), limits)),
      ResourceError);
}

TEST(Csp1, RejectsArbitraryDeadlines) {
  const TaskSet ts =
      TaskSet::from_params({{0, 1, 5, 4}}, rt::DeadlineModel::kArbitrary);
  EXPECT_THROW(static_cast<void>(build_csp1(ts, Platform::identical(1))),
               ValidationError);
}

TEST(Csp1, HeterogeneousZeroRateFixesVariables) {
  const TaskSet ts = TaskSet::from_params({{0, 1, 1, 1}});
  const Platform p = Platform::heterogeneous({{1, 0}});
  Csp1Model model = build_csp1(ts, p);
  // tau1 can never run on P2.
  for (rt::Time t = 0; t < model.hyperperiod; ++t) {
    const auto& d = model.solver->domain(model.var(0, 1, t));
    ASSERT_TRUE(d.is_fixed());
    EXPECT_EQ(d.value(), 0);
  }
  const auto outcome = model.solver->solve({});
  ASSERT_EQ(outcome.status, csp::SolveStatus::kSat);
  EXPECT_TRUE(
      rt::is_valid_schedule(ts, p, decode_csp1(model, outcome.assignment)));
}

TEST(Csp1, HeterogeneousWeightedAmountEq11) {
  // C = 4 with a rate-2 processor: exactly two busy slots.
  const TaskSet ts = TaskSet::from_params({{0, 4, 3, 3}});
  const Platform p = Platform::heterogeneous({{2}});
  Csp1Model model = build_csp1(ts, p);
  const auto outcome = model.solver->solve({});
  ASSERT_EQ(outcome.status, csp::SolveStatus::kSat);
  const rt::Schedule schedule = decode_csp1(model, outcome.assignment);
  EXPECT_TRUE(rt::is_valid_schedule(ts, p, schedule));
  EXPECT_EQ(schedule.units_of(0), 2);
}

TEST(Csp1, HeterogeneousParityInfeasible) {
  // C = 3 on a rate-2-only platform: equality (11) cannot be met.
  const TaskSet ts = TaskSet::from_params({{0, 3, 3, 3}});
  const Platform p = Platform::heterogeneous({{2}});
  Csp1Model model = build_csp1(ts, p);
  EXPECT_EQ(model.solver->solve({}).status, csp::SolveStatus::kUnsat);
}

// ------------------------------------------------------------ CSP2 generic

TEST(Csp2Generic, Example1ModelShape) {
  const TaskSet ts = example1();
  const Csp2GenericModel model =
      build_csp2_generic(ts, Platform::identical(2));
  EXPECT_EQ(model.solver->variable_count(), 2 * 12);
  EXPECT_EQ(model.idle_value(), 3);
}

TEST(Csp2Generic, WindowRemovalAtRoot) {
  const TaskSet ts = example1();
  const Csp2GenericModel model =
      build_csp2_generic(ts, Platform::identical(2));
  // At t=2 task tau3 (value 2) is out of window on every processor.
  for (rt::ProcId j = 0; j < 2; ++j) {
    EXPECT_FALSE(model.solver->domain(model.var(j, 2)).contains(2));
  }
  // The symmetry chain's root fixpoint is posted at build: position 0 keeps
  // the slot's smallest task, position 1 can no longer hold it.
  EXPECT_TRUE(model.solver->domain(model.var(0, 2)).contains(0));
  EXPECT_FALSE(model.solver->domain(model.var(1, 2)).contains(0));
  EXPECT_TRUE(model.solver->domain(model.var(1, 2)).contains(1));
}

TEST(Csp2Generic, SolvesExample1AndValidates) {
  const TaskSet ts = example1();
  const Platform p = Platform::identical(2);
  Csp2GenericModel model = build_csp2_generic(ts, p);
  const auto outcome = model.solver->solve({});
  ASSERT_EQ(outcome.status, csp::SolveStatus::kSat);
  EXPECT_TRUE(rt::is_valid_schedule(
      ts, p, decode_csp2_generic(model, outcome.assignment)));
}

TEST(Csp2Generic, SymmetryChainsPreserveSatisfiability) {
  for (std::uint64_t k = 0; k < 40; ++k) {
    gen::GeneratorOptions options;
    options.tasks = 4;
    options.processors = 2;
    options.t_max = 4;
    const auto inst = gen::generate_indexed(options, 7, k);
    const Platform p = Platform::identical(inst.processors);

    Csp2GenericOptions with_chains{true};
    Csp2GenericOptions without_chains{false};
    auto a = build_csp2_generic(inst.tasks, p, with_chains);
    auto b = build_csp2_generic(inst.tasks, p, without_chains);
    const auto ra = a.solver->solve({});
    const auto rb = b.solver->solve({});
    ASSERT_TRUE(csp::decided(ra.status));
    ASSERT_TRUE(csp::decided(rb.status));
    EXPECT_EQ(ra.status, rb.status) << "instance " << k;
  }
}

TEST(Csp2Generic, SymmetryChainsPruneSearch) {
  // On a feasible multi-processor instance the chains must not increase the
  // node count dramatically; typically they shrink it.  (Smoke-check of the
  // "reduce the search space" claim; exact ratios are bench material.)
  const TaskSet ts = example1();
  const Platform p = Platform::identical(2);
  auto with_chains = build_csp2_generic(ts, p, Csp2GenericOptions{true});
  auto without_chains = build_csp2_generic(ts, p, Csp2GenericOptions{false});
  const auto ra = with_chains.solver->solve({});
  const auto rb = without_chains.solver->solve({});
  ASSERT_EQ(ra.status, csp::SolveStatus::kSat);
  ASSERT_EQ(rb.status, csp::SolveStatus::kSat);
  EXPECT_LE(ra.stats.nodes, rb.stats.nodes * 2);
}

TEST(Csp2Generic, TooManyTasksRejected) {
  std::vector<rt::TaskParams> params;
  for (int k = 0; k < 64; ++k) params.push_back({0, 1, 1, 1});
  const TaskSet ts = TaskSet::from_params(params);
  EXPECT_THROW(
      static_cast<void>(build_csp2_generic(ts, Platform::identical(2))),
      ResourceError);
}

TEST(Csp2Generic, HeterogeneousDomainRule) {
  const TaskSet ts = TaskSet::from_params({{0, 1, 1, 1}, {0, 1, 1, 1}});
  const Platform p = Platform::heterogeneous({{1, 0}, {0, 1}});
  Csp2GenericModel model = build_csp2_generic(ts, p);
  // P1 cannot run tau2; P2 cannot run tau1.
  EXPECT_FALSE(model.solver->domain(model.var(0, 0)).contains(1));
  EXPECT_FALSE(model.solver->domain(model.var(1, 0)).contains(0));
  const auto outcome = model.solver->solve({});
  ASSERT_EQ(outcome.status, csp::SolveStatus::kSat);
  EXPECT_TRUE(rt::is_valid_schedule(
      ts, p, decode_csp2_generic(model, outcome.assignment)));
}

// ---------------------------------------------------- root fixpoint digest

/// FNV-1a over the eight bytes of `word`.
void mix(std::uint64_t& h, std::uint64_t word) {
  for (int k = 0; k < 8; ++k) {
    h ^= (word >> (8 * k)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
}

/// Folds the root status and, unless the root failed, every domain root
/// propagation leaves into `h`.  A failed root stops mid-propagation, so its
/// domains depend on the propagation order; only its status counts.
void mix_root(std::uint64_t& h, const TaskSet& ts, const Platform& p,
              csp::PropagationMode mode) {
  const Csp2GenericModel model = build_csp2_generic(ts, p);
  csp::SearchOptions options;
  options.propagation = mode;
  options.max_nodes = 0;
  const csp::SolveOutcome outcome = model.solver->solve(options);
  mix(h, static_cast<std::uint64_t>(outcome.status));
  if (outcome.status == csp::SolveStatus::kUnsat) return;
  for (csp::VarId v = 0; v < model.solver->variable_count(); ++v) {
    const csp::Domain64& d = model.solver->domain(v);
    mix(h, d.raw_mask());
    mix(h, static_cast<std::uint64_t>(d.base()));
  }
}

TEST(Csp2Generic, RootFixpointDigestIsPinned) {
  // The root fixpoint is a function of the model alone: however the model
  // is built and whatever order root propagation runs in, every domain it
  // leaves must stay bit for bit.  Table-I shapes (synchronous and with
  // offsets), then 6-task/4-processor shapes on identical, uniform and
  // heterogeneous platforms whose processors come in identical pairs (so
  // every platform carries symmetry chains), in both propagation modes.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto mode : {csp::PropagationMode::kIncremental,
                          csp::PropagationMode::kScratch}) {
    for (const bool offsets : {false, true}) {
      gen::GeneratorOptions table1;  // n = 10, m = 5, Tmax = 7, D first
      table1.with_offsets = offsets;
      for (std::uint64_t k = 0; k < 60; ++k) {
        const auto inst = gen::generate_indexed(table1, 5, k);
        mix_root(h, inst.tasks, Platform::identical(inst.processors), mode);
      }
    }
    gen::GeneratorOptions small;
    small.tasks = 6;
    small.processors = 4;
    small.t_max = 6;
    small.with_offsets = true;
    for (std::uint64_t k = 0; k < 50; ++k) {
      const auto inst = gen::generate_indexed(small, 6, k);
      support::Rng rng(k);
      mix_root(h, inst.tasks, Platform::identical(4), mode);
      const auto s0 = static_cast<rt::Rate>(rng.uniform(1, 3));
      const auto s1 = static_cast<rt::Rate>(rng.uniform(1, 3));
      mix_root(h, inst.tasks, Platform::uniform({s0, s0, s1, s1}), mode);
      std::vector<std::vector<rt::Rate>> rates;
      for (rt::TaskId i = 0; i < inst.tasks.size(); ++i) {
        const auto a = static_cast<rt::Rate>(rng.uniform(0, 2));
        const auto b = static_cast<rt::Rate>(rng.uniform(0, 2));
        rates.push_back({a, a, b, b});
      }
      mix_root(h, inst.tasks, Platform::heterogeneous(std::move(rates)),
               mode);
    }
  }
  EXPECT_EQ(h, 0x19efdc9b28d03231ULL);
}

// ------------------------------------------------ cross-encoding agreement

struct AgreementParam {
  std::uint64_t seed;
  bool offsets;
};

class EncodingAgreement : public ::testing::TestWithParam<AgreementParam> {};

TEST_P(EncodingAgreement, Csp1Csp2OracleSameVerdict) {
  // Theorem 1 + Theorem 2, checked empirically: CSP1, CSP2-generic and the
  // flow oracle agree on feasibility; all produced witnesses validate.
  const auto [seed, offsets] = GetParam();
  for (std::uint64_t k = 0; k < 12; ++k) {
    gen::GeneratorOptions options;
    options.tasks = 4;
    options.processors = 2;
    options.t_max = 4;
    options.with_offsets = offsets;
    const auto inst = gen::generate_indexed(options, seed, k);
    const Platform p = Platform::identical(inst.processors);

    const bool oracle = flow::is_feasible(inst.tasks, p);

    Csp1Model m1 = build_csp1(inst.tasks, p);
    const auto r1 = m1.solver->solve({});
    ASSERT_TRUE(csp::decided(r1.status));
    EXPECT_EQ(r1.status == csp::SolveStatus::kSat, oracle)
        << "CSP1 vs oracle, instance " << k;
    if (r1.status == csp::SolveStatus::kSat) {
      EXPECT_TRUE(rt::is_valid_schedule(inst.tasks, p,
                                        decode_csp1(m1, r1.assignment)));
    }

    Csp2GenericModel m2 = build_csp2_generic(inst.tasks, p);
    const auto r2 = m2.solver->solve({});
    ASSERT_TRUE(csp::decided(r2.status));
    EXPECT_EQ(r2.status == csp::SolveStatus::kSat, oracle)
        << "CSP2 vs oracle, instance " << k;
    if (r2.status == csp::SolveStatus::kSat) {
      EXPECT_TRUE(rt::is_valid_schedule(
          inst.tasks, p, decode_csp2_generic(m2, r2.assignment)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EncodingAgreement,
    ::testing::Values(AgreementParam{11, false}, AgreementParam{12, false},
                      AgreementParam{13, true}, AgreementParam{14, true},
                      AgreementParam{15, false}, AgreementParam{16, true}),
    [](const ::testing::TestParamInfo<AgreementParam>& info) {
      return "seed" + std::to_string(info.param.seed) +
             (info.param.offsets ? "_offsets" : "_sync");
    });

}  // namespace
}  // namespace mgrts::enc
