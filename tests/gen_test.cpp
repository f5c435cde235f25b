#include "gen/generator.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace mgrts::gen {
namespace {

TEST(Generator, RespectsStructuralConstraints) {
  // §VII-A: 0 < C <= D <= T <= Tmax for every sampling order.
  for (const ParamOrder order :
       {ParamOrder::kDFirst, ParamOrder::kCdt, ParamOrder::kTdc}) {
    support::Rng rng(1);
    GeneratorOptions options;
    options.tasks = 8;
    options.t_max = 9;
    options.order = order;
    for (int k = 0; k < 200; ++k) {
      const Instance inst = generate(options, rng);
      ASSERT_EQ(inst.tasks.size(), 8);
      for (rt::TaskId i = 0; i < inst.tasks.size(); ++i) {
        const auto& p = inst.tasks[i].params;
        ASSERT_GE(p.wcet, 1);
        ASSERT_LE(p.wcet, p.deadline);
        ASSERT_LE(p.deadline, p.period);
        ASSERT_LE(p.period, options.t_max);
        ASSERT_EQ(p.offset, 0);
      }
    }
  }
}

TEST(Generator, OffsetsWithinPeriod) {
  support::Rng rng(2);
  GeneratorOptions options;
  options.tasks = 6;
  options.t_max = 8;
  options.with_offsets = true;
  bool saw_nonzero = false;
  for (int k = 0; k < 100; ++k) {
    const Instance inst = generate(options, rng);
    for (rt::TaskId i = 0; i < inst.tasks.size(); ++i) {
      const auto& p = inst.tasks[i].params;
      ASSERT_GE(p.offset, 0);
      ASSERT_LT(p.offset, p.period);
      saw_nonzero = saw_nonzero || p.offset > 0;
    }
  }
  EXPECT_TRUE(saw_nonzero);
}

TEST(Generator, FixedProcessorRule) {
  support::Rng rng(3);
  GeneratorOptions options;
  options.tasks = 5;
  options.processors = 3;
  options.rule = ProcessorRule::kFixed;
  EXPECT_EQ(generate(options, rng).processors, 3);
}

TEST(Generator, UniformProcessorRuleInRange) {
  support::Rng rng(4);
  GeneratorOptions options;
  options.tasks = 6;
  options.rule = ProcessorRule::kUniform;
  for (int k = 0; k < 200; ++k) {
    const Instance inst = generate(options, rng);
    ASSERT_GE(inst.processors, 1);
    ASSERT_LE(inst.processors, 5);  // 1..n-1
  }
}

TEST(Generator, MinCapacityRuleMatchesCeilU) {
  support::Rng rng(5);
  GeneratorOptions options;
  options.tasks = 10;
  options.rule = ProcessorRule::kMinCapacity;
  options.t_max = 15;
  for (int k = 0; k < 100; ++k) {
    const Instance inst = generate(options, rng);
    EXPECT_EQ(inst.processors, inst.tasks.min_processors_bound());
    // By construction the instance passes the r <= 1 necessary condition.
    EXPECT_FALSE(inst.tasks.exceeds_capacity(inst.processors));
  }
}

TEST(Generator, IndexedStreamsReproducible) {
  GeneratorOptions options;
  options.tasks = 7;
  options.t_max = 7;
  const Instance a = generate_indexed(options, 42, 17);
  const Instance b = generate_indexed(options, 42, 17);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (rt::TaskId i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].params, b.tasks[i].params);
  }
  EXPECT_EQ(a.processors, b.processors);
}

TEST(Generator, IndexedStreamsIndependentOfIndexOrder) {
  GeneratorOptions options;
  options.tasks = 5;
  options.t_max = 6;
  // Drawing index 3 must not depend on whether 0..2 were drawn before.
  const Instance direct = generate_indexed(options, 9, 3);
  static_cast<void>(generate_indexed(options, 9, 0));
  static_cast<void>(generate_indexed(options, 9, 1));
  const Instance after = generate_indexed(options, 9, 3);
  for (rt::TaskId i = 0; i < direct.tasks.size(); ++i) {
    EXPECT_EQ(direct.tasks[i].params, after.tasks[i].params);
  }
}

TEST(Generator, DifferentIndicesDiffer) {
  GeneratorOptions options;
  options.tasks = 8;
  options.t_max = 12;
  const Instance a = generate_indexed(options, 1, 0);
  const Instance b = generate_indexed(options, 1, 1);
  bool differ = false;
  for (rt::TaskId i = 0; i < a.tasks.size(); ++i) {
    differ = differ || !(a.tasks[i].params == b.tasks[i].params);
  }
  EXPECT_TRUE(differ);
}

TEST(Generator, ParamOrderShapesDistributions) {
  // §VII-A: C->D->T favours large periods, T->D->C favours short WCETs.
  // Check the means over a large sample.
  auto mean_c_and_t = [](ParamOrder order) {
    support::Rng rng(123);
    GeneratorOptions options;
    options.tasks = 4;
    options.t_max = 20;
    options.order = order;
    double sum_c = 0.0;
    double sum_t = 0.0;
    int count = 0;
    for (int k = 0; k < 600; ++k) {
      const Instance inst = generate(options, rng);
      for (rt::TaskId i = 0; i < inst.tasks.size(); ++i) {
        sum_c += static_cast<double>(inst.tasks[i].wcet());
        sum_t += static_cast<double>(inst.tasks[i].period());
        ++count;
      }
    }
    return std::pair{sum_c / count, sum_t / count};
  };
  const auto [c_cdt, t_cdt] = mean_c_and_t(ParamOrder::kCdt);
  const auto [c_tdc, t_tdc] = mean_c_and_t(ParamOrder::kTdc);
  const auto [c_d, t_d] = mean_c_and_t(ParamOrder::kDFirst);
  EXPECT_GT(t_cdt, t_tdc);  // C->D->T has larger periods
  EXPECT_LT(c_tdc, c_cdt);  // T->D->C has shorter WCETs
  // The paper calls D-first "intermediate".
  EXPECT_GT(t_d, t_tdc);
  EXPECT_LT(t_d, t_cdt);
}

TEST(Generator, ValidatesOptions) {
  support::Rng rng(1);
  GeneratorOptions options;
  options.tasks = 2;  // n > 2 required
  EXPECT_THROW(static_cast<void>(generate(options, rng)), ValidationError);
  options.tasks = 5;
  options.t_max = 1;
  EXPECT_THROW(static_cast<void>(generate(options, rng)), ValidationError);
  options.t_max = 5;
  options.processors = 0;
  options.rule = ProcessorRule::kFixed;
  EXPECT_THROW(static_cast<void>(generate(options, rng)), ValidationError);
}

TEST(Generator, ToStringNames) {
  EXPECT_STREQ(to_string(ParamOrder::kDFirst), "D-first");
  EXPECT_STREQ(to_string(ParamOrder::kCdt), "C->D->T");
  EXPECT_STREQ(to_string(ParamOrder::kTdc), "T->D->C");
}

}  // namespace
}  // namespace mgrts::gen
