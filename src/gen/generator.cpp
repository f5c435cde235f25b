#include "gen/generator.hpp"

#include <vector>

#include "support/assert.hpp"
#include "support/error.hpp"

namespace mgrts::gen {

using rt::TaskParams;
using rt::Time;

const char* to_string(ParamOrder order) {
  switch (order) {
    case ParamOrder::kDFirst: return "D-first";
    case ParamOrder::kCdt: return "C->D->T";
    case ParamOrder::kTdc: return "T->D->C";
  }
  return "?";
}

Instance generate(const GeneratorOptions& options, support::Rng& rng) {
  if (options.tasks < 3) {
    throw ValidationError("generator requires n > 2 (§VII-A)");
  }
  if (options.t_max < 2) {
    throw ValidationError("generator requires Tmax > 1 (§VII-A)");
  }
  if (options.rule == ProcessorRule::kFixed && options.processors < 1) {
    throw ValidationError("fixed processor rule needs m >= 1");
  }

  std::vector<TaskParams> params;
  params.reserve(static_cast<std::size_t>(options.tasks));
  for (std::int32_t k = 0; k < options.tasks; ++k) {
    TaskParams p;
    switch (options.order) {
      case ParamOrder::kDFirst:
        p.deadline = rng.uniform(1, options.t_max);
        p.wcet = rng.uniform(1, p.deadline);
        p.period = rng.uniform(p.deadline, options.t_max);
        break;
      case ParamOrder::kCdt:
        p.wcet = rng.uniform(1, options.t_max);
        p.deadline = rng.uniform(p.wcet, options.t_max);
        p.period = rng.uniform(p.deadline, options.t_max);
        break;
      case ParamOrder::kTdc:
        p.period = rng.uniform(1, options.t_max);
        p.deadline = rng.uniform(1, p.period);
        p.wcet = rng.uniform(1, p.deadline);
        break;
    }
    p.offset = options.with_offsets ? rng.uniform(0, p.period - 1) : 0;
    params.push_back(p);
  }

  Instance instance{rt::TaskSet::from_params(params), 1};

  switch (options.rule) {
    case ProcessorRule::kFixed:
      instance.processors = options.processors;
      break;
    case ProcessorRule::kUniform:
      instance.processors =
          static_cast<std::int32_t>(rng.uniform(1, options.tasks - 1));
      break;
    case ProcessorRule::kMinCapacity:
      instance.processors = instance.tasks.min_processors_bound();
      break;
  }
  return instance;
}

Instance generate_indexed(const GeneratorOptions& options, std::uint64_t seed,
                          std::uint64_t index) {
  // Mix the index into the seed so instances form independent streams that
  // do not depend on generation order (lets the harness parallelize).
  support::SplitMix64 mix(seed ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
  support::Rng rng(mix.next());
  return generate(options, rng);
}

}  // namespace mgrts::gen
