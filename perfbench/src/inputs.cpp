// Workload inputs and their flow-oracle ground truth.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <unordered_set>

#include "bench.hpp"
#include "core/canonical.hpp"
#include "core/instance_io.hpp"
#include "flow/oracle.hpp"
#include "serve/wire.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

using namespace mgrts;

Sizes Sizes::smoke() {
  Sizes sizes;
  sizes.setups = 2;
  sizes.lead_seconds = 0.2;
  sizes.miss_per_second = 2'000;
  sizes.hit_pool = 48;
  sizes.fleet_batch = 6;
  sizes.fleet_max_nodes = 300;
  sizes.trace_miss_per_second = 100;
  sizes.trace_fleet_batches_per_second = 1.0;
  sizes.trace_pings = 100;
  return sizes;
}

void Outcome::fail(std::string why) {
  correct = false;
  if (errors.size() < 20) errors.push_back(std::move(why));
}

gen::GeneratorOptions table1_options() {
  gen::GeneratorOptions options;
  options.tasks = 10;
  options.processors = 5;
  options.rule = gen::ProcessorRule::kFixed;
  options.t_max = 7;
  options.order = gen::ParamOrder::kDFirst;
  return options;
}

namespace {

std::string instance_text(const rt::TaskSet& tasks, std::int32_t processors) {
  return core::write_instance_string(tasks,
                                     rt::Platform::identical(processors));
}

/// Draws instances from `base` upwards, skipping any whose canonical key
/// was already drawn, until `count` originals are collected.
std::vector<ServeRequest> distinct_requests(std::uint64_t seed,
                                            std::uint64_t base,
                                            std::size_t count) {
  const gen::GeneratorOptions options = table1_options();
  std::vector<ServeRequest> out;
  out.reserve(count);
  std::unordered_set<std::string> keys;
  for (std::uint64_t index = base; out.size() < count; ++index) {
    const gen::Instance inst = gen::generate_indexed(options, seed, index);
    const rt::Platform platform = rt::Platform::identical(inst.processors);
    if (!keys.insert(core::canonical_key(inst.tasks, platform)).second) {
      continue;
    }
    out.push_back({index, 0, instance_text(inst.tasks, inst.processors)});
  }
  return out;
}

}  // namespace

std::vector<ServeRequest> miss_requests(std::uint64_t seed,
                                        std::size_t count) {
  return distinct_requests(seed, kMissBase, count);
}

std::vector<ServeRequest> hit_pool(std::uint64_t seed, std::size_t count) {
  return distinct_requests(seed, kHitBase, count);
}

std::vector<ServeRequest> hit_traffic(const std::vector<ServeRequest>& pool,
                                      std::uint64_t seed) {
  const gen::GeneratorOptions options = table1_options();
  support::Rng rng(seed ^ 0x5eed0fb17ULL);
  std::vector<ServeRequest> traffic;
  traffic.reserve(3 * pool.size());
  for (const ServeRequest& original : pool) {
    traffic.push_back(original);
    const gen::Instance inst =
        gen::generate_indexed(options, seed, original.index);
    std::vector<rt::TaskParams> params;
    for (const rt::Task& task : inst.tasks.tasks()) {
      params.push_back(task.params);
    }
    rng.shuffle(params);
    traffic.push_back({original.index, 1,
                       instance_text(rt::TaskSet::from_params(params),
                                     inst.processors)});
    const auto factor = static_cast<rt::Time>(rng.uniform(2, 3));
    for (rt::TaskParams& p : params) {
      p.offset *= factor;
      p.wcet *= factor;
      p.deadline *= factor;
      p.period *= factor;
    }
    traffic.push_back({original.index, 2,
                       instance_text(rt::TaskSet::from_params(params),
                                     inst.processors)});
  }
  rng.shuffle(traffic);
  return traffic;
}

std::vector<std::uint64_t> fleet_indices(std::size_t batch,
                                         std::size_t size) {
  std::vector<std::uint64_t> indices(size);
  for (std::size_t k = 0; k < size; ++k) {
    indices[k] = kFleetBase + batch * size + k;
  }
  return indices;
}

exp::BatchOptions fleet_batch(std::uint64_t seed, std::size_t batch,
                              std::size_t size) {
  exp::BatchOptions options;
  options.generator = table1_options();
  options.seed = seed;
  options.indices = fleet_indices(batch, size);
  return options;
}

std::string solve_payload(const std::string& text) {
  serve::Message message;
  message.kind = "solve";
  message.body = text;
  return serve::format_message(message);
}

namespace {

core::Verdict flow_truth(const rt::TaskSet& tasks,
                         const rt::Platform& platform) {
  return flow::decide_feasibility(tasks, platform).verdict ==
                 flow::OracleVerdict::kFeasible
             ? core::Verdict::kFeasible
             : core::Verdict::kInfeasible;
}

}  // namespace

std::vector<core::Verdict> truth_for_texts(
    const std::vector<ServeRequest>& requests, std::size_t count) {
  std::vector<core::Verdict> truth(count);
  support::parallel_for_index(count, 0, [&](std::size_t k) {
    const core::InstanceFile file =
        core::read_instance_string(requests[k].text);
    truth[k] = flow_truth(file.tasks, file.platform);
  });
  return truth;
}

std::vector<core::Verdict> truth_for_indices(
    std::uint64_t seed, const std::vector<std::uint64_t>& indices) {
  const gen::GeneratorOptions options = table1_options();
  std::vector<core::Verdict> truth(indices.size());
  support::parallel_for_index(indices.size(), 0, [&](std::size_t k) {
    const gen::Instance inst =
        gen::generate_indexed(options, seed, indices[k]);
    truth[k] =
        flow_truth(inst.tasks, rt::Platform::identical(inst.processors));
  });
  return truth;
}

std::int64_t steal_ticks() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream stat("/proc/stat");
  std::string label;
  std::int64_t fields[8] = {};
  stat >> label;
  for (std::int64_t& field : fields) stat >> field;
  return stat && label == "cpu" ? fields[7] : 0;
}

std::vector<std::size_t> calm_periods(const std::vector<std::int64_t>& steal) {
  std::vector<double> values(steal.begin(), steal.end());
  const double cut = quantile(values, 0.5);
  std::vector<std::size_t> calm;
  for (std::size_t k = 0; k < steal.size(); ++k) {
    if (static_cast<double>(steal[k]) <= cut) calm.push_back(k);
  }
  return calm;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t at = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(at),
                   values.end());
  return values[at];
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double seconds_since(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace perfbench
