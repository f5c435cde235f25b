#include "exp/harness.hpp"

#include <mutex>
#include <optional>
#include <string>

#include "support/assert.hpp"
#include "support/thread_pool.hpp"

namespace mgrts::exp {

SolverSpec csp2_spec(csp2::ValueOrder order, std::int64_t time_limit_ms,
                     bool paper_faithful) {
  SolverSpec spec;
  spec.label = csp2::to_string(order);
  spec.config.method = core::Method::kCsp2Dedicated;
  spec.config.time_limit_ms = time_limit_ms;
  spec.config.csp2.value_order = order;
  // The paper's solvers run with no presolve in front (§VII filters only by
  // r > 1, which the harness applies separately); the pipeline stages would
  // otherwise decide most identical-platform instances before the search
  // under measurement ever ran.
  spec.config.pipeline = core::PipelineOptions::none();
  if (paper_faithful) {
    // §V-C describes rules 1 and 2 plus the closure checks of (9), nothing
    // more; the slack/demand prunes are this repo's extensions and are
    // evaluated separately (bench_ablation_csp2_rules).
    spec.config.csp2.slack_prune = false;
    spec.config.csp2.tight_demand_prune = false;
  }
  return spec;
}

SolverSpec portfolio_spec(std::int64_t time_limit_ms, bool presolve,
                          bool diverse_lanes) {
  SolverSpec spec;
  spec.label = presolve ? "CSP2-pipeline" : "CSP2-portfolio";
  spec.config.method = core::Method::kPortfolio;
  spec.config.time_limit_ms = time_limit_ms;
  spec.config.pipeline =
      presolve ? core::PipelineOptions::full() : core::PipelineOptions::none();
  spec.config.portfolio.diverse_lanes = diverse_lanes;
  return spec;
}

SolverSpec pipeline_spec(std::int64_t time_limit_ms) {
  SolverSpec spec;
  spec.label = "pipeline-CSP2";
  spec.config.method = core::Method::kCsp2Dedicated;
  spec.config.time_limit_ms = time_limit_ms;
  spec.config.csp2.value_order = csp2::ValueOrder::kDMinusC;
  spec.config.pipeline = core::PipelineOptions::full();
  return spec;
}

SolverSpec presolve_probe_spec(std::int64_t time_limit_ms, bool flow_oracle,
                               std::int64_t presolve_max_nodes) {
  SolverSpec spec;
  spec.label = "presolve-probe";
  // A one-node dedicated backend: cheap enough that a decided run means
  // "the presolve stages (or a trivial search) absorbed it" — anything
  // still undecided is the residue the real searches race over.
  spec.config.method = core::Method::kCsp2Dedicated;
  spec.config.csp2.value_order = csp2::ValueOrder::kDMinusC;
  spec.config.max_nodes = 1;
  spec.config.time_limit_ms = time_limit_ms;
  spec.config.pipeline = core::PipelineOptions::full();
  spec.config.pipeline.flow_oracle = flow_oracle;
  spec.config.pipeline.presolve_max_nodes = presolve_max_nodes;
  return spec;
}

std::vector<std::string> known_spec_names() {
  return {"csp1",           "csp2-input",
          "csp2-rm",        "csp2-dm",
          "csp2-tmc",       "csp2-dmc",
          "csp2-dmc-pruned", "csp2g-learn",
          "pipeline",       "portfolio",
          "portfolio-raw",  "presolve-probe",
          "presolve-probe-noflow"};
}

std::optional<SolverSpec> spec_from_name(const std::string& name,
                                         std::int64_t time_limit_ms,
                                         std::uint64_t seed) {
  if (name == "csp1") {
    // paper_lineup's first entry, without materializing the other five.
    SolverSpec spec;
    spec.label = "CSP1";
    spec.config.method = core::Method::kCsp1Generic;
    spec.config.time_limit_ms = time_limit_ms;
    spec.config.generic = core::choco_like_defaults(seed);
    spec.config.pipeline = core::PipelineOptions::none();
    return spec;
  }
  if (name == "csp2-input") {
    return csp2_spec(csp2::ValueOrder::kInput, time_limit_ms);
  }
  if (name == "csp2-rm") {
    return csp2_spec(csp2::ValueOrder::kRateMonotonic, time_limit_ms);
  }
  if (name == "csp2-dm") {
    return csp2_spec(csp2::ValueOrder::kDeadlineMonotonic, time_limit_ms);
  }
  if (name == "csp2-tmc") {
    return csp2_spec(csp2::ValueOrder::kTMinusC, time_limit_ms);
  }
  if (name == "csp2-dmc") {
    return csp2_spec(csp2::ValueOrder::kDMinusC, time_limit_ms);
  }
  if (name == "csp2-dmc-pruned") {
    SolverSpec spec = csp2_spec(csp2::ValueOrder::kDMinusC, time_limit_ms,
                                /*paper_faithful=*/false);
    spec.label = "(D-C)-pruned";
    return spec;
  }
  if (name == "csp2g-learn") {
    // The production generic-engine configuration the residue benches race:
    // CSP2 encoding, Choco-like strategy, 1-UIP learning with backjumping
    // and minimization at their defaults — the lane whose NogoodStats a
    // shard row must carry intact.
    SolverSpec spec;
    spec.label = "CSP2-generic-learn";
    spec.config.method = core::Method::kCsp2Generic;
    spec.config.time_limit_ms = time_limit_ms;
    spec.config.pipeline = core::PipelineOptions::none();
    spec.config.generic = core::choco_like_defaults(seed);
    spec.config.generic.nogoods = true;
    return spec;
  }
  if (name == "pipeline") return pipeline_spec(time_limit_ms);
  if (name == "portfolio") return portfolio_spec(time_limit_ms);
  if (name == "portfolio-raw") {
    return portfolio_spec(time_limit_ms, false, false);
  }
  if (name == "presolve-probe") return presolve_probe_spec(time_limit_ms);
  if (name == "presolve-probe-noflow") {
    return presolve_probe_spec(time_limit_ms, /*flow_oracle=*/false,
                               /*presolve_max_nodes=*/500);
  }
  return std::nullopt;
}

RunRecord record_from_report(core::SolveReport report) {
  RunRecord run;
  run.verdict = report.verdict;
  run.seconds = report.seconds;
  run.witness_ok = report.witness_valid;
  run.complete = report.complete;
  run.nodes = report.nodes;
  run.decided_by = std::move(report.decided_by);
  run.failure_cause = report.cause;
  run.nogoods = report.nogoods;
  run.propagators = std::move(report.propagators);
  return run;
}

void reseed_for_index(core::SolveConfig& config, std::uint64_t index) {
  config.generic.seed ^= 0x9e3779b97f4a7c15ULL * (index + 1);
  config.localsearch.seed ^= 0x9e3779b97f4a7c15ULL * (index + 1);
}

ResidueSpec residue_spec(const BatchOptions& options,
                         const SolverSpec& probe) {
  const BatchResult probed = run_batch(options, {probe});
  ResidueSpec residue;
  residue.batch = options;
  residue.batch.indices.clear();
  residue.probed = static_cast<std::int64_t>(probed.instances.size());
  for (const InstanceRecord& inst : probed.instances) {
    if (inst.runs.front().overrun()) {
      residue.batch.indices.push_back(inst.index);
    } else {
      ++residue.absorbed;
    }
  }
  return residue;
}

std::vector<SolverSpec> paper_lineup(std::int64_t time_limit_ms,
                                     std::uint64_t seed,
                                     csp::SolverLimits limits) {
  std::vector<SolverSpec> specs;

  SolverSpec csp1;
  csp1.label = "CSP1";
  csp1.config.method = core::Method::kCsp1Generic;
  csp1.config.time_limit_ms = time_limit_ms;
  csp1.config.generic = core::choco_like_defaults(seed);
  csp1.config.limits = limits;
  csp1.config.pipeline = core::PipelineOptions::none();  // paper-faithful
  specs.push_back(std::move(csp1));

  specs.push_back(csp2_spec(csp2::ValueOrder::kInput, time_limit_ms));
  specs.push_back(csp2_spec(csp2::ValueOrder::kRateMonotonic, time_limit_ms));
  specs.push_back(
      csp2_spec(csp2::ValueOrder::kDeadlineMonotonic, time_limit_ms));
  specs.push_back(csp2_spec(csp2::ValueOrder::kTMinusC, time_limit_ms));
  specs.push_back(csp2_spec(csp2::ValueOrder::kDMinusC, time_limit_ms));
  return specs;
}

std::string health_summary(const core::BatchHealth& health) {
  if (health.failures == 0 && health.retries == 0 &&
      health.quarantined == 0) {
    return "health: clean (no contained failures)";
  }
  std::string out = "health: " + std::to_string(health.failures) +
                    " contained failure(s), " +
                    std::to_string(health.retries) + " retried, " +
                    std::to_string(health.recovered) + " recovered, " +
                    std::to_string(health.quarantined) + " quarantined";
  if (!health.first_error.empty()) {
    out += " (first: " + health.first_error + ")";
  }
  return out;
}

BatchResult run_batch(const BatchOptions& options,
                      const std::vector<SolverSpec>& specs) {
  MGRTS_EXPECTS(!specs.empty());
  MGRTS_EXPECTS(options.instances >= 0);

  BatchResult result;
  result.labels.reserve(specs.size());
  for (const auto& spec : specs) result.labels.push_back(spec.label);

  // Materialize the instance stream first; generate_indexed makes instance
  // k independent of worker scheduling, and an explicit index list (a
  // residue set, a shard) simply reshapes which draws the batch runs.
  const auto count = options.indices.empty()
                         ? static_cast<std::size_t>(options.instances)
                         : options.indices.size();
  std::vector<gen::Instance> instances;
  instances.reserve(count);
  result.instances.resize(count);
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint64_t index =
        options.indices.empty() ? static_cast<std::uint64_t>(k)
                                : options.indices[k];
    instances.push_back(
        gen::generate_indexed(options.generator, options.seed, index));
    InstanceRecord& record = result.instances[k];
    record.index = index;
    const auto& inst = instances.back();
    record.tasks = inst.tasks.size();
    record.processors = inst.processors;
    record.hyperperiod = inst.tasks.hyperperiod();
    record.ratio = inst.tasks.utilization_ratio(inst.processors);
    record.exceeds_capacity = inst.tasks.exceeds_capacity(inst.processors);
    record.runs.resize(specs.size());
  }

  // Fan the flat (instance, solver) index space over the shared pool; each
  // run reads its instance in place (no per-job task-set copies — at
  // Table IV scale those would dominate memory) and writes to its own
  // pre-sized slot, so verdict tables are deterministic in layout
  // regardless of worker scheduling.  Library users with independent
  // instances should prefer core::solve_batch.
  std::mutex health_mutex;
  const std::size_t total_runs = count * specs.size();
  support::parallel_for_index(total_runs, options.workers,
                              [&](std::size_t flat) {
    const std::size_t k = flat / specs.size();
    const std::size_t s = flat % specs.size();
    const gen::Instance& inst = instances[k];

    core::SolveConfig config = specs[s].config;
    // Per-generator-index seed stream (see reseed_for_index) — a residue
    // or shard run replays the exact seeds of the full-stream run.
    reseed_for_index(config, result.instances[k].index);

    // Containment: a run that throws (an injected fault, a resource wall,
    // an internal error) still yields its RunRecord slot — one crashed
    // (instance, solver) pair must never lose the rest of a Table IV
    // batch.  Verdict tables stay complete; the cause says why.  Only
    // such escapes count as failures here: a run whose backend contained
    // its own fault is an ordinary record.
    std::optional<std::string> escaped;
    core::SolveReport report = core::solve_contained(
        inst.tasks, rt::Platform::identical(inst.processors), config,
        &escaped);
    if (escaped) {
      std::lock_guard<std::mutex> lock(health_mutex);
      ++result.health.failures;
      ++result.health.quarantined;
      if (result.health.first_error.empty()) {
        result.health.first_error = std::move(*escaped);
      }
    }

    result.instances[k].runs[s] = record_from_report(std::move(report));
  });

  return result;
}

}  // namespace mgrts::exp
