#include "dist/shard_exec.hpp"

#include "rt/platform.hpp"
#include "support/error.hpp"

namespace mgrts::dist {

ShardExecution execute_shard(const serve::ShardRequest& request,
                             const support::CancelToken& cancel,
                             ShardProgress* progress, const RowSink& sink) {
  // Resolve the line-up first: an unknown name refuses the whole shard
  // before any instance is generated, so a version-skewed worker can never
  // return a half-lineup row.
  std::vector<exp::SolverSpec> specs;
  specs.reserve(request.specs.size());
  for (const std::string& name : request.specs) {
    auto spec =
        exp::spec_from_name(name, request.time_limit_ms, request.seed);
    if (!spec.has_value()) {
      throw ValidationError("unknown spec name: '" + name + "'");
    }
    specs.push_back(std::move(*spec));
  }

  ShardExecution out;
  out.rows.reserve(request.indices.size());

  core::BatchPolicy policy;
  policy.workers = 1;  // a shard is one worker's slice; no nested fan-out
  policy.max_attempts = request.max_attempts;

  for (const std::uint64_t index : request.indices) {
    // Index boundary is the cooperative cancellation point: a culled shard
    // stops here (its in-flight solve aborted at its next deadline poll),
    // and the coordinator re-dispatches the whole index list elsewhere.
    if (cancel.cancelled()) break;

    const gen::Instance inst =
        gen::generate_indexed(request.generator, request.seed, index);

    exp::InstanceRecord record;
    record.index = index;
    record.tasks = inst.tasks.size();
    record.processors = inst.processors;
    record.hyperperiod = inst.tasks.hyperperiod();
    record.ratio = inst.tasks.utilization_ratio(inst.processors);
    record.exceeds_capacity = inst.tasks.exceeds_capacity(inst.processors);

    std::vector<core::BatchJob> jobs;
    jobs.reserve(specs.size());
    for (const exp::SolverSpec& spec : specs) {
      core::BatchJob job{inst.tasks, rt::Platform::identical(inst.processors),
                         spec.config};
      exp::reseed_for_index(job.config, index);
      if (request.max_nodes >= 0) job.config.max_nodes = request.max_nodes;
      if (request.max_variables > 0) {
        job.config.limits.max_variables = request.max_variables;
      }
      job.config.cancel = cancel;
      if (progress != nullptr) job.config.heartbeat = progress->heartbeat;
      jobs.push_back(std::move(job));
    }

    // core::solve_batch supplies the whole containment contract: capture,
    // retry with widened budgets, quarantine — identical on a worker and
    // on the coordinator's fallback path.
    core::BatchHealth health;
    std::vector<core::SolveReport> reports =
        core::solve_batch(jobs, policy, &health);
    out.health.merge(health);

    record.runs.reserve(reports.size());
    for (core::SolveReport& report : reports) {
      record.runs.push_back(exp::record_from_report(std::move(report)));
    }
    out.rows.push_back(std::move(record));
    if (progress != nullptr) {
      progress->completed.fetch_add(1, std::memory_order_relaxed);
    }
    if (sink) sink(out.rows.back());
  }
  return out;
}

}  // namespace mgrts::dist
