#include "dist/shard_exec.hpp"

#include <mutex>

#include "rt/platform.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace mgrts::dist {

namespace {

/// One index's finished work, parked until every index before it in request
/// order has been emitted.
struct Parked {
  exp::InstanceRecord record;
  core::BatchHealth health;
  bool ready = false;
};

}  // namespace

ShardProgress::ShardProgress(std::size_t count)
    : polls_(std::make_shared<std::vector<std::atomic<std::uint64_t>>>(
          count)) {}

std::shared_ptr<std::atomic<std::uint64_t>> ShardProgress::polls(
    std::size_t k) const {
  return {polls_, &polls_->at(k)};
}

std::uint64_t ShardProgress::beat() const noexcept {
  // Every term only grows, and the head only moves on, so the sum is
  // monotone for the one thread that samples it.
  const auto head = static_cast<std::size_t>(completed());
  std::uint64_t beat = head;
  for (std::size_t k = 0; k <= head && k < polls_->size(); ++k) {
    beat += (*polls_)[k].load(std::memory_order_relaxed);
  }
  return beat;
}

ShardExecution execute_shard(const serve::ShardRequest& request,
                             const support::CancelToken& cancel,
                             ShardProgress* progress, const RowSink& sink,
                             std::size_t lanes) {
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
  if (!sink) out.rows.reserve(request.indices.size());

  core::BatchPolicy policy;
  policy.workers = 1;  // each index is one single-threaded lane's work
  policy.max_attempts = request.max_attempts;

  // Ordered emission: a finished index parks in its slot, and one lane at
  // a time (`emitting`) hands out every consecutive ready slot in request
  // order, calling the sink with the lock released.  `out` is written only
  // by the emitting lane, and `stopped` ends emission for good once a sink
  // throws or the token fires.
  std::vector<Parked> slots(request.indices.size());
  std::mutex mutex;
  std::size_t next = 0;
  bool emitting = false;
  bool stopped = false;

  const auto emit_ready = [&](std::unique_lock<std::mutex>& lock) {
    if (emitting) return;
    emitting = true;
    while (!stopped && next < slots.size() && slots[next].ready) {
      if (cancel.cancelled()) {
        stopped = true;
        break;
      }
      Parked parked = std::move(slots[next]);
      lock.unlock();
      try {
        out.health.merge(parked.health);
        ++out.row_count;
        if (progress != nullptr) progress->emitted();
        if (sink) {
          sink(parked.record);
        } else {
          out.rows.push_back(std::move(parked.record));
        }
      } catch (...) {
        lock.lock();
        stopped = true;
        emitting = false;
        throw;
      }
      lock.lock();
      ++next;
    }
    emitting = false;
  };

  support::parallel_for_index(slots.size(), lanes, [&](std::size_t k) {
    // Index boundary is the cooperative cancellation point: a culled shard
    // stops here (its in-flight solves abort at their next deadline poll),
    // and the coordinator re-dispatches the whole index list elsewhere.
    if (cancel.cancelled()) return;
    const std::uint64_t index = request.indices[k];
    const gen::Instance inst =
        gen::generate_indexed(request.generator, request.seed, index);

    Parked parked;
    exp::InstanceRecord& record = parked.record;
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
      if (progress != nullptr) job.config.heartbeat = progress->polls(k);
      jobs.push_back(std::move(job));
    }

    // core::solve_batch supplies the whole containment contract: capture,
    // retry with widened budgets, quarantine — identical on a worker and
    // on the coordinator's fallback path.
    std::vector<core::SolveReport> reports =
        core::solve_batch(jobs, policy, &parked.health);
    record.runs.reserve(reports.size());
    for (core::SolveReport& report : reports) {
      record.runs.push_back(exp::record_from_report(std::move(report)));
    }
    parked.ready = true;

    std::unique_lock<std::mutex> lock(mutex);
    slots[k] = std::move(parked);
    emit_ready(lock);
  });
  return out;
}

}  // namespace mgrts::dist
