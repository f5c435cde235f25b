#include "rt/jobs.hpp"

#include <string>

#include "support/assert.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"

namespace mgrts::rt {

WindowIndex::WindowIndex(const TaskSet& ts) : hyperperiod_(ts.hyperperiod()) {
  tasks_.reserve(static_cast<std::size_t>(ts.size()));
  for (const auto& task : ts.tasks()) {
    tasks_.push_back(Row{task.offset(), task.period(), task.deadline()});
  }
}

void guard_window_slots(const TaskSet& ts, std::int64_t max_total_slots) {
  support::fault_point(support::FaultSite::kJobTable);
  std::int64_t total_slots = 0;
  for (TaskId i = 0; i < ts.size(); ++i) {
    const auto slots =
        support::checked_mul(ts.jobs_per_hyperperiod(i), ts[i].deadline());
    const auto next =
        slots ? support::checked_add(total_slots, *slots) : slots;
    if (!next || *next > max_total_slots) {
      throw ResourceError(
          "materializing job windows needs more than " +
          std::to_string(max_total_slots) +
          " slot entries; use WindowIndex for instances this large");
    }
    total_slots = *next;
  }
}

JobTable::JobTable(const TaskSet& ts, std::int64_t max_total_slots)
    : windows_(ts) {
  guard_window_slots(ts, max_total_slots);
  first_.reserve(static_cast<std::size_t>(ts.size()));
  jobs_.reserve(static_cast<std::size_t>(ts.total_jobs()));
  for (TaskId i = 0; i < ts.size(); ++i) {
    first_.push_back(static_cast<std::int64_t>(jobs_.size()));
    const Task& task = ts[i];
    const Time count = ts.jobs_per_hyperperiod(i);
    for (Time k = 0; k < count; ++k) {
      Job job;
      job.task = i;
      job.index = k;
      job.release = task.offset() + k * task.period();
      job.abs_deadline = job.release + task.deadline();
      job.wcet = task.wcet();
      job.slots.reserve(static_cast<std::size_t>(task.deadline()));
      for_each_window_slot(ts, i, k, [&](Time t) { job.slots.push_back(t); });
      jobs_.push_back(std::move(job));
    }
  }
}

std::int64_t JobTable::job_at(TaskId i, Time t) const {
  const auto h = windows_.hit(i, t);
  if (!h) return -1;
  return first_[static_cast<std::size_t>(i)] + h->job;
}

}  // namespace mgrts::rt
