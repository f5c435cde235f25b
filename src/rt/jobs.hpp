// Availability windows and jobs over one hyperperiod.
//
// Slot semantics (DESIGN.md §3): slot t in {0..T-1} is the real interval
// [t, t+1).  Job k in {0..T/T_i - 1} of task i is released at
// O_i + k*T_i and may execute in the D_i cyclic slots
//   { (O_i + k*T_i + d) mod T : d in 0..D_i-1 }.
// For O_i > 0 the last window of the hyperperiod wraps past T; taking slots
// modulo T is exactly the periodic-schedule construction of Theorem 1.
//
// `WindowIndex` answers membership queries in O(1) arithmetic without
// materializing anything, so the CSP2 solver can handle hyperperiods in the
// 10^5..10^6 range; the schedule validator uses it too.  `JobTable`
// materializes explicit per-job slot lists for CSP1, local search and
// `rt/stats` (small instances); it guards against accidental memory
// blow-ups with an explicit budget.  The flow oracle and the generic CSP2
// model walk the windows straight from the task parameters and use no
// `JobTable`: the flow oracle shares the budget (flow/oracle.hpp), the
// CSP2 model runs the table's own guard (`guard_window_slots`).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "rt/task_set.hpp"

namespace mgrts::rt {

/// Identifies job k of a task together with the in-window position of a slot.
struct WindowHit {
  std::int64_t job = 0;  ///< k, 0-based
  Time depth = 0;        ///< d = slot's offset from the window start
};

/// O(1) membership arithmetic for one task set + hyperperiod.
class WindowIndex {
 public:
  explicit WindowIndex(const TaskSet& ts);

  /// Returns the (job, depth) pair if cyclic slot `t` lies inside a window
  /// of task i, nullopt otherwise.
  [[nodiscard]] std::optional<WindowHit> hit(TaskId i, Time t) const {
    const auto& row = tasks_[static_cast<std::size_t>(i)];
    // u = (t - O_i) mod T decomposes as k*T_i + d; membership iff d < D_i.
    const Time u = support::floor_mod(t - row.offset, hyperperiod_);
    const Time k = u / row.period;
    const Time d = u % row.period;
    if (d >= row.deadline) return std::nullopt;
    return WindowHit{k, d};
  }

  [[nodiscard]] bool in_window(TaskId i, Time t) const {
    return hit(i, t).has_value();
  }

  /// Remaining window slots of the job hit at `t`, including `t` itself
  /// (used by the CSP2 slack pruning: remaining work must fit here).
  [[nodiscard]] Time slots_left(TaskId i, Time t) const {
    const auto h = hit(i, t);
    return h ? tasks_[static_cast<std::size_t>(i)].deadline - h->depth : 0;
  }

  [[nodiscard]] Time hyperperiod() const noexcept { return hyperperiod_; }
  [[nodiscard]] std::int32_t task_count() const noexcept {
    return static_cast<std::int32_t>(tasks_.size());
  }
  [[nodiscard]] Time jobs_of(TaskId i) const {
    return hyperperiod_ / tasks_[static_cast<std::size_t>(i)].period;
  }

 private:
  struct Row {
    Time offset;
    Time period;
    Time deadline;
  };
  std::vector<Row> tasks_;
  Time hyperperiod_ = 1;
};

/// One materialized job: absolute release/deadline plus its cyclic slots.
struct Job {
  TaskId task = 0;
  std::int64_t index = 0;       ///< k, 0-based
  Time release = 0;             ///< O_i + k*T_i (absolute, < T + O_i)
  Time abs_deadline = 0;        ///< release + D_i
  std::vector<Time> slots;      ///< cyclic slots, wrap already applied
  Time wcet = 0;                ///< C_i
};

/// Calls fn(t) for each cyclic slot of job k of task i, in window order:
/// (O_i + k*T_i + d) mod T for d = 0..D_i-1.
template <typename Fn>
void for_each_window_slot(const TaskSet& ts, TaskId i, Time k, Fn&& fn) {
  const Task& task = ts[i];
  const Time T = ts.hyperperiod();
  Time t = (task.offset() + k * task.period()) % T;
  for (Time d = 0; d < task.deadline(); ++d) {
    fn(t);
    if (++t == T) t = 0;
  }
}

/// The guard a window walk runs before it allocates: the kJobTable fault
/// site, then ResourceError when sum_i (T/T_i)*D_i exceeds
/// `max_total_slots`.
void guard_window_slots(const TaskSet& ts, std::int64_t max_total_slots);

/// Materialized job list for small instances.
class JobTable {
 public:
  /// Runs guard_window_slots first.
  explicit JobTable(const TaskSet& ts,
                    std::int64_t max_total_slots = kDefaultSlotBudget);

  static constexpr std::int64_t kDefaultSlotBudget = 50'000'000;

  [[nodiscard]] const std::vector<Job>& jobs() const noexcept { return jobs_; }
  [[nodiscard]] std::size_t size() const noexcept { return jobs_.size(); }

  /// Index of the job of task i hit at slot t (position in `jobs()`),
  /// or -1 when t is outside every window of i.
  [[nodiscard]] std::int64_t job_at(TaskId i, Time t) const;

  /// First job index of task i in `jobs()` (jobs are grouped by task and
  /// ordered by k within a task).
  [[nodiscard]] std::int64_t first_job_of(TaskId i) const {
    return first_[static_cast<std::size_t>(i)];
  }

  [[nodiscard]] const WindowIndex& windows() const noexcept { return windows_; }

 private:
  WindowIndex windows_;
  std::vector<Job> jobs_;
  std::vector<std::int64_t> first_;
};

}  // namespace mgrts::rt
