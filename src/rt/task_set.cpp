#include "rt/task_set.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <string>

#include "support/assert.hpp"
#include "support/error.hpp"

namespace mgrts::rt {

using support::Rational;

namespace {

/// Throws the ValidationError for a broken rule, labelled "task #k
/// (name)"; the label is built only here, never for a valid task.
[[noreturn]] void reject(const Task& task, std::size_t index,
                         const std::string& rule) {
  throw ValidationError("task #" + std::to_string(index + 1) +
                        (task.name.empty() ? "" : " (" + task.name + ")") +
                        ": " + rule);
}

void validate_task(const Task& task, std::size_t index, DeadlineModel model) {
  const auto& p = task.params;
  if (p.period < 1) {
    reject(task, index,
           "period must be >= 1, got " + std::to_string(p.period));
  }
  if (p.wcet < 1) {
    reject(task, index, "WCET must be >= 1, got " + std::to_string(p.wcet));
  }
  if (p.deadline < 1) {
    reject(task, index,
           "deadline must be >= 1, got " + std::to_string(p.deadline));
  }
  // Note: C > D is permitted — on heterogeneous platforms a rate-s
  // processor completes s units per slot, so C units can fit into fewer
  // than C slots.  On identical platforms such a task simply renders the
  // system infeasible, which every solver detects.
  if (p.offset < 0 || p.offset >= p.period) {
    reject(task, index,
           "offset must satisfy 0 <= O < T, got O=" +
               std::to_string(p.offset) + " T=" + std::to_string(p.period));
  }
  if (model == DeadlineModel::kConstrained && p.deadline > p.period) {
    reject(task, index,
           "constrained-deadline model requires D <= T, got D=" +
               std::to_string(p.deadline) + " T=" + std::to_string(p.period));
  }
}

Time compute_hyperperiod(const std::vector<Task>& tasks) {
  Time lcm = 1;
  for (const auto& task : tasks) {
    if (lcm % task.period() == 0) continue;  // lcm(L, T) = L when T | L
    const auto next = support::checked_lcm(lcm, task.period());
    if (!next) {
      throw OverflowError("hyperperiod lcm(T_1..T_n) overflows 64-bit range");
    }
    lcm = *next;
  }
  return lcm;
}

}  // namespace

TaskSet::TaskSet(std::vector<Task> tasks, DeadlineModel model)
    : tasks_(std::move(tasks)), model_(model) {
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].name.empty()) {  // "tau<i+1>", without temporaries
      std::array<char, 24> name = {'t', 'a', 'u'};
      char* const end =
          std::to_chars(name.data() + 3, name.data() + name.size(), i + 1).ptr;
      tasks_[i].name.assign(name.data(), end);
    }
    validate_task(tasks_[i], i, model_);
  }
  hyperperiod_ = compute_hyperperiod(tasks_);
  // The demand per hyperperiod must also be representable: it bounds the
  // flow-oracle capacities and CSP constraint constants.
  static_cast<void>(total_demand());
}

TaskSet TaskSet::from_params(std::initializer_list<TaskParams> params,
                             DeadlineModel model) {
  return from_params(std::vector<TaskParams>(params), model);
}

TaskSet TaskSet::from_params(const std::vector<TaskParams>& params,
                             DeadlineModel model) {
  std::vector<Task> tasks;
  tasks.reserve(params.size());
  for (const auto& p : params) tasks.push_back(Task{p, ""});
  return TaskSet(std::move(tasks), model);
}

Rational TaskSet::utilization() const {
  Rational u;
  for (const auto& task : tasks_) {
    u += Rational(task.wcet(), task.period());
  }
  return u;
}

double TaskSet::utilization_ratio(std::int32_t m) const {
  MGRTS_EXPECTS(m >= 1);
  return utilization().to_double() / static_cast<double>(m);
}

bool TaskSet::exceeds_capacity(std::int32_t m) const {
  MGRTS_EXPECTS(m >= 1);
  return utilization() > m;
}

std::int32_t TaskSet::min_processors_bound() const {
  const Rational u = utilization();
  const auto m = support::ceil_div(u.num(), u.den());
  return static_cast<std::int32_t>(std::max<Time>(1, m));
}

Time TaskSet::max_offset() const noexcept {
  Time o = 0;
  for (const auto& task : tasks_) o = std::max(o, task.offset());
  return o;
}

Time TaskSet::total_jobs() const {
  Time jobs = 0;
  for (std::int32_t i = 0; i < size(); ++i) {
    const auto next = support::checked_add(jobs, jobs_per_hyperperiod(i));
    if (!next) throw OverflowError("total job count overflows 64-bit range");
    jobs = *next;
  }
  return jobs;
}

Time TaskSet::total_demand() const {
  Time demand = 0;
  for (std::int32_t i = 0; i < size(); ++i) {
    const auto slot = support::checked_mul(jobs_per_hyperperiod(i),
                                           (*this)[i].wcet());
    const auto next = slot ? support::checked_add(demand, *slot) : slot;
    if (!next) throw OverflowError("total demand overflows 64-bit range");
    demand = *next;
  }
  return demand;
}

CloneExpansion TaskSet::expand_clones() const {
  CloneExpansion out;
  for (TaskId i = 0; i < size(); ++i) {
    const Task& task = (*this)[i];
    const auto k =
        static_cast<std::int32_t>(support::ceil_div(task.deadline(),
                                                    task.period()));
    MGRTS_ASSERT(k >= 1);
    const auto clone_period_checked =
        support::checked_mul(static_cast<Time>(k), task.period());
    if (!clone_period_checked) {
      throw OverflowError("clone period k_i * T_i overflows for " + task.name);
    }
    for (std::int32_t c = 0; c < k; ++c) {
      Task clone;
      clone.params.offset = task.offset() + static_cast<Time>(c) * task.period();
      clone.params.wcet = task.wcet();
      clone.params.deadline = task.deadline();
      clone.params.period = *clone_period_checked;
      clone.name = k == 1 ? task.name : task.name + "." + std::to_string(c + 1);
      out.tasks.push_back(std::move(clone));
      out.origin.push_back(CloneInfo{i, c});
    }
  }
  return out;
}

TaskSet TaskSet::to_constrained() const {
  auto expansion = expand_clones();
  return TaskSet(std::move(expansion.tasks), DeadlineModel::kConstrained);
}

}  // namespace mgrts::rt
