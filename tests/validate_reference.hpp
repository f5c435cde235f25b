// Reference schedule validator for differential tests.
//
// The straightforward implementation the production validator
// (rt/validate.cpp) is checked against: every busy cell is read through
// `Schedule::at`, which reduces its slot mod T, and is placed in its job by
// `WindowIndex::hit`, which divides; job work lives in a vector of vectors.
// Same conditions, independent code: every schedule must give the same
// ValidationReport, violation for violation (kind, slot, processor, task,
// detail) and in the same order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rt/jobs.hpp"
#include "rt/validate.hpp"
#include "support/error.hpp"

namespace mgrts::rt::reference {

inline ValidationReport validate_schedule(const TaskSet& ts,
                                          const Platform& platform,
                                          const Schedule& schedule) {
  ValidationReport report;
  auto fail = [&](ViolationKind kind, Time t, ProcId j, TaskId i,
                  std::string detail) {
    report.violations.push_back(Violation{kind, t, j, i, std::move(detail)});
  };

  if (!ts.is_constrained()) {
    throw ValidationError(
        "validate_schedule expects a constrained-deadline system; expand "
        "arbitrary-deadline systems into clones first (TaskSet::to_constrained)");
  }

  const Time T = ts.hyperperiod();
  const std::int32_t n = ts.size();
  const std::int32_t m = platform.processors();
  if (schedule.hyperperiod() != T || schedule.processors() != m) {
    fail(ViolationKind::kShape, -1, -1, -1,
         "expected T=" + std::to_string(T) + " m=" + std::to_string(m) +
             ", got T=" + std::to_string(schedule.hyperperiod()) +
             " m=" + std::to_string(schedule.processors()));
    return report;  // nothing else is meaningful
  }

  const WindowIndex windows(ts);

  // units[i][k]: weighted work received by job k of task i.
  std::vector<std::vector<Time>> units(static_cast<std::size_t>(n));
  for (TaskId i = 0; i < n; ++i) {
    units[static_cast<std::size_t>(i)].assign(
        static_cast<std::size_t>(ts.jobs_per_hyperperiod(i)), 0);
  }

  std::vector<Time> seen_at_slot(static_cast<std::size_t>(n), -1);
  for (Time t = 0; t < T; ++t) {
    for (ProcId j = 0; j < m; ++j) {
      const TaskId i = schedule.at(t, j);
      if (i == kIdle) continue;
      if (i < 0 || i >= n) {
        fail(ViolationKind::kBadTaskId, t, j, i,
             "cell value " + std::to_string(i));
        continue;
      }
      if (seen_at_slot[static_cast<std::size_t>(i)] == t) {
        fail(ViolationKind::kParallelism, t, j, i,
             "task already running on another processor this slot");
        continue;
      }
      seen_at_slot[static_cast<std::size_t>(i)] = t;

      if (!platform.can_run(i, j)) {
        fail(ViolationKind::kZeroRateProc, t, j, i, "s_{i,j} = 0");
        continue;
      }
      const auto hit = windows.hit(i, t);
      if (!hit) {
        fail(ViolationKind::kOutsideWindow, t, j, i,
             "slot outside every availability window");
        continue;
      }
      units[static_cast<std::size_t>(i)][static_cast<std::size_t>(hit->job)] +=
          platform.rate(i, j);
    }
  }

  for (TaskId i = 0; i < n; ++i) {
    const Time wcet = ts[i].wcet();
    const auto& task_units = units[static_cast<std::size_t>(i)];
    for (std::size_t k = 0; k < task_units.size(); ++k) {
      if (task_units[k] != wcet) {
        fail(ViolationKind::kWrongAmount, -1, -1, i,
             "job k=" + std::to_string(k + 1) + " received " +
                 std::to_string(task_units[k]) + " units, requires " +
                 std::to_string(wcet));
      }
    }
  }
  return report;
}

}  // namespace mgrts::rt::reference
