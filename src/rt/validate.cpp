#include "rt/validate.hpp"

#include <span>
#include <sstream>
#include <vector>

#include "support/error.hpp"
#include "support/math.hpp"

namespace mgrts::rt {

std::string_view to_string(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kShape: return "shape-mismatch";
    case ViolationKind::kOutsideWindow: return "C1-outside-window";
    case ViolationKind::kParallelism: return "C3-parallelism";
    case ViolationKind::kWrongAmount: return "C4-wrong-amount";
    case ViolationKind::kZeroRateProc: return "zero-rate-processor";
    case ViolationKind::kBadTaskId: return "bad-task-id";
  }
  return "unknown";
}

std::string ValidationReport::to_string() const {
  if (ok()) return "valid";
  std::ostringstream os;
  os << violations.size() << " violation(s):\n";
  for (const auto& v : violations) {
    os << "  [" << mgrts::rt::to_string(v.kind) << "]";
    if (v.slot >= 0) os << " t=" << v.slot;
    if (v.processor >= 0) os << " P" << (v.processor + 1);
    if (v.task >= 0) os << " tau" << (v.task + 1);
    if (!v.detail.empty()) os << " " << v.detail;
    os << '\n';
  }
  return os.str();
}

ValidationReport validate_schedule(const TaskSet& ts, const Platform& platform,
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

  // Window arithmetic, one slot at a time.  Each task carries its phase at
  // the current slot t: d = (t - O_i) mod T_i, the slot's offset into the
  // current period, and k, the job released at the start of that period.
  // Slot t lies in job k's window iff d < D_i.  Both advance by one per
  // slot (k wraps at T/T_i, where t wraps at T), so after the n divisions
  // that set them at t = 0 no cell divides.  Job k of task i accumulates
  // its weighted work in units[first + k].
  struct Phase {
    Time d = 0;
    Time k = 0;
    Time period = 0;
    Time deadline = 0;
    Time jobs = 0;
    std::size_t first = 0;  ///< the task's first job in `units`
    Time seen = -1;         ///< last slot the task ran in (C3)
  };
  std::vector<Phase> phases(static_cast<std::size_t>(n));
  std::size_t job_count = 0;
  for (TaskId i = 0; i < n; ++i) {
    Phase& phase = phases[static_cast<std::size_t>(i)];
    phase.period = ts[i].period();
    phase.deadline = ts[i].deadline();
    phase.jobs = T / phase.period;
    phase.first = job_count;
    job_count += static_cast<std::size_t>(phase.jobs);
    const Time u = support::floor_mod(-ts[i].offset(), T);
    phase.k = u / phase.period;
    phase.d = u % phase.period;
  }
  std::vector<Time> units(job_count, 0);

  // s_{i,j} of every (task, processor) pair, row by task.
  std::vector<Rate> rates(static_cast<std::size_t>(n) *
                          static_cast<std::size_t>(m));
  for (TaskId i = 0; i < n; ++i) {
    for (ProcId j = 0; j < m; ++j) {
      rates[static_cast<std::size_t>(i) * static_cast<std::size_t>(m) +
            static_cast<std::size_t>(j)] = platform.rate(i, j);
    }
  }

  for (Time t = 0; t < T; ++t) {
    const std::span<const TaskId> row = schedule.row(t);
    for (ProcId j = 0; j < m; ++j) {
      const TaskId i = row[static_cast<std::size_t>(j)];
      if (i == kIdle) continue;
      if (i < 0 || i >= n) {
        fail(ViolationKind::kBadTaskId, t, j, i,
             "cell value " + std::to_string(i));
        continue;
      }
      Phase& phase = phases[static_cast<std::size_t>(i)];
      if (phase.seen == t) {
        fail(ViolationKind::kParallelism, t, j, i,
             "task already running on another processor this slot");
        continue;
      }
      phase.seen = t;

      const Rate rate =
          rates[static_cast<std::size_t>(i) * static_cast<std::size_t>(m) +
                static_cast<std::size_t>(j)];
      if (rate <= 0) {
        fail(ViolationKind::kZeroRateProc, t, j, i, "s_{i,j} = 0");
        continue;
      }
      if (phase.d >= phase.deadline) {
        fail(ViolationKind::kOutsideWindow, t, j, i,
             "slot outside every availability window");
        continue;
      }
      units[phase.first + static_cast<std::size_t>(phase.k)] += rate;
    }
    // Branch-free: a period boundary comes every T_i slots, too irregular
    // across tasks to predict.
    for (Phase& phase : phases) {
      const bool wrap = ++phase.d == phase.period;
      phase.d = wrap ? 0 : phase.d;
      phase.k += wrap;
      phase.k = phase.k == phase.jobs ? 0 : phase.k;
    }
  }

  for (TaskId i = 0; i < n; ++i) {
    const Time wcet = ts[i].wcet();
    const Phase& phase = phases[static_cast<std::size_t>(i)];
    for (Time k = 0; k < phase.jobs; ++k) {
      const Time got = units[phase.first + static_cast<std::size_t>(k)];
      if (got != wcet) {
        fail(ViolationKind::kWrongAmount, -1, -1, i,
             "job k=" + std::to_string(k + 1) + " received " +
                 std::to_string(got) + " units, requires " +
                 std::to_string(wcet));
      }
    }
  }
  return report;
}

}  // namespace mgrts::rt
