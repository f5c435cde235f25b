#include "sim/simulator.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "support/assert.hpp"
#include "support/error.hpp"

namespace mgrts::sim {

using rt::ProcId;
using rt::TaskId;
using rt::Time;

const char* to_string(SimStatus status) {
  switch (status) {
    case SimStatus::kSchedulable: return "schedulable";
    case SimStatus::kDeadlineMiss: return "deadline-miss";
    case SimStatus::kNoConvergence: return "no-convergence";
  }
  return "?";
}

namespace {

/// Hyperperiod boundaries to explore before giving up on periodicity.
constexpr Time kMaxHyperperiods = 8;

/// Backlog of one task: the active job, if any.
struct Backlog {
  Time abs_deadline = -1;  ///< -1: no active job
  Time remaining = 0;

  friend auto operator<=>(const Backlog&, const Backlog&) = default;
};

}  // namespace

SimResult simulate(const rt::TaskSet& ts, const rt::Platform& platform) {
  if (!platform.is_identical()) {
    throw ValidationError("the simulator supports identical platforms only");
  }
  if (!ts.is_constrained()) {
    throw ValidationError(
        "the simulator expects constrained deadlines; expand clones first");
  }
  const std::int32_t n = ts.size();
  const std::int32_t m = platform.processors();
  const Time T = ts.hyperperiod();

  std::vector<Backlog> backlog(static_cast<std::size_t>(n));
  SimResult result;

  // The window [record_from, record_from + T) most recently simulated is
  // kept as a candidate cyclic witness.
  rt::Schedule window(T, m);
  auto reset_window = [&] { window = rt::Schedule(T, m); };

  // Boundary states (only boundaries >= max offset are meaningful: before
  // that, first jobs are still being released).
  const Time first_boundary =
      ((ts.max_offset() + T - 1) / T) * T;  // smallest multiple of T >= Omax
  std::map<std::vector<Backlog>, Time> seen_states;

  std::vector<TaskId> active;
  active.reserve(static_cast<std::size_t>(n));

  const Time horizon = (kMaxHyperperiods + first_boundary / T) * T;
  for (Time t = 0; t < horizon; ++t) {
    // Boundary bookkeeping.  Snapshots are normalized to the boundary time
    // (relative deadlines), otherwise carried-over jobs of offset tasks
    // would make states at successive boundaries trivially distinct.
    if (t % T == 0) {
      if (t >= first_boundary) {
        std::vector<Backlog> snapshot = backlog;
        for (Backlog& b : snapshot) {
          if (b.abs_deadline >= 0) b.abs_deadline -= t;
        }
        auto [it, inserted] = seen_states.try_emplace(std::move(snapshot), t);
        if (!inserted) {
          result.status = SimStatus::kSchedulable;
          if (t - it->second == T) {
            // Steady state with period exactly T: the last window is a
            // valid cyclic schedule.
            result.schedule = std::move(window);
          }
          return result;
        }
      }
      reset_window();
    }

    // Releases.
    for (TaskId i = 0; i < n; ++i) {
      const rt::Task& task = ts[i];
      if (t >= task.offset() && (t - task.offset()) % task.period() == 0) {
        Backlog& b = backlog[static_cast<std::size_t>(i)];
        MGRTS_ASSERT(b.abs_deadline < 0 || b.remaining == 0);
        b.abs_deadline = t + task.deadline();
        b.remaining = task.wcet();
      }
    }

    // Pick up to m active jobs by EDF priority.
    active.clear();
    for (TaskId i = 0; i < n; ++i) {
      if (backlog[static_cast<std::size_t>(i)].remaining > 0) {
        active.push_back(i);
      }
    }
    const auto by_priority = [&](TaskId a, TaskId b) {
      const Time da = backlog[static_cast<std::size_t>(a)].abs_deadline;
      const Time db = backlog[static_cast<std::size_t>(b)].abs_deadline;
      if (da != db) return da < db;
      return a < b;
    };
    std::sort(active.begin(), active.end(), by_priority);
    const auto run_count =
        std::min<std::size_t>(active.size(), static_cast<std::size_t>(m));
    for (std::size_t k = 0; k < run_count; ++k) {
      const TaskId i = active[k];
      --backlog[static_cast<std::size_t>(i)].remaining;
      window.set(t % T, static_cast<ProcId>(k), i);
    }

    // Deadline checks at the end of the slot.
    for (TaskId i = 0; i < n; ++i) {
      Backlog& b = backlog[static_cast<std::size_t>(i)];
      if (b.abs_deadline < 0) continue;
      if (b.remaining > 0 && b.abs_deadline <= t + 1) {
        result.status = SimStatus::kDeadlineMiss;
        result.miss_time = b.abs_deadline;
        result.miss_task = i;
        return result;
      }
      if (b.remaining == 0 && b.abs_deadline <= t + 1) {
        b = Backlog{};  // job retired
      }
    }
  }

  result.status = SimStatus::kNoConvergence;
  return result;
}

}  // namespace mgrts::sim
