// Independent schedule validator for the MGRTS conditions of §III-C:
//   C1  every unit of task i executes inside one of its availability windows
//   C2  a processor runs at most one task per slot (structural in Schedule)
//   C3  a task runs on at most one processor per slot
//   C4  each job receives exactly C_i units of work per window; on
//       heterogeneous platforms "units" are weighted by s_{i,j} (eq. 11/12)
//   plus: a task never runs on a processor with s_{i,j} = 0.
//
// The validator shares no code with any solver; it recomputes everything
// from the task set, so it acts as the referee for the Theorem 1/2
// equivalence tests and re-checks every witness the flow oracle hands the
// daemon.  It walks the schedule once, slot by slot, reading each slot's
// cells through Schedule::row.  Window membership is plain counting: each
// task keeps its phase d = (t - O_i) mod T_i and its job index k, both
// advanced by one per slot, so slot t is in job k's window iff d < D_i and
// no cell divides.  Job work accumulates in one flat array.
// (tests/validate_reference.hpp keeps the per-cell WindowIndex version the
// differential test compares against, report for report.)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rt/platform.hpp"
#include "rt/schedule.hpp"
#include "rt/task_set.hpp"

namespace mgrts::rt {

enum class ViolationKind {
  kShape,          ///< schedule dimensions do not match the instance
  kOutsideWindow,  ///< C1
  kParallelism,    ///< C3
  kWrongAmount,    ///< C4
  kZeroRateProc,   ///< task on a processor that cannot serve it
  kBadTaskId,      ///< cell holds an id outside {kIdle, 0..n-1}
};

[[nodiscard]] std::string_view to_string(ViolationKind kind);

struct Violation {
  ViolationKind kind;
  Time slot = -1;        ///< -1 when not slot-specific
  ProcId processor = -1; ///< -1 when not processor-specific
  TaskId task = -1;
  std::string detail;
};

struct ValidationReport {
  std::vector<Violation> violations;
  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  [[nodiscard]] std::string to_string() const;
};

/// Validates one cyclic hyperperiod of `schedule` against the instance.
/// `ts` must be constrained-deadline (run arbitrary-deadline systems through
/// TaskSet::to_constrained first and validate the clone system; this is the
/// paper's §VI-B route), and a heterogeneous `platform` must give a rate
/// row for every task.  Violations come slot by slot, processor by
/// processor (bad id, C3, zero rate, C1, the first that applies to the
/// cell), then C4 task by task, job by job.
[[nodiscard]] ValidationReport validate_schedule(const TaskSet& ts,
                                                 const Platform& platform,
                                                 const Schedule& schedule);

/// Shorthand for "is feasible witness".
[[nodiscard]] inline bool is_valid_schedule(const TaskSet& ts,
                                            const Platform& platform,
                                            const Schedule& schedule) {
  return validate_schedule(ts, platform, schedule).ok();
}

}  // namespace mgrts::rt
