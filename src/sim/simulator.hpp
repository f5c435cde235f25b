// Discrete-time simulator for global EDF, a work-conserving scheduler, on
// identical multiprocessors.
//
// Role in the reproduction:
//   * the baseline comparator `Method::kEdfSimulation`: the classic online
//     policy against which the CSP approach is motivated (the paper's
//     §I/§VIII discussion; global scheduling anomalies are exactly why EDF
//     is not optimal here);
//   * a witness generator for the test suite: when EDF schedules an
//     instance, the instance is feasible, so the (complete) CSP2 solver
//     must find a schedule too.
//
// Semantics: at every slot EDF picks up to m active jobs (released,
// unfinished) with the earliest absolute deadlines, ties by task id, and
// runs each for one unit on one processor.  Migration is free; a task never
// occupies two processors in a slot (one job per task is active at a time
// under constrained deadlines).
//
// Periodicity: the simulator runs hyperperiod by hyperperiod, comparing the
// full backlog state at successive boundaries past max(O_i).  When the
// state repeats after exactly one hyperperiod, the last simulated window is
// a valid cyclic schedule and is returned as a witness.  A repeat with a
// longer period proves schedulability without a T-periodic witness (the
// schedule is p*T-periodic); this cannot happen for synchronous
// (offset-free) systems, where the boundary state is empty.
#pragma once

#include <optional>

#include "rt/platform.hpp"
#include "rt/schedule.hpp"
#include "rt/task_set.hpp"

namespace mgrts::sim {

enum class SimStatus {
  kSchedulable,    ///< no miss, steady state reached
  kDeadlineMiss,   ///< EDF missed a deadline (says nothing about
                   ///< feasibility of the instance itself!)
  kNoConvergence,  ///< no boundary-state repeat within the budget
};

[[nodiscard]] const char* to_string(SimStatus status);

struct SimResult {
  SimStatus status = SimStatus::kNoConvergence;
  /// Cyclic witness; present iff schedulable with a T-periodic steady state.
  std::optional<rt::Schedule> schedule;
  /// Diagnostics for kDeadlineMiss.
  rt::Time miss_time = -1;
  rt::TaskId miss_task = -1;
};

/// Simulates `ts` (constrained deadlines) under global EDF on m identical
/// processors.  Throws ValidationError for heterogeneous platforms.
[[nodiscard]] SimResult simulate(const rt::TaskSet& ts,
                                 const rt::Platform& platform);

}  // namespace mgrts::sim
