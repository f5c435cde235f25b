// Discrete-time simulator for global work-conserving schedulers on
// identical multiprocessors: global EDF and global fixed-priority.
//
// Role in the reproduction:
//   * baseline comparators — classic online policies against which the CSP
//     approach is motivated (the paper's §I/§VIII discussion; global
//     scheduling anomalies are exactly why EDF/FP are not optimal here);
//   * witness generators for the test suite — when EDF or some priority
//     order schedules an instance, the instance is feasible, so the
//     (complete) CSP2 solver must find a schedule too;
//   * the schedulability check inside the priority-assignment search
//     (src/priority), the paper's "different viewpoint" future-work item.
//
// Semantics: at every slot the policy picks up to m active jobs (released,
// unfinished) with the highest priority — EDF: earliest absolute deadline,
// ties by task id; FP: position in a given priority order — and runs each
// for one unit on one processor.  Migration is free; a task never occupies
// two processors in a slot (one job per task is active at a time under
// constrained deadlines).
//
// Periodicity: the simulator runs hyperperiod by hyperperiod, comparing the
// full backlog state at successive boundaries past max(O_i).  When the
// state repeats after exactly one hyperperiod, the last simulated window is
// a valid cyclic schedule and is returned as a witness.  A repeat with a
// longer period proves schedulability without a T-periodic witness (the
// schedule is p*T-periodic); this cannot happen for synchronous
// (offset-free) systems, where the boundary state is empty.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "rt/platform.hpp"
#include "rt/schedule.hpp"
#include "rt/task_set.hpp"

namespace mgrts::sim {

enum class Policy {
  kEdf,            ///< global earliest-deadline-first
  kFixedPriority,  ///< global FP with a caller-supplied order
};

struct SimOptions {
  Policy policy = Policy::kEdf;
  /// For kFixedPriority: task ids from highest to lowest priority; must be
  /// a permutation of 0..n-1.
  std::vector<rt::TaskId> priority;
};

enum class SimStatus {
  kSchedulable,    ///< no miss, steady state reached
  kDeadlineMiss,   ///< the policy missed a deadline (says nothing about
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

/// Simulates `ts` (constrained deadlines) under `options.policy` on m
/// identical processors.  Throws ValidationError for heterogeneous
/// platforms or malformed priority vectors.
[[nodiscard]] SimResult simulate(const rt::TaskSet& ts,
                                 const rt::Platform& platform,
                                 const SimOptions& options = {});

}  // namespace mgrts::sim
