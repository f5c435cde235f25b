// Exact polynomial feasibility oracle for identical platforms.
//
// Construction (classic preemptive-scheduling reduction):
//   source --C_i--> job(i,k) --1--> slot(t in window)  --m--> sink
// A feasible cyclic schedule exists iff max-flow equals the total demand
// sum_i C_i * T/T_i:
//   * job->slot capacity 1 encodes C3 (a task on at most one processor per
//     slot; distinct jobs of one task never share a slot because constrained
//     deadline windows are disjoint modulo T);
//   * slot->sink capacity m encodes C2 (at most m busy processors);
//   * saturation of the source edges encodes C1 + C4.
//
// Network.  One flat residual network in compressed sparse row form, built
// straight from the task parameters (no job table, no per-job slot lists):
//   * nodes: 0 is the source, then the jobs grouped by task with k
//     ascending, then the T slots, then the sink;
//   * job k of task i is released at r = O_i + k*T_i and its slots are
//     (r + d) mod T for d < D_i;
//   * a job's arcs are the back arc to the source, then its D_i slot arcs
//     in window order; a slot's arcs are the back arcs of its jobs in
//     ascending job order, then its arc to the sink, last.
//
// Warm start.  Before Dinic runs, a greedy pass places what it can: the
// tasks in ascending laxity D_i - C_i (ties by task index), each task's
// jobs in index order, each job claiming its earliest slots whose sink arc
// still has room.  The tightest tasks go first, so the loose ones fill in
// around them; on the Table-I stream's flow-bound instances this places
// ~98.9% of the demand (job-index order placed ~93.5%) and leaves ~0.8
// Dinic phases for a feasible instance (src/csp/DESIGN.md §18 has the
// variants measured).  An iterative current-arc Dinic augments the rest
// and stops as soon as the demand flows.
//
// Deadline.  The three-argument form asks a support::Deadline before each
// Dinic phase, and after each block of about 65,536 slots or arcs that the
// network build, the warm start and the witness walk (never before the
// first block ends), and gives up with no verdict once it has expired or
// been cancelled; the size guard below bounds the network, the deadline
// bounds the time spent on it.
//
// Witness.  At most m tasks occupy any slot, so handing them processors in
// ascending task order gives the canonical representative the CSP2
// symmetry rule picks.  A slot's back arcs carry the flow of its
// job -> slot arcs and list its jobs in index order (ascending task
// order), so walking them fills the slot's schedule row (Schedule::row)
// in canonical form straight off the arc order, without any sort.
//
// The oracle is the ground truth for solver tests and doubles as the
// fastest feasibility decision procedure for identical platforms; it does
// NOT extend to heterogeneous rates (the per-pair rates make the problem an
// unrelated-machines one, which the flow model cannot capture).
#pragma once

#include <optional>

#include "rt/platform.hpp"
#include "rt/schedule.hpp"
#include "rt/task_set.hpp"
#include "support/deadline.hpp"

namespace mgrts::flow {

enum class OracleVerdict {
  kFeasible,
  kInfeasible,
};

struct OracleResult {
  OracleVerdict verdict = OracleVerdict::kInfeasible;
  /// Present iff feasible: a witness schedule (already canonical in the
  /// ascending-task-order sense).
  std::optional<rt::Schedule> schedule;
  /// Max-flow value vs. required demand, for diagnostics.
  std::int64_t flow = 0;
  std::int64_t demand = 0;
  /// Dinic phases run after the warm start: level graphs that reached the
  /// sink, each followed by a blocking flow (the final search that finds
  /// the sink cut off is not counted).  0 when the warm start placed the
  /// whole demand.
  std::int32_t phases = 0;
};

/// Decides feasibility of `ts` (constrained deadlines) on m identical
/// processors.
///
/// @throws ValidationError for non-identical platforms or non-constrained
///   task sets.
/// @throws ResourceError when the network would need more than
///   rt::JobTable::kDefaultSlotBudget (50M) forward arcs, counting
///   J + sum of the window lengths + T; checked in 64-bit arithmetic
///   before anything is allocated, so a huge hyperperiod with short
///   windows is refused as promptly as long windows are.
[[nodiscard]] OracleResult decide_feasibility(const rt::TaskSet& ts,
                                              const rt::Platform& platform);

/// The same decision under a time bound: `deadline` is asked before every
/// Dinic phase and after each block of about 65,536 slots or arcs walked
/// outside Dinic (expired(), which also sees its cancel token), and
/// nullopt comes back once it has run out, never a partial verdict.  A
/// network of fewer slots and arcs that the warm start settles is never
/// asked and always returns.  Throws as the two-argument form does.
[[nodiscard]] std::optional<OracleResult> decide_feasibility(
    const rt::TaskSet& ts, const rt::Platform& platform,
    const support::Deadline& deadline);

/// Convenience wrapper returning just the boolean verdict.
[[nodiscard]] inline bool is_feasible(const rt::TaskSet& ts,
                                      const rt::Platform& platform) {
  return decide_feasibility(ts, platform).verdict == OracleVerdict::kFeasible;
}

}  // namespace mgrts::flow
