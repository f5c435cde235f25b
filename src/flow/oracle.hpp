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
// A greedy warm start takes the jobs in index order, each claiming its
// earliest slots whose sink arc still has room (on the Table-I stream this
// places ~93% of the demand); an iterative current-arc Dinic augments the
// rest and stops as soon as the demand flows.
//
// Witness.  At most m tasks occupy any slot, so handing them processors in
// ascending task order gives the canonical representative the CSP2
// symmetry rule picks.  A saturated job->slot arc means the job runs in
// that slot; walking the jobs in index order (ascending task order) and
// giving each slot its next free processor yields that canonical form
// straight off the arc order, without any sort.
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

/// Convenience wrapper returning just the boolean verdict.
[[nodiscard]] inline bool is_feasible(const rt::TaskSet& ts,
                                      const rt::Platform& platform) {
  return decide_feasibility(ts, platform).verdict == OracleVerdict::kFeasible;
}

}  // namespace mgrts::flow
