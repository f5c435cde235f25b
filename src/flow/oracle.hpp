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
// The flow as slot occupancy.  No network is built: a job's arcs follow
// from window arithmetic, and the flow on them is which jobs sit in which
// slot.  Jobs are grouped by task with k ascending; job k of task i is
// released at r = O_i + k*T_i and its window slots are (r + d) mod T for
// d < D_i.  The store keeps
//   * per job: its task, its first window slot and its unplaced units
//     (the residual of source -> job);
//   * per slot: its occupants, in ascending job order, in a block of
//     min(m, windows covering the slot) cells, and their count (the
//     slot -> sink flow).  A job holds slot s iff it is among s's
//     occupants.
// A difference array over the windows sizes the blocks in O(J + T), so
// the store never exceeds min(T*m, sum of the window lengths) cells.
//
// Warm start.  Before Dinic runs, a greedy pass places what it can: the
// tasks in ascending laxity D_i - C_i (ties by task index), each task's
// jobs in index order, each job taking its earliest window slots that
// still have a free processor, seated in job order.  The tightest tasks
// go first, so the loose ones fill in around them; on the Table-I
// stream's flow-bound instances this places ~98.9% of the demand
// (job-index order placed ~93.5%) and leaves ~0.8 Dinic phases for a
// feasible instance (src/csp/DESIGN.md §18 has the variants measured).
//
// Dinic runs over the residual network the occupancy implies, and tries
// its arcs in the order the compressed sparse rows of the explicit
// network (source, then the jobs, then the slots, then the sink) listed
// them: the source's arcs in job order; a job's back arc to the source,
// then its window slots in window order (those it does not hold); a
// slot's occupants in ascending job order, then its arc to the sink
// (while a processor is free).  So every phase finds the same level graph
// and augments the same paths as a Dinic over that network, and every
// result, phases and witness included, is the same: the level search
// starts from the jobs with unplaced units, in index order, and stops at
// the first level holding a slot with a free processor; the blocking flow
// is an iterative DFS whose current arc is a job's window position and a
// slot's last occupant tried (an augmenting path shifts the cells), and
// stops as soon as the demand flows.
//
// Deadline.  The three-argument form asks a support::Deadline before each
// Dinic phase, and after each block of about 65,536 jobs, slots or window
// slots that laying out the store, the warm start and the witness walk
// (never before the first block ends), and gives up with no verdict once
// it has expired or been cancelled; the size guard below bounds the
// memory, the deadline bounds the time spent.
//
// Witness.  At most m tasks occupy any slot, so handing them processors in
// ascending task order gives the canonical representative the CSP2
// symmetry rule picks.  A slot's occupants ascend by job, which is
// ascending task order, so each schedule row (Schedule::row) is copied
// straight off the cells, already canonical, without any sort.
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
/// @throws ResourceError when J + sum of the window lengths + T (the job
///   table, the slot blocks and Dinic's arrays) or T*m (the witness's
///   cells) exceeds rt::JobTable::kDefaultSlotBudget (50M); both are
///   checked in 64-bit arithmetic before anything is allocated, so a huge
///   hyperperiod with short windows is refused as promptly as long windows
///   are.
[[nodiscard]] OracleResult decide_feasibility(const rt::TaskSet& ts,
                                              const rt::Platform& platform);

/// The same decision under a time bound: `deadline` is asked before every
/// Dinic phase and after each block of about 65,536 jobs, slots or window
/// slots walked outside Dinic (expired(), which also sees its cancel
/// token), and nullopt comes back once it has run out, never a partial
/// verdict.  An instance of fewer jobs and slots that the warm start
/// settles is never asked and always returns.  Throws as the two-argument
/// form does.
[[nodiscard]] std::optional<OracleResult> decide_feasibility(
    const rt::TaskSet& ts, const rt::Platform& platform,
    const support::Deadline& deadline);

/// Convenience wrapper returning just the boolean verdict.
[[nodiscard]] inline bool is_feasible(const rt::TaskSet& ts,
                                      const rt::Platform& platform) {
  return decide_feasibility(ts, platform).verdict == OracleVerdict::kFeasible;
}

}  // namespace mgrts::flow
