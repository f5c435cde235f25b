// Dedicated CSP2 solver (§V): chronological backtracking over the
// multi-valued variables x_j(t) with the paper's search strategy encoded
// directly in the search procedure rather than as declarative constraints.
//
//   * Variables are ordered chronologically (§V-C1): all of slot t before
//     slot t+1; processors by id on identical platforms, by ascending
//     quality Q(P_j) on heterogeneous ones (§VI-A).
//   * Values (tasks) are ordered by a static heuristic (§V-C2): input order,
//     RM, DM, T-C or D-C, ties by task id.
//   * Rule 1 (§V-C3): the idle value is used only when no task is available
//     for the cell.
//   * Rule 2, eq. (10)/(13): within a group of identical processors the
//     non-idle task ids are assigned in ascending order; idles trail.
//   * Slack pruning (optional, default on): a job whose remaining work
//     exceeds its remaining window capacity fails immediately; on identical
//     platforms a counting variant ("more tight jobs than processors")
//     prunes further.  Both are necessary conditions, so they never change
//     the feasibility verdict.
//
// The solver is fully deterministic (§VII-B) and never materializes the
// m*T variable array during search; per-task counters plus O(1) window
// arithmetic (rt::WindowIndex semantics) keep memory proportional to the
// explored prefix, which is what lets it scale to Table IV's hyperperiods
// in the 10^5 range where the boolean encoding runs out of memory.
//
// Completeness caveat (DESIGN.md §3.6): on *heterogeneous* platforms rule 1
// can lose solutions (running a task early on a fast processor may
// overshoot the exact amount (12) in ways later slots cannot rebalance).
// `Result::search_complete` reports whether an infeasible verdict is a
// proof; it is always true on identical platforms, and true on
// heterogeneous ones when the idle rule is disabled.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "rt/platform.hpp"
#include "rt/schedule.hpp"
#include "rt/task_set.hpp"
#include "support/deadline.hpp"

namespace mgrts::csp2 {

/// §V-C2 value-ordering heuristics.
enum class ValueOrder {
  kInput,              ///< task id order (the tables' plain "CSP2")
  kRateMonotonic,      ///< +RM: smallest T_i first
  kDeadlineMonotonic,  ///< +DM: smallest D_i first
  kTMinusC,            ///< +(T-C): smallest T_i - C_i first
  kDMinusC,            ///< +(D-C): smallest D_i - C_i first
};

[[nodiscard]] const char* to_string(ValueOrder order);

/// The four informed §V-C2 heuristics, in paper order.  This is the lane
/// line-up of core::solve_portfolio (plain input order is dominated by RM
/// and DM on every paper table, so racing it only burns a core).
[[nodiscard]] const std::array<ValueOrder, 4>& informed_value_orders();

struct Options {
  ValueOrder value_order = ValueOrder::kInput;
  bool idle_rule = true;       ///< rule 1 (§V-C3)
  bool symmetry_rule = true;   ///< rule 2, eq. (10)/(13)
  bool slack_prune = true;     ///< per-job remaining-vs-capacity check
  bool tight_demand_prune = true;  ///< identical platforms only
  std::int64_t max_nodes = -1;          ///< -1 = unlimited
  support::Deadline deadline;           ///< wall-clock budget
};

enum class Status {
  kFeasible,
  kInfeasible,
  kTimeout,
  kNodeLimit,
};

[[nodiscard]] const char* to_string(Status status);

struct Stats {
  std::int64_t nodes = 0;     ///< value assignments attempted
  std::int64_t failures = 0;  ///< dead ends (cell exhaustion / prune hits)
  rt::Time max_column = 0;    ///< deepest slot column reached
  double seconds = 0.0;
};

struct Result {
  Status status = Status::kInfeasible;
  std::optional<rt::Schedule> schedule;  ///< present iff kFeasible
  /// True when a kInfeasible verdict is an exhaustive proof (see header).
  bool search_complete = true;
  Stats stats;
};

/// Solves MGRTS for a constrained-deadline `ts` on `platform`.
/// Arbitrary-deadline systems must be clone-expanded first (§VI-B).
[[nodiscard]] Result solve(const rt::TaskSet& ts, const rt::Platform& platform,
                           const Options& options = {});

/// The static task permutation a heuristic produces (exposed for tests and
/// for the priority-assignment module, which seeds its search with the
/// winning (D-C) order as the paper's discussion suggests).
[[nodiscard]] std::vector<rt::TaskId> value_order_tasks(const rt::TaskSet& ts,
                                                        ValueOrder order);

}  // namespace mgrts::csp2
