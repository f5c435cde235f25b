// Local search over the CSP formalization — the first future-work bullet
// of §VIII: "using the same CSP formalizations with local search
// algorithms, although they won't be able to prove that a given instance
// is infeasible".
//
// Representation: instead of the slot-major variables of CSP1/CSP2, each
// *job* holds a set of exactly C_i distinct slots inside its availability
// window.  Conditions C1 (windows), C3 (distinct slots per job, windows of
// one task disjoint) and C4 (exactly C_i units) hold *structurally*; only
// C2 — at most m busy tasks per slot — can be violated, giving the
// conflict count
//     cost = sum_t max(0, occupancy(t) - m).
// Min-conflicts moves one unit out of an overloaded slot into the
// least-loaded alternative slot of the same job (with an occasional random
// walk step to escape plateaus), restarting from a fresh random state when
// stuck.  cost == 0 yields a schedule witness that passes the independent
// validator like every other solver's.
//
// By construction the solver can only answer kFeasible or "gave up" —
// exactly the asymmetry the paper points out.
#pragma once

#include <cstdint>
#include <optional>

#include "rt/platform.hpp"
#include "rt/schedule.hpp"
#include "rt/task_set.hpp"
#include "support/deadline.hpp"

namespace mgrts::ls {

struct Options {
  std::uint64_t seed = 1;
  /// Moves attempted per restart.
  std::int64_t iterations_per_restart = 50'000;
  /// Number of random restarts before giving up.
  std::int64_t restarts = 8;
  support::Deadline deadline;
};

enum class Status {
  kFeasible,  ///< conflict-free assignment found (witness attached)
  kUnknown,   ///< budget exhausted; proves nothing (§VIII)
  kTimeout,   ///< wall-clock deadline hit
};

[[nodiscard]] const char* to_string(Status status);

struct Stats {
  std::int64_t iterations = 0;
  std::int64_t restarts_used = 0;
  std::int64_t best_cost = 0;  ///< lowest conflict count seen
  double seconds = 0.0;
};

struct Result {
  Status status = Status::kUnknown;
  std::optional<rt::Schedule> schedule;
  Stats stats;
};

/// Runs min-conflicts on `ts` (constrained deadlines) over m identical
/// processors.  Throws ValidationError for unsupported inputs and
/// ResourceError when the job table exceeds its memory budget.
[[nodiscard]] Result solve(const rt::TaskSet& ts, const rt::Platform& platform,
                           const Options& options = {});

}  // namespace mgrts::ls
