// Analytical schedulability tests for identical platforms: constant- or
// near-linear-time filters that decide many instances without any search.
//
// The paper filters instances only by the trivial necessary condition
// r = U/m <= 1 (§VII-C) and leaves everything else to the CSP solvers.
// Real deployments run cheap analytical tests first; this module provides
// the classic ones that are *exact in one direction*:
//
//   necessary (violated => infeasible):
//     * utilization:   U <= m                          (the paper's filter)
//     * per-task fit:  C_i <= D_i * s_max              (a job must fit its
//                      own window; s_max = 1 on identical platforms)
//     * forced demand: for every prefix [0, L), the total work of jobs
//                      whose windows lie fully inside must not exceed m*L
//                      (a demand-bound-function argument)
//
//   sufficient (satisfied => feasible):
//     * density:       sum_i C_i / D_i <= m.  A fluid schedule giving each
//                      job C_i/D_i per window slot never exceeds capacity;
//                      by max-flow integrality (see flow/oracle.hpp) an
//                      integral schedule then exists too.
//
// `quick_decide` chains them; `kUnknown` means "run a real solver".
// Soundness of all four directions is property-tested against the flow
// oracle.
#pragma once

#include <cstdint>
#include <string>

#include "rt/platform.hpp"
#include "rt/task_set.hpp"

namespace mgrts::analysis {

enum class TestVerdict {
  kFeasible,    ///< proven feasible
  kInfeasible,  ///< proven infeasible
  kUnknown,     ///< the test cannot decide this instance
};

[[nodiscard]] const char* to_string(TestVerdict verdict);

struct TestResult {
  TestVerdict verdict = TestVerdict::kUnknown;
  const char* test = "";
  std::string detail;
};

/// Necessary: exact rational U <= m.
[[nodiscard]] TestResult utilization_test(const rt::TaskSet& ts,
                                          std::int32_t processors);

/// Necessary: every job must fit into its own window (C_i <= D_i on
/// identical platforms).
[[nodiscard]] TestResult window_fit_test(const rt::TaskSet& ts,
                                         std::int32_t processors);

/// Necessary: forced demand over prefixes [0, L).  Reports infeasible on
/// the first window end L with demand(L) > m*L, and the whole demand(L) in
/// the detail.  At most `max_events` window ends are visited: when the
/// ends in [0, T] fit under the cap and T is not sparse in them (at most
/// 24 slots per end) it buckets them by L and sweeps [0, T] a block of
/// slots at a time, O(J + T); otherwise it walks them in L order off a
/// min-heap and stops at the cap, so a cap that cuts the walk short
/// leaves the test silent, never wrong.
[[nodiscard]] TestResult forced_demand_test(const rt::TaskSet& ts,
                                            std::int32_t processors,
                                            std::int64_t max_events = 200'000);

/// Sufficient: total density sum C_i/D_i <= m (exact rational).
[[nodiscard]] TestResult density_test(const rt::TaskSet& ts,
                                      std::int32_t processors);

/// Runs the tests cheapest-first and returns the first decisive answer.
[[nodiscard]] TestResult quick_decide(const rt::TaskSet& ts,
                                      std::int32_t processors);

}  // namespace mgrts::analysis
