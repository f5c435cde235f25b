// Aggregations that print the paper's result tables from a BatchResult.
// Layouts mirror Tables I-IV of §VII so that paper-vs-measured comparison
// (each bench_table*_ header quotes the paper's table) is line-by-line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/harness.hpp"
#include "support/table.hpp"

namespace mgrts::exp {

/// Table I: per solver, the number of runs hitting the time limit, split
/// into instances solved by at least one solver vs. unsolved instances.
/// The trailing "Total" column holds the class sizes, as in the paper.
[[nodiscard]] support::TextTable table1_overruns(const BatchResult& batch);

/// Table II: overruns among *unsolved* instances, split into those the
/// r > 1 necessary condition would have filtered out vs. the rest.
[[nodiscard]] support::TextTable table2_unsolved(const BatchResult& batch);

/// Companion numbers quoted in the §VII-C text around Table II.
struct UnsolvedSummary {
  std::int64_t unsolved = 0;
  std::int64_t filtered = 0;      ///< r > 1
  std::int64_t unfiltered = 0;
  std::int64_t provably_unsolvable = 0;  ///< some solver proved UNSAT
};
[[nodiscard]] UnsolvedSummary summarize_unsolved(const BatchResult& batch);

/// Table III: instance counts and mean resolution time (over all solvers,
/// overruns counted at the full budget) per utilization-ratio bucket.
/// Buckets follow the paper: [0, 0.4), then width 0.1 up to 1.7, then
/// [1.7, 2.0).
[[nodiscard]] support::TextTable table3_difficulty(const BatchResult& batch,
                                                   double limit_seconds);

/// One row of Table IV (the n-scaling study): averages over a batch that
/// was generated with ProcessorRule::kMinCapacity for a fixed n.
struct ScalingRow {
  std::int32_t tasks = 0;
  std::int64_t instances = 0;
  double avg_ratio = 0.0;
  double avg_processors = 0.0;
  double avg_hyperperiod = 0.0;  ///< in thousands, like the paper's column
  /// Per solver, parallel to the batch's labels.
  std::vector<double> solved_fraction;
  std::vector<double> avg_seconds;  ///< over decided (non-overrun) runs
  std::vector<std::int64_t> memory_limited;
};
[[nodiscard]] ScalingRow scaling_row(const BatchResult& batch,
                                     std::int32_t tasks,
                                     double limit_seconds);

/// Assembles Table IV from per-n rows.
[[nodiscard]] support::TextTable table4_scaling(
    const std::vector<ScalingRow>& rows, const std::vector<std::string>& labels);

}  // namespace mgrts::exp
