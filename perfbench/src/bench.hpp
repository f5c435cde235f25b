// Shared declarations of the perfbench program: workload inputs, daemon
// processes, the end-to-end load generators and the traced replays.
//
// Every workload draws its inputs from one index-addressable generator
// stream (gen::generate_indexed over the Table-I options: n=10, m=5,
// Tmax=7) seeded by --seed; the three workloads use disjoint index ranges,
// so no input of one workload is ever an input of another.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/verdict.hpp"
#include "exp/harness.hpp"
#include "gen/generator.hpp"

namespace perfbench {

enum class Workload { kServeMiss, kServeHit, kFleetSearch };

/// Workload sizes.  The defaults are the benchmark; smoke() shrinks them so
/// a full pass over all workloads takes seconds.
struct Sizes {
  /// Closed-loop client connections, and daemon connection handlers.
  int clients = 2;
  /// Set-ups per run (daemon spawn until ping answers, plus the cache
  /// warm-up on the hit workload); setup_s is their median.
  int setups = 7;
  /// Unmeasured traffic before the measured time, and the width of the
  /// windows the serve figures take their medians over.
  double lead_seconds = 1.0;
  double window_seconds = 0.5;
  /// Distinct miss instances generated per measured second, ~3.5x the
  /// rate measured when the benchmark was added.  A build fast enough to
  /// exhaust them ends the measured time early and reports
  /// inputs_exhausted.
  std::size_t miss_per_second = 12'000;
  /// Distinct instances warmed into the cache for the hit workload; the
  /// traffic sends each in three orientations.
  std::size_t hit_pool = 1'024;
  /// Daemon verdict-cache capacity: above the hit pool, and small enough
  /// that the miss workload fills it within its first second, so the
  /// daemon's peak memory does not grow with throughput.
  std::size_t cache_capacity = 4'096;
  /// Instances per sharded batch, and the node budget of every run.
  std::size_t fleet_batch = 320;
  std::int64_t fleet_max_nodes = 1'000;
  /// Traced replays do a fixed amount of work per measured second, so
  /// their counts are exact functions of (seed, seconds).
  std::size_t trace_miss_per_second = 500;
  double trace_fleet_batches_per_second = 0.05;
  /// Pings timed for serve.ping_rtt_us.
  int trace_pings = 2'000;

  [[nodiscard]] static Sizes smoke();
};

struct Options {
  Workload workload = Workload::kServeMiss;
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory holding mgrts_serverd and mgrts_workerd.
  std::string bin_dir;
  /// Working directory for sockets and daemon logs (relative paths keep
  /// AF_UNIX socket names short whatever the checkout's location).
  std::string run_dir;
  Sizes sizes;
};

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the contract's result line plus the input
/// properties and workload sizes printed on the line before it.
struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Share of each input property in the traffic (decided-by mix, cache
  /// hits), so a change that helps one property can cite its share.
  std::vector<std::pair<std::string, double>> properties;
  std::vector<std::pair<std::string, double>> sizes;
  /// Human-readable reasons for correct == false.
  std::vector<std::string> errors;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string why);
};

// ------------------------------------------------------------- inputs

/// The Table-I generator options of the paper's §VII experiments.
[[nodiscard]] mgrts::gen::GeneratorOptions table1_options();

/// First generator index of each workload's range.
inline constexpr std::uint64_t kMissBase = 0;
inline constexpr std::uint64_t kHitBase = std::uint64_t{1} << 40;
inline constexpr std::uint64_t kFleetBase = std::uint64_t{1} << 48;

/// The solver line-up of the fleet workload: the paper's dedicated solver
/// and the generic engine with 1-UIP learning, backjumping and
/// minimization.
inline constexpr const char* kFleetSpecs[] = {"csp2-dmc", "csp2g-learn"};
/// Wall budget per fleet run, far above what the node budget needs, so
/// node counts and verdicts never depend on timing.
inline constexpr std::int64_t kFleetTimeLimitMs = 60'000;

/// One solve request: the instance_io text sent as the request body.
struct ServeRequest {
  std::uint64_t index = 0;  ///< generator index of the underlying draw
  int orientation = 0;      ///< 0 original, 1 task-permuted, 2 gcd-scaled
  std::string text;
};

/// `count` requests whose instances have pairwise distinct canonical keys.
[[nodiscard]] std::vector<ServeRequest> miss_requests(std::uint64_t seed,
                                                      std::size_t count);
/// The hit workload's pool (originals, distinct canonical keys).
[[nodiscard]] std::vector<ServeRequest> hit_pool(std::uint64_t seed,
                                                 std::size_t count);
/// The hit workload's traffic: every pool entry in its three orientations,
/// in a seeded shuffled order.
[[nodiscard]] std::vector<ServeRequest> hit_traffic(
    const std::vector<ServeRequest>& pool, std::uint64_t seed);
/// Generator indices of fleet batch `batch`.
[[nodiscard]] std::vector<std::uint64_t> fleet_indices(std::size_t batch,
                                                       std::size_t size);
/// Fleet batch `batch` as the options of one sharded batch.
[[nodiscard]] mgrts::exp::BatchOptions fleet_batch(std::uint64_t seed,
                                                   std::size_t batch,
                                                   std::size_t size);

/// The solve request payload a default client sends for `text`.
[[nodiscard]] std::string solve_payload(const std::string& text);

/// Ground truth from the flow oracle for each instance text, computed in
/// parallel over all hardware threads (outside every timed section).
[[nodiscard]] std::vector<mgrts::core::Verdict> truth_for_texts(
    const std::vector<ServeRequest>& requests, std::size_t count);
/// Ground truth for generator indices of the Table-I stream.
[[nodiscard]] std::vector<mgrts::core::Verdict> truth_for_indices(
    std::uint64_t seed, const std::vector<std::uint64_t>& indices);

// ------------------------------------------------------------- runs

[[nodiscard]] Outcome run_serve(const Options& options);
[[nodiscard]] Outcome run_fleet(const Options& options);
[[nodiscard]] Outcome trace_serve(const Options& options);
[[nodiscard]] Outcome trace_fleet(const Options& options);

// ------------------------------------------------------------- helpers

/// Hypervisor steal time so far: clock ticks summed over all CPUs (the
/// "steal" column of /proc/stat); 0 where the kernel does not report it.
[[nodiscard]] std::int64_t steal_ticks();
/// Indices of the calm periods: those whose steal is at most the median
/// of `steal` (at least half of them).
[[nodiscard]] std::vector<std::size_t> calm_periods(
    const std::vector<std::int64_t>& steal);

/// q-quantile (0..1) by nearest rank over an unsorted copy; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double seconds_since(
    const std::chrono::steady_clock::time_point& start);

}  // namespace perfbench
