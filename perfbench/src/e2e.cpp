// End-to-end runs: the real daemons, driven from this one client process.
//
// serve_miss_table1 / serve_hit_table1: a closed loop of `clients`
// connections to a spawned mgrts_serverd, each sending its next solve only
// after the previous reply arrived (the shape of mgrts_ctl and of the
// coordinator).  fleet_search_table1: sharded batches through
// exp::run_batch_sharded against two spawned mgrts_workerd, one shard per
// worker per batch.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "daemon.hpp"
#include "exp/sharded.hpp"
#include "serve/client.hpp"

namespace perfbench {

using namespace mgrts;
using Clock = std::chrono::steady_clock;

namespace {

struct Sample {
  std::uint32_t request = 0;  ///< index into the request list
  float latency_us = 0.0f;
  float done_s = 0.0f;        ///< completion, seconds since the loop began
  core::Verdict verdict = core::Verdict::kUnknown;
  bool complete = false;
};

struct LoadResult {
  std::vector<Sample> samples;
  /// decided-by label -> responses ("cache:<decider>" folds into "cache").
  std::map<std::string, std::int64_t> deciders;
  std::int64_t sent = 0;
  std::int64_t cache_hits = 0;
  std::int64_t error_responses = 0;
  std::int64_t transport_failures = 0;
  double elapsed_s = 0.0;
  bool exhausted = false;  ///< ran out of distinct inputs before the time
  /// steal_ticks() at every window boundary, when windows were asked for.
  std::vector<std::int64_t> steal_marks;
};

/// Closed loop over `requests`, from index `first` on, from `clients`
/// connections.  `seconds` <= 0 sends every request once (the cache
/// warm-up); otherwise the loop runs for `seconds`, cycling over the list
/// when `cycle` is set.  A positive `window` records the steal time at
/// every window boundary.
LoadResult drive(const std::string& socket,
                 const std::vector<ServeRequest>& requests, int clients,
                 double seconds, bool cycle, std::size_t first = 0,
                 double window = 0.0) {
  LoadResult total;
  std::mutex merge;
  std::atomic<std::size_t> cursor{first};
  std::atomic<bool> exhausted{false};
  std::atomic<int> running{clients};
  const auto start = Clock::now();

  const auto client_loop = [&] {
    LoadResult mine;
    try {
      serve::Client client(socket);
      for (;;) {
        if (seconds > 0 && seconds_since(start) >= seconds) break;
        const std::size_t k = cursor.fetch_add(1);
        if (k >= requests.size() && (!cycle || seconds <= 0)) {
          if (seconds > 0) exhausted = true;
          break;
        }
        const std::size_t slot = k % requests.size();
        ++mine.sent;
        const auto sent_at = Clock::now();
        const serve::SolveResult result = client.solve(requests[slot].text);
        const auto done_at = Clock::now();
        const float micros =
            std::chrono::duration<float, std::micro>(done_at - sent_at)
                .count();
        if (!result.ok) {
          ++mine.error_responses;
          continue;
        }
        mine.samples.push_back(
            {static_cast<std::uint32_t>(slot), micros,
             std::chrono::duration<float>(done_at - start).count(),
             result.verdict, result.complete});
        if (result.cache_hit) ++mine.cache_hits;
        const std::string label = result.decided_by.rfind("cache:", 0) == 0
                                      ? std::string("cache")
                                      : result.decided_by;
        ++mine.deciders[label];
      }
    } catch (const std::exception&) {
      ++mine.transport_failures;
    }
    std::lock_guard<std::mutex> lock(merge);
    total.samples.insert(total.samples.end(), mine.samples.begin(),
                         mine.samples.end());
    for (const auto& [label, count] : mine.deciders) {
      total.deciders[label] += count;
    }
    total.sent += mine.sent;
    total.cache_hits += mine.cache_hits;
    total.error_responses += mine.error_responses;
    total.transport_failures += mine.transport_failures;
    --running;
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client_loop);
  if (window > 0) {
    total.steal_marks.push_back(steal_ticks());
    int k = 0;
    do {
      ++k;
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(k * window)));
      total.steal_marks.push_back(steal_ticks());
    } while (running > 0);
  }
  for (std::thread& thread : threads) thread.join();
  total.elapsed_s = seconds_since(start);
  total.exhausted = exhausted;
  return total;
}

/// Compares every decisive verdict of `load` with the ground truth.
void check_verdicts(const LoadResult& load,
                    const std::vector<core::Verdict>& truth,
                    const char* phase, Outcome& out) {
  for (const Sample& sample : load.samples) {
    if (!core::decisive(sample.verdict, sample.complete)) continue;
    if (sample.verdict != truth[sample.request]) {
      out.fail(std::string(phase) + " request " +
               std::to_string(sample.request) + ": daemon said " +
               core::to_string(sample.verdict) + ", flow oracle says " +
               core::to_string(truth[sample.request]));
    }
  }
}

}  // namespace

Outcome run_serve(const Options& options) {
  const Sizes& sizes = options.sizes;
  const bool hit = options.workload == Workload::kServeHit;
  Outcome out;

  // Inputs (untimed).  The hit workload's ground truth covers every
  // orientation, so the cache's equivalence claim is checked directly.
  std::vector<ServeRequest> pool;
  std::vector<ServeRequest> traffic;
  std::vector<core::Verdict> pool_truth;
  std::vector<core::Verdict> truth;
  if (hit) {
    pool = hit_pool(options.seed, sizes.hit_pool);
    traffic = hit_traffic(pool, options.seed);
    pool_truth = truth_for_texts(pool, pool.size());
    truth = truth_for_texts(traffic, traffic.size());
  }

  // Set-ups: spawn until ping answers, plus the cache warm-up.  The last
  // one serves the measured traffic.
  std::vector<double> setup_times;
  std::unique_ptr<Daemon> daemon;
  LoadResult warm;
  for (int r = 0; r < sizes.setups; ++r) {
    if (daemon) {
      daemon->shutdown();
      daemon.reset();
    }
    const std::string socket =
        options.run_dir + "/serverd-" + std::to_string(r) + ".sock";
    const auto start = Clock::now();
    daemon = std::make_unique<Daemon>(
        options.bin_dir + "/mgrts_serverd", socket,
        std::vector<std::string>{"--workers", std::to_string(sizes.clients),
                                 "--cache-capacity",
                                 std::to_string(sizes.cache_capacity)},
        options.run_dir + "/serverd.log");
    daemon->wait_ready();
    if (hit) warm = drive(socket, pool, sizes.clients, 0.0, false);
    setup_times.push_back(seconds_since(start));
    if (hit) check_verdicts(warm, pool_truth, "warm-up", out);
  }

  // The miss inputs are generated after the set-ups: spawning from a
  // process holding them measured several times slower.
  if (!hit) {
    const auto count = static_cast<std::size_t>(
        static_cast<double>(sizes.miss_per_second) *
        (sizes.lead_seconds + options.seconds));
    traffic = miss_requests(options.seed, std::max<std::size_t>(count, 100));
  }

  // A lead-in of traffic warms the daemon's lazily built state (its first
  // requests run several times slower); it is checked but not measured.
  const LoadResult lead = drive(daemon->socket(), traffic, sizes.clients,
                                sizes.lead_seconds, hit);
  const LoadResult load =
      drive(daemon->socket(), traffic, sizes.clients, options.seconds, hit,
            hit ? 0 : static_cast<std::size_t>(lead.sent),
            sizes.window_seconds);

  // The daemon's own ledger must account for every request sent.
  const serve::Message health = daemon->request("health");
  const std::int64_t expected_requests =
      daemon->control_requests() + warm.sent + lead.sent + load.sent;
  const std::int64_t error_kinds = header_int(health, "parse-errors") +
                                   header_int(health, "validation-errors") +
                                   header_int(health, "protocol-errors") +
                                   header_int(health, "internal-errors");
  if (header_int(health, "requests") != expected_requests) {
    out.fail("daemon counted " +
             std::to_string(header_int(health, "requests")) +
             " requests, client sent " + std::to_string(expected_requests));
  }
  if (error_kinds !=
      warm.error_responses + lead.error_responses + load.error_responses) {
    out.fail("daemon error ledger disagrees with the client's count");
  }
  if (header_int(health, "quarantined") != 0 ||
      header_int(health, "degraded") != 0) {
    out.fail("daemon quarantined or degraded requests");
  }
  if (header_int(health, "cache-hits") !=
      warm.cache_hits + lead.cache_hits + load.cache_hits) {
    out.fail("daemon cache-hit count disagrees with the client's count");
  }
  const double peak_rss_mb = daemon->peak_rss_mb();
  daemon->shutdown();
  daemon.reset();

  // Ground truth for the miss traffic actually sent (untimed).
  if (!hit) {
    std::uint32_t used = 0;
    for (const LoadResult* phase : {&lead, &load}) {
      for (const Sample& s : phase->samples) {
        used = std::max(used, s.request + 1);
      }
    }
    truth = truth_for_texts(traffic, used);
  }
  check_verdicts(lead, truth, "lead-in", out);
  check_verdicts(load, truth, "measured", out);

  // Throughput and latency percentiles are medians over the calm half of
  // the measured windows: those with at most the median hypervisor steal.
  // On a shared virtual machine, stolen time slows every request in its
  // window; the program's own cost is what the benchmark compares.
  const double width = sizes.window_seconds;
  const std::size_t windows = std::max<std::size_t>(
      1, std::min(load.steal_marks.size() - 1,
                  static_cast<std::size_t>(load.elapsed_s / width)));
  std::vector<std::vector<double>> window_latencies(windows);
  std::vector<std::int64_t> window_steal(windows);
  for (std::size_t w = 0; w < windows; ++w) {
    window_steal[w] = load.steal_marks[w + 1] - load.steal_marks[w];
  }
  std::int64_t decided = 0;
  for (const Sample& s : load.samples) {
    const auto w = static_cast<std::size_t>(
        static_cast<double>(s.done_s) / width);
    if (w < windows) window_latencies[w].push_back(s.latency_us);
    if (core::decisive(s.verdict, s.complete)) ++decided;
  }
  const std::vector<std::size_t> calm = calm_periods(window_steal);
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (const std::size_t w : calm) {
    rates.push_back(static_cast<double>(window_latencies[w].size()) / width);
    p50s.push_back(quantile(window_latencies[w], 0.50));
    p99s.push_back(quantile(window_latencies[w], 0.99));
  }
  out.attempted = std::max<std::int64_t>(load.sent, 1);
  out.failed = 0;
  for (const LoadResult* phase : {&std::as_const(warm), &lead, &load}) {
    out.failed += phase->error_responses + phase->transport_failures;
  }
  if (out.failed > 0) out.fail("error responses or transport failures");

  out.metric("throughput_per_s", median(rates), "1/s");
  out.metric("latency_p50_us", median(p50s), "us");
  out.metric("latency_p99_us", median(p99s), "us");
  out.metric("decided_ratio",
             static_cast<double>(decided) / static_cast<double>(out.attempted),
             "ratio");
  out.metric("setup_s", median(setup_times), "s");
  out.metric("peak_rss_mb", peak_rss_mb, "MB");

  const auto responses =
      static_cast<double>(std::max<std::size_t>(load.samples.size(), 1));
  out.properties.emplace_back(
      "cache_hit_share", static_cast<double>(load.cache_hits) / responses);
  for (const auto& [label, count] : load.deciders) {
    out.properties.emplace_back("decided_by." + label,
                                static_cast<double>(count) / responses);
  }
  if (hit) {
    out.properties.emplace_back("orientation.original", 1.0 / 3.0);
    out.properties.emplace_back("orientation.permuted", 1.0 / 3.0);
    out.properties.emplace_back("orientation.gcd_scaled", 1.0 / 3.0);
  }
  out.sizes.emplace_back("requests", static_cast<double>(load.sent));
  out.sizes.emplace_back("distinct_instances",
                         static_cast<double>(hit ? pool.size() : load.sent));
  out.sizes.emplace_back("warmup_requests", static_cast<double>(warm.sent));
  out.sizes.emplace_back("clients", sizes.clients);
  out.sizes.emplace_back("cache_capacity",
                         static_cast<double>(sizes.cache_capacity));
  out.sizes.emplace_back("setups", sizes.setups);
  out.sizes.emplace_back("windows", static_cast<double>(windows));
  out.sizes.emplace_back("calm_windows", static_cast<double>(calm.size()));
  out.sizes.emplace_back(
      "steal_ticks", static_cast<double>(load.steal_marks.back() -
                                         load.steal_marks.front()));
  out.sizes.emplace_back("inputs_exhausted", load.exhausted ? 1.0 : 0.0);
  return out;
}

Outcome run_fleet(const Options& options) {
  const Sizes& sizes = options.sizes;
  Outcome out;
  const std::vector<std::string> specs(std::begin(kFleetSpecs),
                                       std::end(kFleetSpecs));

  std::vector<double> setup_times;
  std::vector<std::unique_ptr<Daemon>> workers;
  for (int r = 0; r < sizes.setups; ++r) {
    for (auto& worker : workers) worker->shutdown();
    workers.clear();
    const auto start = Clock::now();
    workers = start_workers(options, "workerd-" + std::to_string(r));
    setup_times.push_back(seconds_since(start));
  }
  const dist::FleetOptions fleet = fleet_options(workers, sizes);

  // Batch 0 warms the workers and is checked but not measured.
  std::size_t batches = 0;
  std::vector<double> batch_us;
  std::vector<std::int64_t> batch_steal;
  std::int64_t runs_per_batch = 0;
  std::vector<std::uint64_t> indices;
  std::vector<exp::InstanceRecord> records;
  dist::FleetStats totals;
  auto start = Clock::now();
  for (std::size_t b = 0; b <= 1 || seconds_since(start) < options.seconds;
       ++b) {
    const exp::BatchOptions batch =
        fleet_batch(options.seed, b, sizes.fleet_batch);
    dist::FleetStats stats;
    if (b == 1) start = Clock::now();
    const auto sent_at = Clock::now();
    const std::int64_t steal_before = steal_ticks();
    exp::BatchResult result = exp::run_batch_sharded(
        batch, specs, kFleetTimeLimitMs, fleet, &stats);
    if (b > 0) {
      batch_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - sent_at)
              .count());
      batch_steal.push_back(steal_ticks() - steal_before);
    }
    runs_per_batch =
        static_cast<std::int64_t>(batch.indices.size() * specs.size());
    ++batches;
    totals.redispatched += stats.redispatched;
    totals.stall_culls += stats.stall_culls;
    totals.transport_failures += stats.transport_failures;
    totals.duplicate_rows += stats.duplicate_rows;
    totals.local_fallbacks += stats.local_fallbacks;
    if (result.instances.size() != batch.indices.size()) {
      out.fail("batch " + std::to_string(b) + " lost records");
    }
    indices.insert(indices.end(), batch.indices.begin(), batch.indices.end());
    for (exp::InstanceRecord& record : result.instances) {
      records.push_back(std::move(record));
    }
  }

  // Every shard and row must show up in the workers' own ledgers.
  std::int64_t shards = 0;
  std::int64_t rows = 0;
  for (auto& worker : workers) {
    const serve::Message health = worker->request("health");
    shards += header_int(health, "shards");
    rows += header_int(health, "rows");
    if (header_int(health, "aborted") != 0 ||
        header_int(health, "refused") != 0) {
      out.fail("a worker aborted or refused shards");
    }
  }
  if (shards != 2 * static_cast<std::int64_t>(batches) ||
      rows != static_cast<std::int64_t>(indices.size())) {
    out.fail("worker ledgers do not account for every shard and row");
  }
  double peak_rss_mb = 0.0;
  for (auto& worker : workers) peak_rss_mb += worker->peak_rss_mb();
  for (auto& worker : workers) worker->shutdown();
  workers.clear();

  // Verdicts against ground truth (untimed), and the two solvers against
  // each other wherever both decide.
  const std::vector<core::Verdict> truth =
      truth_for_indices(options.seed, indices);
  std::int64_t runs = 0;
  std::int64_t decided = 0;
  std::int64_t crashed = 0;
  std::vector<std::int64_t> decided_per_spec(specs.size(), 0);
  for (std::size_t k = 0; k < records.size() && k < indices.size(); ++k) {
    const exp::InstanceRecord& record = records[k];
    if (record.index != indices[k] || record.runs.size() != specs.size()) {
      out.fail("record " + std::to_string(k) + " out of order or short");
      continue;
    }
    std::optional<core::Verdict> agreed;
    for (std::size_t s = 0; s < specs.size(); ++s) {
      const exp::RunRecord& run = record.runs[s];
      ++runs;
      if (run.failure_cause == core::FailureCause::kInternalError ||
          run.failure_cause == core::FailureCause::kFaultInjected ||
          run.failure_cause == core::FailureCause::kMemory) {
        ++crashed;
      }
      if (!core::decisive(run.verdict, run.complete)) continue;
      ++decided;
      ++decided_per_spec[s];
      if (run.verdict != truth[k]) {
        out.fail(specs[s] + " on index " + std::to_string(record.index) +
                 " said " + core::to_string(run.verdict) +
                 ", flow oracle says " + core::to_string(truth[k]));
      }
      if (run.verdict == core::Verdict::kFeasible && !run.witness_ok) {
        out.fail(specs[s] + " witness failed validation");
      }
      if (agreed.has_value() && *agreed != run.verdict) {
        out.fail("csp2-dmc and csp2g-learn disagree on index " +
                 std::to_string(record.index));
      }
      agreed = run.verdict;
    }
  }
  if (totals.duplicate_rows != 0) out.fail("duplicate rows merged");

  out.attempted = std::max<std::int64_t>(runs, 1);
  out.failed = crashed + totals.transport_failures + totals.local_fallbacks +
               totals.stall_culls;
  if (out.failed > 0) out.fail("quarantined runs or fleet transport failures");

  // As on the serve workloads, the figures come from the calm half of the
  // measured batches: those with at most the median hypervisor steal.
  std::vector<double> calm_us;
  for (const std::size_t k : calm_periods(batch_steal)) {
    calm_us.push_back(batch_us[k]);
  }
  double calm_seconds = 0.0;
  for (const double us : calm_us) calm_seconds += us * 1e-6;
  out.metric("throughput_per_s",
             static_cast<double>(runs_per_batch) *
                 static_cast<double>(calm_us.size()) / calm_seconds,
             "1/s");
  out.metric("latency_p50_us", quantile(calm_us, 0.50), "us");
  out.metric("latency_p99_us", quantile(calm_us, 0.99), "us");
  out.metric("decided_ratio",
             static_cast<double>(decided) / static_cast<double>(out.attempted),
             "ratio");
  out.metric("setup_s", median(setup_times), "s");
  out.metric("peak_rss_mb", peak_rss_mb, "MB");

  const double instances =
      static_cast<double>(std::max<std::size_t>(records.size(), 1));
  for (std::size_t s = 0; s < specs.size(); ++s) {
    out.properties.emplace_back(
        "decided_by.backend:" + specs[s],
        static_cast<double>(decided_per_spec[s]) / instances);
  }
  std::int64_t feasible = 0;
  for (const core::Verdict v : truth) {
    if (v == core::Verdict::kFeasible) ++feasible;
  }
  out.properties.emplace_back(
      "truth_feasible_share",
      static_cast<double>(feasible) /
          static_cast<double>(std::max<std::size_t>(truth.size(), 1)));
  out.properties.emplace_back("cache_hit_share", 0.0);
  out.sizes.emplace_back("batches", static_cast<double>(batches));
  out.sizes.emplace_back("measured_batches",
                         static_cast<double>(batch_us.size()));
  out.sizes.emplace_back("calm_batches", static_cast<double>(calm_us.size()));
  out.sizes.emplace_back("instances", static_cast<double>(records.size()));
  out.sizes.emplace_back("runs", static_cast<double>(runs));
  out.sizes.emplace_back("batch_instances",
                         static_cast<double>(sizes.fleet_batch));
  out.sizes.emplace_back("max_nodes",
                         static_cast<double>(sizes.fleet_max_nodes));
  out.sizes.emplace_back("workers", 2);
  out.sizes.emplace_back("setups", sizes.setups);
  return out;
}

}  // namespace perfbench
