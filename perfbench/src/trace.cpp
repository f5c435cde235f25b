// Traced replays: in-process and single-threaded over each workload's
// exact inputs, timing calls into each module's public functions from this
// file (the program itself carries no spans).  Each replay does a fixed
// amount of work per measured second, so its counts are exact functions of
// (seed, seconds).  Every layer metric is printed on every workload; a
// layer the workload never enters reads 0.
#include <algorithm>
#include <memory>
#include <stdexcept>

#include "analysis/tests.hpp"
#include "bench.hpp"
#include "core/canonical.hpp"
#include "core/instance_io.hpp"
#include "core/solve.hpp"
#include "csp2/csp2.hpp"
#include "daemon.hpp"
#include "dist/coord.hpp"
#include "dist/shard_exec.hpp"
#include "encodings/csp2_generic.hpp"
#include "exp/sharded.hpp"
#include "flow/oracle.hpp"
#include "rt/validate.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/service.hpp"
#include "serve/shard.hpp"

namespace perfbench {

using namespace mgrts;
using Clock = std::chrono::steady_clock;

namespace {

/// Accumulated wall time of the calls into one public function.
struct Span {
  double total_us = 0.0;
  std::int64_t calls = 0;
  std::vector<double> each_us;

  /// Times fn() and returns its result.
  template <class Fn>
  auto operator()(Fn&& fn) {
    const auto start = Clock::now();
    struct Stop {
      Span& span;
      Clock::time_point start;
      ~Stop() {
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() - start)
                .count();
        span.total_us += us;
        ++span.calls;
        span.each_us.push_back(us);
      }
    } stop{*this, start};
    return fn();
  }

  [[nodiscard]] double mean_us() const {
    return calls > 0 ? total_us / static_cast<double>(calls) : 0.0;
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Every per-layer metric, zero unless the replay measured it.
struct Layers {
  double ping_rtt_us = 0, wire_parse_us = 0, wire_format_us = 0;
  double handle_us = 0, unattributed_us = 0;
  double cache_lookup_us = 0, cache_insert_us = 0, cache_hit_ratio = 0;
  double instance_parse_us = 0, canonical_key_us = 0;
  double solve_us_p50 = 0, solve_us_p99 = 0;
  double quick_decide_us = 0, analysis_decided_ratio = 0;
  double flow_us_p50 = 0, flow_us_p99 = 0, flow_decided_ratio = 0;
  double flow_jobs = 0, flow_slots = 0, flow_handle_share = 0;
  double validate_us = 0, build_us = 0;
  double search_s = 0, csp_nodes_per_s = 0, csp_nodes = 0;
  double runs_per_node = 0, prunes_per_run = 0;
  double nogoods_recorded = 0, backjumps = 0, lits_minimized = 0;
  double search_share = 0;
  double csp2_nodes_per_s = 0, csp2_nodes = 0;
  double shard_exec_s = 0, codec_row_us = 0;
  double redispatched = 0, duplicate_rows = 0;

  void emit(Outcome& out) const {
    out.metric("serve.ping_rtt_us", ping_rtt_us, "us");
    out.metric("serve.wire_parse_us", wire_parse_us, "us");
    out.metric("serve.wire_format_us", wire_format_us, "us");
    out.metric("serve.handle_us", handle_us, "us");
    out.metric("serve.unattributed_us", unattributed_us, "us");
    out.metric("serve.cache_lookup_us", cache_lookup_us, "us");
    out.metric("serve.cache_insert_us", cache_insert_us, "us");
    out.metric("serve.cache_hit_ratio", cache_hit_ratio, "ratio");
    out.metric("core.instance_parse_us", instance_parse_us, "us");
    out.metric("core.canonical_key_us", canonical_key_us, "us");
    out.metric("core.solve_us_p50", solve_us_p50, "us");
    out.metric("core.solve_us_p99", solve_us_p99, "us");
    out.metric("analysis.quick_decide_us", quick_decide_us, "us");
    out.metric("analysis.decided_ratio", analysis_decided_ratio, "ratio");
    out.metric("flow.decide_us_p50", flow_us_p50, "us");
    out.metric("flow.decide_us_p99", flow_us_p99, "us");
    out.metric("flow.decided_ratio", flow_decided_ratio, "ratio");
    out.metric("flow.jobs", flow_jobs, "count");
    out.metric("flow.slots", flow_slots, "count");
    out.metric("flow.handle_share", flow_handle_share, "ratio");
    out.metric("rt.validate_us", validate_us, "us");
    out.metric("encodings.build_us", build_us, "us");
    out.metric("csp.search_s", search_s, "s");
    out.metric("csp.nodes_per_s", csp_nodes_per_s, "1/s");
    out.metric("csp.nodes", csp_nodes, "count");
    out.metric("csp.propagator_runs_per_node", runs_per_node, "ratio");
    out.metric("csp.prunes_per_run", prunes_per_run, "ratio");
    out.metric("csp.nogoods_recorded", nogoods_recorded, "count");
    out.metric("csp.backjumps", backjumps, "count");
    out.metric("csp.lits_minimized", lits_minimized, "count");
    out.metric("csp.search_share", search_share, "ratio");
    out.metric("csp2.nodes_per_s", csp2_nodes_per_s, "1/s");
    out.metric("csp2.nodes", csp2_nodes, "count");
    out.metric("dist.shard_exec_s", shard_exec_s, "s");
    out.metric("dist.codec_row_us", codec_row_us, "us");
    out.metric("dist.redispatched", redispatched, "count");
    out.metric("dist.duplicate_rows", duplicate_rows, "count");
  }
};

/// Median round trip of `pings` pings on one connection to `socket`.
double ping_rtt_us(const std::string& socket, int pings) {
  serve::Client client(socket);
  std::vector<double> rtts;
  rtts.reserve(static_cast<std::size_t>(pings));
  for (int i = 0; i < pings; ++i) {
    const auto start = Clock::now();
    if (!client.ping()) throw std::runtime_error("ping refused");
    rtts.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count());
  }
  return median(std::move(rtts));
}

std::int64_t flow_jobs(const rt::TaskSet& tasks) {
  std::int64_t jobs = 0;
  for (const rt::Task& task : tasks.tasks()) {
    jobs += tasks.hyperperiod() / task.period();
  }
  return jobs;
}

}  // namespace

Outcome trace_serve(const Options& options) {
  const Sizes& sizes = options.sizes;
  const bool hit = options.workload == Workload::kServeHit;
  Outcome out;
  Layers layers;

  std::vector<ServeRequest> pool;
  std::vector<ServeRequest> traffic;
  if (hit) {
    pool = hit_pool(options.seed, sizes.hit_pool);
    traffic = hit_traffic(pool, options.seed);
  } else {
    traffic = miss_requests(
        options.seed,
        std::max<std::size_t>(
            50, static_cast<std::size_t>(
                    static_cast<double>(sizes.trace_miss_per_second) *
                    options.seconds)));
  }
  const std::vector<core::Verdict> truth =
      truth_for_texts(traffic, traffic.size());

  {
    Daemon daemon(options.bin_dir + "/mgrts_serverd",
                  options.run_dir + "/trace-serverd.sock", {},
                  options.run_dir + "/serverd.log");
    daemon.wait_ready();
    layers.ping_rtt_us = ping_rtt_us(daemon.socket(), sizes.trace_pings);
    daemon.shutdown();
  }

  // The daemon's request path in-process, plus a mirror cache and direct
  // calls into each layer on the same inputs for attribution.
  serve::ServiceOptions service_options;
  service_options.cache.capacity = sizes.cache_capacity;
  serve::Service service(service_options);
  serve::VerdictCache cache(service_options.cache);
  core::SolveConfig config;
  config.method = service_options.method;
  config.time_limit_ms = service_options.default_timeout_ms;

  if (hit) {  // the warm-up is set-up, not traced
    for (const ServeRequest& request : pool) {
      const serve::SolveResult result = serve::parse_solve_response(
          serve::parse_message(service.handle(solve_payload(request.text))));
      const core::InstanceFile file = core::read_instance_string(request.text);
      cache.insert(core::canonical_key(file.tasks, file.platform),
                   result.verdict, result.complete, result.decided_by);
    }
  }

  Span wire_parse, instance_parse, canonical, lookup, insert, solve;
  Span quick, flow_span, validate, handle, wire_format;
  std::int64_t requests = 0, hits = 0, solves = 0;
  std::int64_t analysis_decided = 0, flow_decided = 0;
  std::int64_t jobs = 0, slots = 0;

  // The layer calls of one request, then Service::handle on the same
  // payload; alternating which goes first keeps warm-cache effects out of
  // serve.unattributed_us.
  const auto layer_calls = [&](const std::string& payload) {
    const serve::Message message =
        wire_parse([&] { return serve::parse_message(payload); });
    const core::InstanceFile file = instance_parse(
        [&] { return core::read_instance_string(message.body); });
    const std::string key = canonical(
        [&] { return core::canonical_key(file.tasks, file.platform); });
    if (lookup([&] { return cache.lookup(key); }).has_value()) {
      ++hits;
    } else {
      ++solves;
      const core::SolveReport report = solve(
          [&] { return core::solve_instance(file.tasks, file.platform, config); });
      // The pipeline's presolve, call by call: analysis decides only the
      // infeasible direction when the flow oracle follows.
      const analysis::TestResult quick_result = quick([&] {
        return analysis::quick_decide(file.tasks,
                                      file.platform.processors());
      });
      if (quick_result.verdict == analysis::TestVerdict::kInfeasible) {
        ++analysis_decided;
      } else {
        const flow::OracleResult oracle = flow_span(
            [&] { return flow::decide_feasibility(file.tasks, file.platform); });
        ++flow_decided;
        jobs += flow_jobs(file.tasks);
        slots += file.tasks.hyperperiod();
        if (oracle.schedule.has_value()) {
          const rt::ValidationReport checked = validate([&] {
            return rt::validate_schedule(file.tasks, file.platform,
                                         *oracle.schedule);
          });
          if (!checked.ok()) out.fail("flow witness failed validation");
        }
      }
      if (core::decisive(report.verdict, report.complete)) {
        insert([&] {
          cache.insert(key, report.verdict, report.complete,
                       report.decided_by);
          return 0;
        });
      }
    }
  };

  const auto replay = [&](std::size_t k) {
    const std::string payload = solve_payload(traffic[k].text);
    ++requests;
    std::string response_payload;
    if (k % 2 == 0) layer_calls(payload);
    response_payload = handle([&] { return service.handle(payload); });
    if (k % 2 == 1) layer_calls(payload);
    const serve::Message response = serve::parse_message(response_payload);
    wire_format([&] { return serve::format_message(response); });
    const serve::SolveResult result = serve::parse_solve_response(response);
    if (!result.ok) {
      ++out.failed;
    } else if (core::decisive(result.verdict, result.complete) &&
               result.verdict != truth[k]) {
      out.fail("service said " + std::string(core::to_string(result.verdict)) +
               " for request " + std::to_string(k) + ", flow oracle says " +
               core::to_string(truth[k]));
    }
  };

  if (hit) {
    // Every pass is identical, so repeating passes until the time is up
    // keeps the counts exact.
    const auto start = Clock::now();
    do {
      for (std::size_t k = 0; k < traffic.size(); ++k) replay(k);
    } while (seconds_since(start) < options.seconds);
  } else {
    for (std::size_t k = 0; k < traffic.size(); ++k) replay(k);
  }

  const double n = static_cast<double>(requests);
  layers.wire_parse_us = wire_parse.mean_us();
  layers.wire_format_us = wire_format.mean_us();
  layers.handle_us = handle.mean_us();
  layers.unattributed_us =
      (handle.total_us - wire_parse.total_us - instance_parse.total_us -
       canonical.total_us - lookup.total_us - insert.total_us -
       solve.total_us - wire_format.total_us) /
      n;
  layers.cache_lookup_us = lookup.mean_us();
  layers.cache_insert_us = insert.mean_us();
  layers.cache_hit_ratio = ratio(static_cast<double>(hits), n);
  layers.instance_parse_us = instance_parse.mean_us();
  layers.canonical_key_us = canonical.mean_us();
  layers.solve_us_p50 = quantile(solve.each_us, 0.50);
  layers.solve_us_p99 = quantile(solve.each_us, 0.99);
  layers.quick_decide_us = quick.mean_us();
  layers.analysis_decided_ratio =
      ratio(static_cast<double>(analysis_decided), static_cast<double>(solves));
  layers.flow_us_p50 = quantile(flow_span.each_us, 0.50);
  layers.flow_us_p99 = quantile(flow_span.each_us, 0.99);
  layers.flow_decided_ratio =
      ratio(static_cast<double>(flow_decided), static_cast<double>(solves));
  layers.flow_jobs = ratio(static_cast<double>(jobs),
                           static_cast<double>(flow_span.calls));
  layers.flow_slots = ratio(static_cast<double>(slots),
                            static_cast<double>(flow_span.calls));
  layers.flow_handle_share = ratio(flow_span.total_us, handle.total_us);
  layers.validate_us = validate.mean_us();
  layers.emit(out);

  out.attempted = std::max<std::int64_t>(requests, 1);
  if (out.failed > 0) out.fail("error responses in the traced replay");
  out.properties.emplace_back("cache_hit_share", layers.cache_hit_ratio);
  out.properties.emplace_back("decided_by.analysis",
                              ratio(static_cast<double>(analysis_decided), n));
  out.properties.emplace_back("decided_by.flow-oracle",
                              ratio(static_cast<double>(flow_decided), n));
  out.sizes.emplace_back("requests", n);
  out.sizes.emplace_back("distinct_instances",
                         static_cast<double>(hit ? pool.size()
                                                 : traffic.size()));
  return out;
}

Outcome trace_fleet(const Options& options) {
  const Sizes& sizes = options.sizes;
  Outcome out;
  Layers layers;
  const std::vector<std::string> specs(std::begin(kFleetSpecs),
                                       std::end(kFleetSpecs));
  const auto batches = std::max<std::size_t>(
      1, static_cast<std::size_t>(sizes.trace_fleet_batches_per_second *
                                      options.seconds +
                                  0.5));
  const gen::GeneratorOptions generator = table1_options();

  // The real fleet once over the same batches, for its straggler and
  // exactly-once counters and as the reference the replay must equal.
  std::vector<exp::InstanceRecord> fleet_records;
  {
    const auto workers = start_workers(options, "trace-workerd");
    layers.ping_rtt_us = ping_rtt_us(workers[0]->socket(), sizes.trace_pings);
    const dist::FleetOptions fleet = fleet_options(workers, sizes);
    for (std::size_t b = 0; b < batches; ++b) {
      dist::FleetStats stats;
      exp::BatchResult result = exp::run_batch_sharded(
          fleet_batch(options.seed, b, sizes.fleet_batch), specs,
          kFleetTimeLimitMs, fleet, &stats);
      layers.redispatched += stats.redispatched;
      layers.duplicate_rows += static_cast<double>(stats.duplicate_rows);
      for (exp::InstanceRecord& record : result.instances) {
        fleet_records.push_back(std::move(record));
      }
    }
    for (auto& worker : workers) worker->shutdown();
  }
  if (layers.duplicate_rows != 0) out.fail("duplicate rows merged");

  Span shard_exec, encode, wire_format, wire_parse, decode;
  Span build, search, dedicated;
  std::int64_t generic_runs = 0, generic_nodes = 0, prop_runs = 0;
  std::int64_t prunes = 0, nogoods = 0, backjumps = 0, lits_minimized = 0;
  std::int64_t dmc_runs = 0, dmc_nodes = 0;
  std::vector<std::uint64_t> all_indices;
  std::vector<exp::InstanceRecord> local_records;

  for (std::size_t b = 0; b < batches; ++b) {
    const std::vector<std::uint64_t> indices =
        fleet_indices(b, sizes.fleet_batch);
    all_indices.insert(all_indices.end(), indices.begin(), indices.end());

    // The dist layer: the shard executor and the row codec.
    const auto plans = dist::plan_shards(indices, 2);
    for (std::size_t p = 0; p < plans.size(); ++p) {
      serve::ShardRequest request;
      request.shard_id = "s" + std::to_string(p);
      request.generator = generator;
      request.seed = options.seed;
      request.specs = specs;
      request.time_limit_ms = kFleetTimeLimitMs;
      request.max_nodes = sizes.fleet_max_nodes;
      request.indices = plans[p];
      const dist::ShardExecution execution = shard_exec(
          [&] { return dist::execute_shard(request, support::CancelToken()); });
      for (const exp::InstanceRecord& record : execution.rows) {
        const serve::Message message = encode([&] {
          return serve::encode_shard_row({request.shard_id, record});
        });
        const std::string payload =
            wire_format([&] { return serve::format_message(message); });
        const serve::Message parsed =
            wire_parse([&] { return serve::parse_message(payload); });
        const serve::ShardRow row =
            decode([&] { return serve::parse_shard_row(parsed); });
        if (row.record.index != record.index ||
            row.record.runs.size() != record.runs.size()) {
          out.fail("shard row codec round trip changed a record");
        }
        local_records.push_back(record);
      }
    }

    // The search layers, call by call, on the same runs.
    for (const std::uint64_t index : indices) {
      const gen::Instance inst =
          gen::generate_indexed(generator, options.seed, index);
      const rt::Platform platform = rt::Platform::identical(inst.processors);

      exp::SolverSpec dmc =
          *exp::spec_from_name("csp2-dmc", kFleetTimeLimitMs, options.seed);
      exp::reseed_for_index(dmc.config, index);
      csp2::Options dmc_options = dmc.config.csp2;
      dmc_options.max_nodes = sizes.fleet_max_nodes;
      dmc_options.deadline = support::Deadline::after_ms(kFleetTimeLimitMs);
      const csp2::Result dmc_result = dedicated(
          [&] { return csp2::solve(inst.tasks, platform, dmc_options); });
      ++dmc_runs;
      dmc_nodes += dmc_result.stats.nodes;

      exp::SolverSpec learn =
          *exp::spec_from_name("csp2g-learn", kFleetTimeLimitMs, options.seed);
      exp::reseed_for_index(learn.config, index);
      const enc::Csp2GenericModel model = build([&] {
        return enc::build_csp2_generic(inst.tasks, platform,
                                       learn.config.csp2_generic,
                                       learn.config.limits);
      });
      csp::SearchOptions search_options = learn.config.generic;
      search_options.max_nodes = sizes.fleet_max_nodes;
      search_options.deadline = support::Deadline::after_ms(kFleetTimeLimitMs);
      const csp::SolveOutcome outcome =
          search([&] { return model.solver->solve(search_options); });
      ++generic_runs;
      generic_nodes += outcome.stats.nodes;
      for (const csp::PropagatorProfile& row : outcome.stats.propagators) {
        prop_runs += row.runs;
        prunes += row.prunes;
      }
      nogoods += outcome.stats.nogoods_recorded;
      backjumps += outcome.stats.backjumps;
      lits_minimized += outcome.stats.nogood_lits_minimized;

      // Exactness: the replay walked the very trees the shards walked.
      const exp::InstanceRecord& shard_record =
          local_records[local_records.size() - indices.size() +
                        static_cast<std::size_t>(index - indices.front())];
      if (shard_record.runs[0].nodes != dmc_result.stats.nodes ||
          shard_record.runs[1].nodes != outcome.stats.nodes) {
        out.fail("replayed node counts differ from the shard's on index " +
                 std::to_string(index));
      }
    }
  }

  // The fleet's records must equal the in-process executor's, and every
  // decisive verdict must match the flow oracle.
  const std::vector<core::Verdict> truth =
      truth_for_indices(options.seed, all_indices);
  if (fleet_records.size() != local_records.size()) {
    out.fail("fleet and in-process record counts differ");
  }
  for (std::size_t k = 0; k < local_records.size(); ++k) {
    const exp::InstanceRecord& local = local_records[k];
    for (std::size_t s = 0; s < local.runs.size(); ++s) {
      const exp::RunRecord& run = local.runs[s];
      if (k < fleet_records.size() &&
          (fleet_records[k].runs[s].nodes != run.nodes ||
           fleet_records[k].runs[s].verdict != run.verdict)) {
        out.fail("fleet record differs from the in-process executor's");
      }
      if (core::decisive(run.verdict, run.complete) && run.verdict != truth[k]) {
        out.fail(specs[s] + " said " + core::to_string(run.verdict) +
                 " on index " + std::to_string(local.index) +
                 ", flow oracle says " + core::to_string(truth[k]));
      }
    }
  }

  const double runs = static_cast<double>(generic_runs);
  layers.wire_parse_us = wire_parse.mean_us();
  layers.wire_format_us = wire_format.mean_us();
  layers.build_us = build.mean_us();
  layers.search_s = search.mean_us() * 1e-6;
  layers.csp_nodes_per_s = ratio(static_cast<double>(generic_nodes),
                                 search.total_us * 1e-6);
  layers.csp_nodes = ratio(static_cast<double>(generic_nodes), runs);
  layers.runs_per_node = ratio(static_cast<double>(prop_runs),
                               static_cast<double>(generic_nodes));
  layers.prunes_per_run =
      ratio(static_cast<double>(prunes), static_cast<double>(prop_runs));
  layers.nogoods_recorded = ratio(static_cast<double>(nogoods), runs);
  layers.backjumps = ratio(static_cast<double>(backjumps), runs);
  layers.lits_minimized = ratio(static_cast<double>(lits_minimized), runs);
  layers.search_share = ratio(search.total_us, shard_exec.total_us);
  layers.csp2_nodes_per_s = ratio(static_cast<double>(dmc_nodes),
                                  dedicated.total_us * 1e-6);
  layers.csp2_nodes = ratio(static_cast<double>(dmc_nodes),
                            static_cast<double>(dmc_runs));
  layers.shard_exec_s = shard_exec.mean_us() * 1e-6;
  layers.codec_row_us =
      ratio(encode.total_us + wire_format.total_us + wire_parse.total_us +
                decode.total_us,
            static_cast<double>(encode.calls));
  layers.emit(out);

  out.attempted =
      std::max<std::int64_t>(static_cast<std::int64_t>(2 * all_indices.size()), 1);
  out.sizes.emplace_back("batches", static_cast<double>(batches));
  out.sizes.emplace_back("instances", static_cast<double>(all_indices.size()));
  out.sizes.emplace_back("max_nodes",
                         static_cast<double>(sizes.fleet_max_nodes));
  return out;
}

}  // namespace perfbench
