// Distributed batch layer (DESIGN.md §16): shard codec round-trips, the
// spec registry, the shard planner, and the merge-determinism contract —
// a sharded batch (workerless or over real worker daemons, any worker
// count, adversarial shard boundaries) produces records identical to a
// single-box exp::run_batch on every field except wall-clock seconds.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "csp2/csp2.hpp"
#include "dist/coord.hpp"
#include "dist/shard_exec.hpp"
#include "dist/worker.hpp"
#include "exp/harness.hpp"
#include "exp/sharded.hpp"
#include "serve/server.hpp"
#include "serve/shard.hpp"
#include "serve/wire.hpp"
#include "support/error.hpp"

namespace mgrts::dist {
namespace {

std::string test_socket_path(const char* tag) {
  return "/tmp/mgrts_dist_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

// ------------------------------------------------------------ shard codec

serve::ShardRequest sample_request() {
  serve::ShardRequest request;
  request.shard_id = "s3/a2";
  request.generator.tasks = 9;
  request.generator.processors = 4;
  request.generator.t_max = 6;
  request.generator.rule = gen::ProcessorRule::kUniform;
  request.generator.order = gen::ParamOrder::kCdt;
  request.generator.with_offsets = true;
  request.seed = 20090911;
  request.specs = {"csp2-dmc", "csp1"};
  request.time_limit_ms = 750;
  request.max_nodes = 12'345;
  request.max_variables = 777;
  request.max_attempts = 2;
  request.indices = {0, 7, 8, 9, 42};
  return request;
}

TEST(ShardCodec, RequestRoundTripsEveryField) {
  const serve::ShardRequest request = sample_request();
  const serve::ShardRequest parsed = serve::parse_shard_request(
      serve::parse_message(serve::format_message(
          serve::encode_shard_request(request))));
  EXPECT_EQ(parsed.shard_id, request.shard_id);
  EXPECT_EQ(parsed.generator.tasks, request.generator.tasks);
  EXPECT_EQ(parsed.generator.processors, request.generator.processors);
  EXPECT_EQ(parsed.generator.t_max, request.generator.t_max);
  EXPECT_EQ(parsed.generator.rule, request.generator.rule);
  EXPECT_EQ(parsed.generator.order, request.generator.order);
  EXPECT_EQ(parsed.generator.with_offsets, request.generator.with_offsets);
  EXPECT_EQ(parsed.seed, request.seed);
  EXPECT_EQ(parsed.specs, request.specs);
  EXPECT_EQ(parsed.time_limit_ms, request.time_limit_ms);
  EXPECT_EQ(parsed.max_nodes, request.max_nodes);
  EXPECT_EQ(parsed.max_variables, request.max_variables);
  EXPECT_EQ(parsed.max_attempts, request.max_attempts);
  EXPECT_EQ(parsed.indices, request.indices);
}

TEST(ShardCodec, RowRoundTripsTheFullRunRecordSurface) {
  serve::ShardRow row;
  row.shard_id = "s0/a1";
  row.record.index = 17;
  row.record.tasks = 9;
  row.record.processors = 4;
  row.record.hyperperiod = 2'520;
  row.record.ratio = 0.87500000000000011;  // not representable in short form
  row.record.exceeds_capacity = false;

  exp::RunRecord decided;
  decided.verdict = core::Verdict::kFeasible;
  decided.seconds = 0.04150390625;
  decided.witness_ok = true;
  decided.complete = true;
  decided.nodes = 1'234;
  decided.decided_by = "backend: csp2 generic (D-C)";
  decided.nogoods.recorded = 11;
  decided.nogoods.replay_hits = 3;
  decided.nogoods.lits_before = 40;
  decided.nogoods.lits_after = 25;
  decided.nogoods.backjumps = 5;
  decided.nogoods.backjump_levels_saved = 12;
  decided.nogoods.lits_minimized = 7;
  decided.propagators.push_back(
      csp::PropagatorProfile{"all-different matching", 10, 8, 6, 0.25});
  decided.propagators.push_back(
      csp::PropagatorProfile{"demand table", 4, 4, 0, 0.0});

  exp::RunRecord overrun;  // empty decided_by, a failure cause, no stats
  overrun.verdict = core::Verdict::kUnknown;
  overrun.complete = false;
  overrun.failure_cause = core::FailureCause::kMemory;

  row.record.runs = {decided, overrun};

  const serve::ShardRow parsed = serve::parse_shard_row(
      serve::parse_message(serve::format_message(serve::encode_shard_row(row))));
  EXPECT_EQ(parsed.shard_id, row.shard_id);
  EXPECT_EQ(parsed.record.index, row.record.index);
  EXPECT_EQ(parsed.record.tasks, row.record.tasks);
  EXPECT_EQ(parsed.record.processors, row.record.processors);
  EXPECT_EQ(parsed.record.hyperperiod, row.record.hyperperiod);
  EXPECT_EQ(parsed.record.ratio, row.record.ratio);  // %.17g: bit-exact
  EXPECT_EQ(parsed.record.exceeds_capacity, row.record.exceeds_capacity);
  ASSERT_EQ(parsed.record.runs.size(), 2u);

  const exp::RunRecord& d = parsed.record.runs[0];
  EXPECT_EQ(d.verdict, decided.verdict);
  EXPECT_EQ(d.seconds, decided.seconds);
  EXPECT_EQ(d.witness_ok, decided.witness_ok);
  EXPECT_EQ(d.complete, decided.complete);
  EXPECT_EQ(d.nodes, decided.nodes);
  EXPECT_EQ(d.decided_by, decided.decided_by);  // spaces survive
  EXPECT_EQ(d.failure_cause, core::FailureCause::kNone);
  EXPECT_EQ(d.nogoods.recorded, decided.nogoods.recorded);
  EXPECT_EQ(d.nogoods.replay_hits, decided.nogoods.replay_hits);
  EXPECT_EQ(d.nogoods.lits_before, decided.nogoods.lits_before);
  EXPECT_EQ(d.nogoods.lits_after, decided.nogoods.lits_after);
  EXPECT_EQ(d.nogoods.backjumps, decided.nogoods.backjumps);
  EXPECT_EQ(d.nogoods.backjump_levels_saved,
            decided.nogoods.backjump_levels_saved);
  EXPECT_EQ(d.nogoods.lits_minimized, decided.nogoods.lits_minimized);
  ASSERT_EQ(d.propagators.size(), 2u);
  EXPECT_EQ(d.propagators[0].name, "all-different matching");
  EXPECT_EQ(d.propagators[0].wakes, 10);
  EXPECT_EQ(d.propagators[0].runs, 8);
  EXPECT_EQ(d.propagators[0].prunes, 6);
  EXPECT_EQ(d.propagators[0].seconds, 0.25);
  EXPECT_EQ(d.propagators[1].name, "demand table");

  const exp::RunRecord& o = parsed.record.runs[1];
  EXPECT_EQ(o.verdict, core::Verdict::kUnknown);
  EXPECT_FALSE(o.complete);
  EXPECT_TRUE(o.decided_by.empty());
  EXPECT_EQ(o.failure_cause, core::FailureCause::kMemory);
  EXPECT_EQ(o.nogoods.recorded, 0);
  EXPECT_TRUE(o.propagators.empty());
}

TEST(ShardCodec, NogoodLineKeepsItsWireOrder) {
  // Nine distinct counters, set by name: a reordered counter list moves a
  // number on the ng line.
  exp::RunRecord run;
  run.verdict = core::Verdict::kNodeLimit;
  run.nogoods.recorded = 1;
  run.nogoods.replay_hits = 2;
  run.nogoods.lits_before = 3;
  run.nogoods.lits_after = 4;
  run.nogoods.subsumed = 5;
  run.nogoods.lbd_refreshed = 6;
  run.nogoods.backjumps = 7;
  run.nogoods.backjump_levels_saved = 8;
  run.nogoods.lits_minimized = 9;
  serve::ShardRow row;
  row.shard_id = "s0";
  row.record.runs = {run};

  const serve::Message encoded = serve::encode_shard_row(row);
  EXPECT_NE(encoded.body.find("\nng 1 2 3 4 5 6 7 8 9\n"),
            std::string::npos)
      << encoded.body;
  const serve::ShardRow parsed = serve::parse_shard_row(encoded);
  ASSERT_EQ(parsed.record.runs.size(), 1u);
  EXPECT_EQ(parsed.record.runs[0].nogoods, run.nogoods);

  core::NogoodStats sum = run.nogoods;
  sum += run.nogoods;
  EXPECT_EQ(sum.recorded, 2);
  EXPECT_EQ(sum.replay_hits, 4);
  EXPECT_EQ(sum.lits_minimized, 18);
}

TEST(ShardCodec, BeatAndDoneRoundTrip) {
  serve::ShardBeat beat;
  beat.shard_id = "s1/a3";
  beat.beat = 987'654'321;
  beat.done = 3;
  beat.total = 8;
  const serve::ShardBeat b = serve::parse_shard_beat(
      serve::parse_message(serve::format_message(serve::encode_shard_beat(beat))));
  EXPECT_EQ(b.shard_id, beat.shard_id);
  EXPECT_EQ(b.beat, beat.beat);
  EXPECT_EQ(b.done, beat.done);
  EXPECT_EQ(b.total, beat.total);

  serve::ShardDone done;
  done.shard_id = "s1/a3";
  done.rows = 8;
  done.health.failures = 2;
  done.health.retries = 3;
  done.health.recovered = 1;
  done.health.quarantined = 1;
  done.health.first_error = "resource: variable budget exceeded";
  const serve::ShardDone d = serve::parse_shard_done(
      serve::parse_message(serve::format_message(serve::encode_shard_done(done))));
  EXPECT_EQ(d.shard_id, done.shard_id);
  EXPECT_EQ(d.rows, done.rows);
  EXPECT_EQ(d.health.failures, done.health.failures);
  EXPECT_EQ(d.health.retries, done.health.retries);
  EXPECT_EQ(d.health.recovered, done.health.recovered);
  EXPECT_EQ(d.health.quarantined, done.health.quarantined);
  EXPECT_EQ(d.health.first_error, done.health.first_error);
}

TEST(ShardCodec, MalformedFramesRefuseExactly) {
  // Wrong kind.
  serve::Message wrong = serve::encode_shard_beat(serve::ShardBeat{});
  EXPECT_THROW((void)serve::parse_shard_request(wrong), serve::ProtocolError);

  // Missing a required header.
  serve::Message request = serve::encode_shard_request(sample_request());
  request.headers.erase(
      std::remove_if(request.headers.begin(), request.headers.end(),
                     [](const auto& kv) { return kv.first == "gen-tasks"; }),
      request.headers.end());
  EXPECT_THROW((void)serve::parse_shard_request(request), serve::ProtocolError);

  const auto rewrite = [](serve::Message& msg, const std::string& key,
                          const std::string& value) {
    for (auto& kv : msg.headers) {
      if (kv.first == key) kv.second = value;
    }
  };

  // Non-numeric where an integer is required.
  serve::Message beat = serve::encode_shard_beat(serve::ShardBeat{});
  rewrite(beat, "beat", "soon");
  EXPECT_THROW((void)serve::parse_shard_beat(beat), serve::ProtocolError);

  // Unknown enum token.
  serve::Message rule = serve::encode_shard_request(sample_request());
  rewrite(rule, "gen-rule", "harmonic");
  EXPECT_THROW((void)serve::parse_shard_request(rule), serve::ProtocolError);

  // A row whose body line is cut mid-run.
  serve::Message row = serve::encode_shard_row([] {
    serve::ShardRow r;
    r.shard_id = "s0/a1";
    r.record.runs.emplace_back();
    return r;
  }());
  row.body = row.body.substr(0, row.body.find(' ') + 2);
  EXPECT_THROW((void)serve::parse_shard_row(row), serve::ProtocolError);
}

// ----------------------------------------------------------- spec registry

TEST(SpecRegistry, EveryKnownNameResolvesAndUnknownRefuses) {
  const std::vector<std::string> names = exp::known_spec_names();
  EXPECT_GE(names.size(), 9u);
  for (const std::string& name : names) {
    const auto spec = exp::spec_from_name(name, 500);
    ASSERT_TRUE(spec.has_value()) << name;
    EXPECT_FALSE(spec->label.empty()) << name;
    EXPECT_EQ(spec->config.time_limit_ms, 500) << name;
  }
  EXPECT_FALSE(exp::spec_from_name("csp3", 500).has_value());
  EXPECT_FALSE(exp::spec_from_name("", 500).has_value());
}

TEST(SpecRegistry, NamesMatchTheLocalConstructors) {
  // The registry exists so a wire name reproduces the local spec exactly;
  // pin the two labels that the determinism tests below depend on.
  EXPECT_EQ(exp::spec_from_name("csp2-dmc", 500)->label,
            exp::csp2_spec(csp2::ValueOrder::kDMinusC, 500).label);
  EXPECT_EQ(exp::spec_from_name("pipeline", 500)->label,
            exp::pipeline_spec(500).label);
}

// ------------------------------------------------------------ shard plans

TEST(ShardPlan, ContiguousBalancedAndOrderPreserving) {
  const std::vector<std::uint64_t> indices = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  for (const std::int32_t count : {1, 2, 3, 4, 7, 10, 99}) {
    const auto shards = plan_shards(indices, count);
    EXPECT_EQ(shards.size(),
              static_cast<std::size_t>(std::min<std::int32_t>(
                  count < 1 ? 1 : count, 10)));
    std::vector<std::uint64_t> glued;
    std::size_t largest = 0, smallest = indices.size();
    for (const auto& shard : shards) {
      EXPECT_FALSE(shard.empty());
      largest = std::max(largest, shard.size());
      smallest = std::min(smallest, shard.size());
      glued.insert(glued.end(), shard.begin(), shard.end());
    }
    EXPECT_EQ(glued, indices) << "count=" << count;
    EXPECT_LE(largest - smallest, 1u) << "count=" << count;
  }
}

// ------------------------------------------------- merge determinism

/// Everything but seconds: the distributed contract is "the same record",
/// and wall-clock is the one field a different box may legitimately change.
void expect_run_equal(const exp::RunRecord& a, const exp::RunRecord& b,
                      const std::string& label) {
  EXPECT_EQ(a.verdict, b.verdict) << label;
  EXPECT_EQ(a.witness_ok, b.witness_ok) << label;
  EXPECT_EQ(a.complete, b.complete) << label;
  EXPECT_EQ(a.nodes, b.nodes) << label;
  EXPECT_EQ(a.decided_by, b.decided_by) << label;
  EXPECT_EQ(a.failure_cause, b.failure_cause) << label;
  EXPECT_EQ(a.nogoods, b.nogoods) << label;
  ASSERT_EQ(a.propagators.size(), b.propagators.size()) << label;
  for (std::size_t p = 0; p < a.propagators.size(); ++p) {
    EXPECT_EQ(a.propagators[p].name, b.propagators[p].name) << label;
    EXPECT_EQ(a.propagators[p].wakes, b.propagators[p].wakes) << label;
    EXPECT_EQ(a.propagators[p].runs, b.propagators[p].runs) << label;
    EXPECT_EQ(a.propagators[p].prunes, b.propagators[p].prunes) << label;
  }
}

void expect_batches_equal(const exp::BatchResult& a, const exp::BatchResult& b,
                          const std::string& tag) {
  ASSERT_EQ(a.labels, b.labels) << tag;
  ASSERT_EQ(a.instances.size(), b.instances.size()) << tag;
  for (std::size_t k = 0; k < a.instances.size(); ++k) {
    const exp::InstanceRecord& x = a.instances[k];
    const exp::InstanceRecord& y = b.instances[k];
    const std::string label =
        tag + ": index " + std::to_string(x.index);
    EXPECT_EQ(x.index, y.index) << label;
    EXPECT_EQ(x.tasks, y.tasks) << label;
    EXPECT_EQ(x.processors, y.processors) << label;
    EXPECT_EQ(x.hyperperiod, y.hyperperiod) << label;
    EXPECT_EQ(x.ratio, y.ratio) << label;
    EXPECT_EQ(x.exceeds_capacity, y.exceeds_capacity) << label;
    ASSERT_EQ(x.runs.size(), y.runs.size()) << label;
    for (std::size_t s = 0; s < x.runs.size(); ++s) {
      expect_run_equal(x.runs[s], y.runs[s],
                       label + " spec " + a.labels[s]);
    }
  }
}

exp::BatchOptions small_batch() {
  exp::BatchOptions options;
  options.generator.tasks = 8;
  options.generator.processors = 4;
  options.generator.t_max = 6;
  options.instances = 10;
  options.seed = 20090911;
  return options;
}

// Budget-insensitive line-up: generous wall budget, so every verdict and
// node count is a pure function of (seed, index) — comparable bit for bit.
const std::vector<std::string> kLineup = {"csp2-dmc", "csp2-rm"};
constexpr std::int64_t kTimeLimitMs = 20'000;

TEST(MergeDeterminism, WorkerlessShardedEqualsRunBatch) {
  const exp::BatchOptions options = small_batch();
  std::vector<exp::SolverSpec> specs;
  for (const std::string& name : kLineup) {
    specs.push_back(*exp::spec_from_name(name, kTimeLimitMs, options.seed));
  }
  const exp::BatchResult truth = exp::run_batch(options, specs);

  for (const std::int32_t shard_count : {1, 3, 10}) {
    FleetOptions fleet;  // no workers: in-process reference path
    fleet.shards = shard_count;
    FleetStats stats;
    const exp::BatchResult sharded =
        exp::run_batch_sharded(options, kLineup, kTimeLimitMs, fleet, &stats);
    EXPECT_EQ(stats.shards, std::min<std::int32_t>(shard_count, 10));
    EXPECT_EQ(stats.duplicate_rows, 0);
    expect_batches_equal(sharded, truth,
                         "shards=" + std::to_string(shard_count));
  }
}

TEST(MergeDeterminism, ExplicitIndexListsSurviveSharding) {
  // A residue-style index list: non-contiguous, unsorted order is the
  // batch's order and must be the merge's order too.
  exp::BatchOptions options = small_batch();
  options.indices = {9, 0, 4, 7, 2};
  std::vector<exp::SolverSpec> specs;
  for (const std::string& name : kLineup) {
    specs.push_back(*exp::spec_from_name(name, kTimeLimitMs, options.seed));
  }
  const exp::BatchResult truth = exp::run_batch(options, specs);

  FleetOptions fleet;
  fleet.shards = 2;
  const exp::BatchResult sharded =
      exp::run_batch_sharded(options, kLineup, kTimeLimitMs, fleet, nullptr);
  expect_batches_equal(sharded, truth, "explicit indices");
  ASSERT_EQ(sharded.instances.size(), 5u);
  EXPECT_EQ(sharded.instances.front().index, 9u);
  EXPECT_EQ(sharded.instances.back().index, 2u);
}

TEST(MergeDeterminism, DuplicateIndicesRefuse) {
  exp::BatchOptions options = small_batch();
  options.indices = {1, 2, 1};
  EXPECT_THROW((void)exp::run_batch_sharded(options, kLineup, kTimeLimitMs,
                                            FleetOptions{}, nullptr),
               ValidationError);
}

TEST(MergeDeterminism, UnknownSpecNameRefuses) {
  EXPECT_THROW((void)exp::run_batch_sharded(small_batch(), {"csp3"},
                                            kTimeLimitMs, FleetOptions{},
                                            nullptr),
               ValidationError);
}

class WorkerFleet {
 public:
  explicit WorkerFleet(int count, const char* tag) {
    for (int w = 0; w < count; ++w) {
      serve::ServerOptions options;
      options.socket_path =
          test_socket_path((std::string(tag) + std::to_string(w)).c_str());
      workers_.push_back(std::make_unique<serve::Server>(options));
      add_shard_route(*workers_.back(), /*beat_interval_ms=*/20);
      workers_.back()->start();
      sockets_.push_back(options.socket_path);
    }
  }
  ~WorkerFleet() {
    for (auto& worker : workers_) worker->stop();
  }
  [[nodiscard]] const std::vector<std::string>& sockets() const {
    return sockets_;
  }

 private:
  std::vector<std::unique_ptr<serve::Server>> workers_;
  std::vector<std::string> sockets_;
};

TEST(MergeDeterminism, FleetsOfOneTwoAndFourWorkersMatchSingleBox) {
  const exp::BatchOptions options = small_batch();
  const exp::BatchResult truth = exp::run_batch_sharded(
      options, kLineup, kTimeLimitMs, FleetOptions{}, nullptr);

  for (const int worker_count : {1, 2, 4}) {
    WorkerFleet fleet_procs(worker_count, "fleet");
    FleetOptions fleet;
    fleet.workers = fleet_procs.sockets();
    // Adversarial boundary: more shards than indices-per-worker divides
    // evenly, so slices of size 2 and 1 both occur.
    fleet.shards = 7;
    FleetStats stats;
    const exp::BatchResult sharded =
        exp::run_batch_sharded(options, kLineup, kTimeLimitMs, fleet, &stats);
    EXPECT_EQ(stats.duplicate_rows, 0) << worker_count;
    EXPECT_EQ(stats.local_fallbacks, 0) << worker_count;
    expect_batches_equal(sharded, truth,
                         "workers=" + std::to_string(worker_count));
  }
}

TEST(MergeDeterminism, QuarantineCausesSurviveTheWire) {
  // A variable budget every run blows at encode time (the generic-engine
  // encodings enforce SolverLimits::max_variables; the CSP1 model needs
  // far more than 8): each ResourceError is contained to (kMemoryLimit,
  // kMemory) by core::solve_batch on the worker, retried once
  // (max_attempts=2), quarantined, and the cause plus the health counters
  // must arrive in the merged result exactly as the in-process path
  // produces them.
  const exp::BatchOptions options = [] {
    exp::BatchOptions o = small_batch();
    o.instances = 4;
    return o;
  }();
  FleetOptions pinched;
  pinched.max_variables = 8;  // far below any schedule table
  pinched.max_attempts = 2;
  FleetStats local_stats;
  const exp::BatchResult truth = exp::run_batch_sharded(
      options, {"csp1"}, kTimeLimitMs, pinched, &local_stats);

  WorkerFleet fleet_procs(2, "quar");
  FleetOptions fleet = pinched;
  fleet.workers = fleet_procs.sockets();
  FleetStats stats;
  const exp::BatchResult sharded =
      exp::run_batch_sharded(options, {"csp1"}, kTimeLimitMs, fleet, &stats);

  expect_batches_equal(sharded, truth, "quarantine");
  for (const exp::InstanceRecord& inst : sharded.instances) {
    ASSERT_EQ(inst.runs.size(), 1u);
    EXPECT_EQ(inst.runs[0].verdict, core::Verdict::kMemoryLimit);
    EXPECT_EQ(inst.runs[0].failure_cause, core::FailureCause::kMemory);
  }
  EXPECT_EQ(sharded.health.failures, truth.health.failures);
  EXPECT_EQ(sharded.health.retries, truth.health.retries);
  EXPECT_EQ(sharded.health.quarantined, truth.health.quarantined);
  EXPECT_GT(sharded.health.quarantined, 0);
  EXPECT_FALSE(sharded.health.first_error.empty());
}

// The shard-done trailer leaves as soon as the last row does: the end of
// the shard wakes the beat thread, so a long beat interval never holds the
// trailer back until the next tick.
TEST(Worker, ShardEndDoesNotWaitForTheNextBeatTick) {
  serve::ServerOptions options;
  options.socket_path = test_socket_path("beat");
  serve::Server worker(options);
  const auto counters = add_shard_route(worker, /*beat_interval_ms=*/2'000);
  worker.start();

  exp::BatchOptions batch = small_batch();
  batch.indices = {0};
  FleetOptions fleet;
  fleet.workers = {options.socket_path};
  FleetStats stats;
  const auto start = std::chrono::steady_clock::now();
  const exp::BatchResult result = exp::run_batch_sharded(
      batch, {"csp2-dmc"}, kTimeLimitMs, fleet, &stats);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  worker.stop();

  ASSERT_EQ(result.instances.size(), 1u);
  EXPECT_EQ(stats.local_fallbacks, 0);
  EXPECT_EQ(counters->rows.load(), 1);
  EXPECT_LT(elapsed, std::chrono::milliseconds(1'000));
}

TEST(Executor, CancelStopsAtTheNextIndexBoundary) {
  serve::ShardRequest request;
  request.shard_id = "s0/a1";
  request.generator = small_batch().generator;
  request.seed = small_batch().seed;
  request.specs = {"csp2-dmc"};
  request.time_limit_ms = kTimeLimitMs;
  request.indices = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};

  auto cancel = support::CancelToken::make();
  int rows_seen = 0;
  const ShardExecution partial = execute_shard(
      request, cancel, nullptr, [&](const exp::InstanceRecord&) {
        if (++rows_seen == 3) cancel.cancel();
      });
  EXPECT_EQ(partial.rows.size(), 3u);  // stopped well short of 10
}

}  // namespace
}  // namespace mgrts::dist
