// Chaos suite for the distributed batch layer (DESIGN.md §16): the
// straggler contract under deterministic fault injection, and fleet
// behavior around dead workers.  The invariant everywhere: whatever the
// fleet suffers, the merged batch carries exactly one record per
// generator index, decided verdicts equal the fault-free truth, and the
// exactly-once counter (duplicate_rows) stays zero.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dist/coord.hpp"
#include "dist/worker.hpp"
#include "exp/harness.hpp"
#include "exp/sharded.hpp"
#include "serve/server.hpp"
#include "support/fault.hpp"

namespace mgrts::dist {
namespace {

std::string test_socket_path(const char* tag) {
  return "/tmp/mgrts_dchaos_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

exp::BatchOptions chaos_batch() {
  exp::BatchOptions options;
  options.generator.tasks = 8;
  options.generator.processors = 4;
  options.generator.t_max = 6;
  options.instances = 8;
  options.seed = 20090911;
  return options;
}

constexpr std::int64_t kTimeLimitMs = 20'000;
const std::vector<std::string> kLineup = {"csp2-dmc"};

/// One record per index, in batch order, decided verdicts matching the
/// fault-free reference run bit for bit (shard re-dispatch replays the
/// same seeds, so even node counts must agree).
void expect_exactly_once_and_sound(const exp::BatchResult& result,
                                   const exp::BatchResult& truth,
                                   const std::string& tag) {
  ASSERT_EQ(result.instances.size(), truth.instances.size()) << tag;
  for (std::size_t k = 0; k < result.instances.size(); ++k) {
    const exp::InstanceRecord& got = result.instances[k];
    const exp::InstanceRecord& want = truth.instances[k];
    const std::string label = tag + ": index " + std::to_string(want.index);
    EXPECT_EQ(got.index, want.index) << label;
    ASSERT_EQ(got.runs.size(), want.runs.size()) << label;
    for (std::size_t s = 0; s < got.runs.size(); ++s) {
      EXPECT_EQ(got.runs[s].verdict, want.runs[s].verdict) << label;
      EXPECT_EQ(got.runs[s].complete, want.runs[s].complete) << label;
      EXPECT_EQ(got.runs[s].witness_ok, want.runs[s].witness_ok) << label;
      EXPECT_EQ(got.runs[s].nodes, want.runs[s].nodes) << label;
      EXPECT_EQ(got.runs[s].decided_by, want.runs[s].decided_by) << label;
      EXPECT_EQ(got.runs[s].failure_cause, want.runs[s].failure_cause)
          << label;
    }
  }
}

class WorkerFleet {
 public:
  /// `handlers` per server sets its shards' lanes: hardware threads /
  /// handlers (dist/worker.hpp).
  WorkerFleet(int count, const char* tag, std::size_t handlers = 4) {
    for (int w = 0; w < count; ++w) {
      serve::ServerOptions options;
      options.socket_path =
          test_socket_path((std::string(tag) + std::to_string(w)).c_str());
      options.workers = handlers;
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

// ------------------------------------------------- dead-worker resilience
//
// No injector needed: a socket nobody listens on is the simplest chaos.

TEST(DistChaos, DeadWorkerAloneFallsBackAndLosesNothing) {
  const exp::BatchOptions options = chaos_batch();
  const exp::BatchResult truth = exp::run_batch_sharded(
      options, kLineup, kTimeLimitMs, FleetOptions{}, nullptr);

  FleetOptions fleet;
  fleet.workers = {test_socket_path("nobody")};  // never bound
  fleet.shards = 2;
  fleet.max_dispatch_attempts = 2;
  FleetStats stats;
  const exp::BatchResult result =
      exp::run_batch_sharded(options, kLineup, kTimeLimitMs, fleet, &stats);

  EXPECT_GT(stats.transport_failures, 0);
  EXPECT_EQ(stats.local_fallbacks, 2);
  EXPECT_EQ(stats.duplicate_rows, 0);
  expect_exactly_once_and_sound(result, truth, "dead worker");
}

TEST(DistChaos, DeadWorkerBesideALiveOneStillMergesEveryIndex) {
  const exp::BatchOptions options = chaos_batch();
  const exp::BatchResult truth = exp::run_batch_sharded(
      options, kLineup, kTimeLimitMs, FleetOptions{}, nullptr);

  WorkerFleet live(1, "live");
  FleetOptions fleet;
  fleet.workers = {test_socket_path("ghost"), live.sockets()[0]};
  fleet.shards = 4;
  FleetStats stats;
  const exp::BatchResult result =
      exp::run_batch_sharded(options, kLineup, kTimeLimitMs, fleet, &stats);

  // The ghost's claims fail fast and re-enter the queue; whether the live
  // worker or the fallback path finishes them, nothing is lost or doubled.
  EXPECT_GT(stats.transport_failures, 0);
  EXPECT_EQ(stats.duplicate_rows, 0);
  expect_exactly_once_and_sound(result, truth, "ghost+live");
}

TEST(DistChaos, ExhaustedDispatchWithFallbackDisabledThrows) {
  FleetOptions fleet;
  fleet.workers = {test_socket_path("void")};
  fleet.max_dispatch_attempts = 1;
  fleet.local_fallback = false;
  EXPECT_THROW((void)exp::run_batch_sharded(chaos_batch(), kLineup,
                                            kTimeLimitMs, fleet, nullptr),
               Error);
}

#if MGRTS_FAULT_INJECTION

// ------------------------------------------------------ injected stalls
//
// The in-process fleet shares this process's FaultInjector, so an armed
// stall plan makes the first worker thread that polls a deadline sleep in
// place — a straggler by construction.  The plan's max_faults cap bounds
// the chaos: re-dispatched shards run fault-free, so the merged batch is
// comparable to the fault-free truth bit for bit.

struct InjectorGuard {
  explicit InjectorGuard(const support::FaultPlan& plan) {
    support::FaultInjector::arm(plan);
  }
  ~InjectorGuard() { support::FaultInjector::disarm(); }
};

TEST(DistChaos, StalledShardIsCulledRedispatchedAndMergesClean) {
  const exp::BatchOptions options = chaos_batch();
  const exp::BatchResult truth = exp::run_batch_sharded(
      options, kLineup, kTimeLimitMs, FleetOptions{}, nullptr);

  WorkerFleet fleet_procs(2, "stall");
  FleetOptions fleet;
  fleet.workers = fleet_procs.sockets();
  fleet.shards = 4;
  fleet.stall_ms = 250;  // cull well inside one injected stall
  fleet.poll_interval_ms = 25;

  support::FaultPlan plan;
  plan.seed = 20090911;
  plan.rate = 1.0;  // first polls stall, deterministically
  plan.sites = support::FaultPlan::mask(support::FaultSite::kStall);
  plan.max_faults = 2;       // bounded chaos: later attempts run clean
  plan.stall_cap_ms = 3'000; // each stall dwarfs stall_ms

  FleetStats stats;
  exp::BatchResult result;
  {
    InjectorGuard guard(plan);
    result =
        exp::run_batch_sharded(options, kLineup, kTimeLimitMs, fleet, &stats);
  }

  // The straggler was culled by its frozen beat and its indices travelled
  // to a new dispatch — and not one record was lost or doubled on the way.
  EXPECT_GE(stats.stall_culls, 1);
  EXPECT_GE(stats.redispatched, 1);
  EXPECT_EQ(stats.duplicate_rows, 0);
  expect_exactly_once_and_sound(result, truth, "stall");
}

TEST(DistChaos, StalledLaneOfAOneHandlerFleetIsCulledInsideTheStall) {
  // Servers of one handler run each shard on every hardware thread, so
  // other lanes go on solving while a stalled index waits.  The beat
  // follows the shard's head of line, so a stall there still freezes it:
  // the cull cuts the stall short instead of waiting out its cap.
  const exp::BatchOptions options = chaos_batch();
  const exp::BatchResult truth = exp::run_batch_sharded(
      options, kLineup, kTimeLimitMs, FleetOptions{}, nullptr);

  WorkerFleet fleet_procs(2, "lanes", /*handlers=*/1);
  FleetOptions fleet;
  fleet.workers = fleet_procs.sockets();
  fleet.shards = 4;
  fleet.stall_ms = 250;
  fleet.poll_interval_ms = 25;

  support::FaultPlan plan;
  plan.seed = 20090911;
  plan.rate = 1.0;
  plan.sites = support::FaultPlan::mask(support::FaultSite::kStall);
  plan.max_faults = 2;
  plan.stall_cap_ms = 10'000;  // far beyond the cull, even under TSan

  FleetStats stats;
  exp::BatchResult result;
  const auto start = std::chrono::steady_clock::now();
  {
    InjectorGuard guard(plan);
    result =
        exp::run_batch_sharded(options, kLineup, kTimeLimitMs, fleet, &stats);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_GE(stats.stall_culls, 1);
  EXPECT_GE(stats.redispatched, 1);
  EXPECT_EQ(stats.duplicate_rows, 0);
  EXPECT_LT(elapsed, std::chrono::milliseconds(plan.stall_cap_ms));
  expect_exactly_once_and_sound(result, truth, "stall on many lanes");
}

#else  // MGRTS_FAULT_INJECTION

TEST(DistChaos, InjectionCompiledOut) {
  GTEST_SKIP() << "built with MGRTS_FAULT_INJECTION=0";
}

#endif  // MGRTS_FAULT_INJECTION

}  // namespace
}  // namespace mgrts::dist
