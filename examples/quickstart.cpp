// Quickstart: the paper's running Example 1 end to end.
//
//   * build a periodic task system (O_i, C_i, D_i, T_i),
//   * inspect its availability windows (Figure 1),
//   * solve through the staged presolve->backend pipeline (the default
//     facade path) and read the `decided_by` provenance,
//   * reproduce the paper's own routes — dedicated CSP2 search (§V) and
//     CSP1 on the generic engine (§IV) — with presolve disabled,
//   * print and validate the cyclic schedule witness.
//
//   * run a small fault-contained batch (core::solve_batch) and read the
//     BatchHealth counters,
//   * serve the same instance through the in-process serving layer
//     (serve::Service) and watch the canonicalized verdict cache answer a
//     permuted duplicate with provenance,
//   * fan a generated batch across a one-worker shard fleet
//     (exp::run_batch_sharded over a serve::Server with the shard route)
//     and check the merged records against the workerless reference run.
//
// Build & run:  ./quickstart   (also wired into ctest as a smoke test; the
// exit code asserts the printed provenance)
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/instance_io.hpp"
#include "core/solve.hpp"
#include "dist/worker.hpp"
#include "exp/sharded.hpp"
#include "rt/gantt.hpp"
#include "rt/validate.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

int main() {
  using namespace mgrts;

  // Example 1 (§II): m=2 processors, tasks as (offset, wcet, deadline,
  // period).  tau2 is released one unit late, so its last window of every
  // hyperperiod wraps around T = lcm(2,4,3) = 12.
  const rt::TaskSet tasks = rt::TaskSet::from_params({
      {0, 1, 2, 2},  // tau1
      {1, 3, 4, 4},  // tau2
      {0, 2, 2, 3},  // tau3
  });
  const rt::Platform platform = rt::Platform::identical(2);

  std::printf("== instance ==\n");
  std::printf("hyperperiod T = %lld, utilization U = %.4f (ratio %.4f)\n\n",
              static_cast<long long>(tasks.hyperperiod()),
              tasks.utilization().to_double(), tasks.utilization_ratio(2));
  std::printf("%s\n", rt::render_windows(tasks).c_str());

  // The default facade path: presolve stages (exact analytical tests, then
  // the flow oracle) in front of the requested backend.  On an identical
  // platform the flow oracle decides Example 1 before any search starts.
  const core::SolveReport piped = core::solve_instance(tasks, platform);
  std::printf("== pipeline (default facade path) ==\n");
  std::printf("verdict: %s in %.4fs, decided by %s\n",
              core::to_string(piped.verdict), piped.seconds,
              piped.decided_by.c_str());
  for (const core::StageTiming& stage : piped.stage_times) {
    std::printf("  stage %-16s %-12s %.4fs\n", stage.stage.c_str(),
                core::to_string(stage.verdict), stage.seconds);
  }
  if (piped.schedule.has_value()) {
    std::printf("witness validated: %s\n%s\n",
                piped.witness_valid ? "yes" : "NO",
                rt::render_schedule(tasks, *piped.schedule).c_str());
  }

  // The paper's dedicated CSP2 search, (D-C) value order (the experimental
  // winner of §VII), with presolve off so the search itself answers.
  core::SolveConfig config;
  config.method = core::Method::kCsp2Dedicated;
  config.csp2.value_order = csp2::ValueOrder::kDMinusC;
  config.pipeline = core::PipelineOptions::none();
  const core::SolveReport csp2_report =
      core::solve_instance(tasks, platform, config);

  std::printf("== CSP2+(D-C), dedicated search ==\n");
  std::printf("verdict: %s in %.4fs (%lld nodes, decided by %s)\n",
              core::to_string(csp2_report.verdict), csp2_report.seconds,
              static_cast<long long>(csp2_report.nodes),
              csp2_report.decided_by.c_str());
  if (csp2_report.schedule.has_value()) {
    std::printf("witness validated: %s\n",
                csp2_report.witness_valid ? "yes" : "NO");
  }

  // Same instance through CSP1 on the generic engine (the Choco role),
  // with nogood learning on so the report's learning stats are live.
  config.method = core::Method::kCsp1Generic;
  config.generic = core::choco_like_defaults(/*seed=*/1);
  config.generic.nogoods = true;
  config.generic.prop_profile = true;  // per-propagator seconds below
  config.time_limit_ms = 5000;
  const core::SolveReport csp1_report =
      core::solve_instance(tasks, platform, config);
  std::printf("== CSP1 on the generic solver ==\n");
  std::printf("verdict: %s in %.4fs (%lld nodes, witness %s, decided by %s)\n",
              core::to_string(csp1_report.verdict), csp1_report.seconds,
              static_cast<long long>(csp1_report.nodes),
              csp1_report.witness_valid ? "valid" : "absent",
              csp1_report.decided_by.c_str());
  // Nogood learning provenance (SolveReport::nogoods): how many conflicts
  // were recorded, how far conflict analysis shrank them, how the 1-UIP
  // clauses compare against the decision-set baseline for the very same
  // conflicts, and how often the replayed clauses fired.  Pool exchanges
  // stay 0 outside portfolios.
  const core::NogoodStats& learn = csp1_report.nogoods;
  std::printf("nogoods: %lld recorded (shrink ratio %.2f), %lld replay "
              "hits, %lld subsumed, %lld LBD refreshes, %lld exported / "
              "%lld imported\n",
              static_cast<long long>(learn.recorded), learn.shrink_ratio(),
              static_cast<long long>(learn.replay_hits),
              static_cast<long long>(learn.subsumed),
              static_cast<long long>(learn.lbd_refreshed),
              static_cast<long long>(learn.exported),
              static_cast<long long>(learn.imported));
  // Per-propagator observability (SolveReport::propagators): how often each
  // propagator class's advisors asked to run (wakes), how often it actually
  // swept (runs), how many domain changes the sweeps made (prunes), and —
  // because prop_profile was set above — the wall time inside the sweeps.
  for (const csp::PropagatorProfile& row : csp1_report.propagators) {
    std::printf("propagator %-18s wakes %-8lld runs %-8lld prunes %-8lld "
                "%.4fs\n",
                row.name.c_str(), static_cast<long long>(row.wakes),
                static_cast<long long>(row.runs),
                static_cast<long long>(row.prunes), row.seconds);
  }

  // Batch route with failure containment: same instance as a one-job batch.
  // BatchPolicy retries crash-type failures with widened budgets;
  // BatchHealth reports what was contained (all zeros on this clean run).
  core::BatchPolicy policy;
  policy.workers = 1;
  policy.max_attempts = 2;
  core::BatchHealth health;
  const auto batch_reports = core::solve_batch(
      {core::BatchJob{tasks, platform, core::SolveConfig{}}}, policy, &health);
  std::printf("== batch route (core::solve_batch) ==\n");
  std::printf("verdict: %s; health: %lld failures, %lld retries, %lld "
              "recovered, %lld quarantined%s%s\n",
              core::to_string(batch_reports.front().verdict),
              static_cast<long long>(health.failures),
              static_cast<long long>(health.retries),
              static_cast<long long>(health.recovered),
              static_cast<long long>(health.quarantined),
              health.first_error.empty() ? "" : "; first error: ",
              health.first_error.c_str());

  // Serving route: the daemon's request handler, in-process (no socket).
  // The second request permutes the task order; the canonicalized verdict
  // cache recognizes it as the same schedulability instance and answers
  // from cache, provenance intact ("cache:flow-oracle").
  serve::Service service;
  const std::string original = core::write_instance_string(tasks, platform);
  serve::Message request;
  request.kind = "solve";
  request.body = original;
  const serve::Message first = service.handle_message(request);
  const rt::TaskSet permuted = rt::TaskSet::from_params({
      {0, 2, 2, 3},  // tau3 first
      {0, 1, 2, 2},  // tau1
      {1, 3, 4, 4},  // tau2
  });
  request.body = core::write_instance_string(permuted, platform);
  const serve::Message second = service.handle_message(request);
  std::printf("== serving route (serve::Service) ==\n");
  std::printf("first:  %s, decided by %s\n",
              first.get("verdict").value_or("?").c_str(),
              first.get("decided-by").value_or("?").c_str());
  std::printf("second (permuted): %s, decided by %s\n",
              second.get("verdict").value_or("?").c_str(),
              second.get("decided-by").value_or("?").c_str());

  // Distributed shard route (DESIGN.md §16): a generated batch fanned
  // across a fleet — here one in-process worker on an AF_UNIX socket.
  // Shards name their specs through the registry and carry per-index
  // seeds, so the merged result is record-identical to the workerless
  // reference run of the same options (the single-box truth).
  exp::BatchOptions batch_options;
  batch_options.generator.tasks = 6;
  batch_options.generator.processors = 3;
  batch_options.generator.t_max = 5;
  batch_options.instances = 6;
  const std::vector<std::string> lineup = {"csp2-dmc"};
  const exp::BatchResult reference =
      exp::run_batch_sharded(batch_options, lineup, /*time_limit_ms=*/5000);

  serve::ServerOptions worker_options;
  worker_options.socket_path =
      "/tmp/mgrts_quickstart_" + std::to_string(::getpid()) + ".sock";
  serve::Server worker(worker_options);
  dist::add_shard_route(worker);
  worker.start();
  dist::FleetOptions fleet;
  fleet.workers = {worker_options.socket_path};
  fleet.shards = 2;
  dist::FleetStats fleet_stats;
  const exp::BatchResult sharded = exp::run_batch_sharded(
      batch_options, lineup, /*time_limit_ms=*/5000, fleet, &fleet_stats);
  worker.stop();

  bool sharded_ok = sharded.instances.size() == reference.instances.size() &&
                    fleet_stats.duplicate_rows == 0;
  std::size_t sharded_feasible = 0;
  for (std::size_t k = 0; sharded_ok && k < sharded.instances.size(); ++k) {
    const exp::InstanceRecord& got = sharded.instances[k];
    const exp::InstanceRecord& want = reference.instances[k];
    sharded_ok = got.index == want.index &&
                 got.runs.size() == want.runs.size();
    for (std::size_t s = 0; sharded_ok && s < got.runs.size(); ++s) {
      sharded_ok = got.runs[s].verdict == want.runs[s].verdict &&
                   got.runs[s].nodes == want.runs[s].nodes &&
                   got.runs[s].decided_by == want.runs[s].decided_by;
      if (got.runs[s].verdict == core::Verdict::kFeasible) ++sharded_feasible;
    }
  }
  std::printf("== distributed shard route (exp::run_batch_sharded) ==\n");
  std::printf("%zu instances over 1 worker / %d shards: %zu feasible, "
              "%lld rows redispatched, %lld duplicates; records %s the "
              "single-box run\n",
              sharded.instances.size(), fleet.shards, sharded_feasible,
              static_cast<long long>(fleet_stats.redispatched),
              static_cast<long long>(fleet_stats.duplicate_rows),
              sharded_ok ? "match" : "DIVERGE from");

  // Smoke assertions: the pipeline's provenance must name the flow oracle
  // (the first decisive stage here), and the paper's route must agree with
  // a validated witness of its own.
  const bool provenance_ok = piped.verdict == core::Verdict::kFeasible &&
                             piped.decided_by == "flow-oracle" &&
                             piped.witness_valid;
  const bool paper_ok = csp2_report.verdict == core::Verdict::kFeasible &&
                        csp2_report.witness_valid &&
                        csp2_report.decided_by == "backend:CSP2(dedicated)";
  const bool health_ok = health.failures == 0 && health.quarantined == 0;
  const bool serving_ok =
      first.get("cache").value_or("") == "miss" &&
      second.get("cache").value_or("") == "hit" &&
      second.get("verdict").value_or("") == "feasible" &&
      second.get("decided-by").value_or("") == "cache:flow-oracle";
  if (!provenance_ok) std::printf("FAIL: pipeline provenance unexpected\n");
  if (!paper_ok) std::printf("FAIL: dedicated CSP2 route unexpected\n");
  if (!health_ok) std::printf("FAIL: batch health not clean\n");
  if (!serving_ok) std::printf("FAIL: serving cache route unexpected\n");
  if (!sharded_ok) std::printf("FAIL: sharded batch diverged\n");
  return provenance_ok && paper_ok && health_ok && serving_ok && sharded_ok
             ? 0
             : 1;
}
