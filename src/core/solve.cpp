#include "core/solve.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <new>
#include <thread>
#include <utility>

#include "encodings/csp1.hpp"
#include "flow/oracle.hpp"
#include "rt/validate.hpp"
#include "sim/simulator.hpp"
#include "support/deadline.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace mgrts::core {

const char* to_string(Method method) {
  switch (method) {
    case Method::kCsp1Generic: return "CSP1(generic)";
    case Method::kCsp2Generic: return "CSP2(generic)";
    case Method::kCsp2Dedicated: return "CSP2(dedicated)";
    case Method::kFlowOracle: return "flow-oracle";
    case Method::kEdfSimulation: return "EDF-sim";
    case Method::kLocalSearch: return "min-conflicts";
    case Method::kPortfolio: return "CSP2-portfolio";
  }
  return "?";
}

csp::SearchOptions choco_like_defaults(std::uint64_t seed) {
  csp::SearchOptions options;
  options.var_heuristic = csp::VarHeuristic::kDomWdeg;
  options.val_heuristic = csp::ValHeuristic::kRandom;
  options.random_var_ties = true;
  options.restart = csp::RestartPolicy::kLuby;
  options.restart_scale = 128;
  options.seed = seed;
  return options;
}

namespace {

/// Variable budget of the portfolio's randomized generic lane: keeps the
/// lane from burning the whole race budget building a model it cannot
/// search.
constexpr std::int64_t kRandomLaneMaxVariables = 250'000;

/// Lifts the engine's nogood counters into the provenance shape.
NogoodStats to_nogood_stats(const csp::SolveStats& stats) {
  NogoodStats out;
  out.recorded = stats.nogoods_recorded;
  out.replay_hits = stats.nogood_props + stats.nogood_conflicts;
  out.lits_before = stats.nogood_lits_before;
  out.lits_after = stats.nogood_lits_after;
  out.subsumed = stats.nogoods_subsumed;
  out.lbd_refreshed = stats.nogood_lbd_refreshed;
  out.backjumps = stats.backjumps;
  out.backjump_levels_saved = stats.backjump_levels_saved;
  out.lits_minimized = stats.nogood_lits_minimized;
  return out;
}

/// Attributes a budget verdict to its FailureCause: wall expiry vs
/// cooperative cancellation for kTimeout, node budget, memory.  Decisive
/// verdicts and plain incomplete give-ups keep kNone.
FailureCause infer_cause(Verdict verdict, const support::Deadline& deadline) {
  switch (verdict) {
    case Verdict::kTimeout:
      return deadline.cancel_requested() ? FailureCause::kCancelled
                                         : FailureCause::kDeadline;
    case Verdict::kNodeLimit: return FailureCause::kNodeBudget;
    case Verdict::kMemoryLimit: return FailureCause::kMemory;
    default: return FailureCause::kNone;
  }
}

/// Witness validation shared by every report the spine finishes: re-checks
/// any schedule with the independent validator and flags solver bugs
/// loudly.
void validate_report(const rt::TaskSet& ts, const rt::Platform& platform,
                     SolveReport& report) {
  if (!report.schedule.has_value()) return;
  report.witness_valid = rt::is_valid_schedule(ts, platform, *report.schedule);

  // A "feasible" claim whose witness fails the validator is a solver bug;
  // surface it loudly in the detail string rather than silently trusting
  // it.
  if (report.verdict == Verdict::kFeasible && !report.witness_valid) {
    report.detail = "INVALID WITNESS: " +
                    rt::validate_schedule(ts, platform, *report.schedule)
                        .to_string();
  }
}

/// The requested search method, run to its own end.  Every arm fills a
/// fresh report, so a throw leaves nothing half-written behind.
SolveReport dispatch(const rt::TaskSet& ts, const rt::Platform& platform,
                     const SolveConfig& config,
                     const support::Deadline& deadline) {
  // Both generic-engine encodings search alike; only the model build and
  // the decode differ.
  const auto generic = [&](const auto& model, const auto& decode) {
    csp::SearchOptions options = config.generic;
    options.deadline = deadline;
    options.max_nodes = config.max_nodes;
    const csp::SolveOutcome outcome = model.solver->solve(options);
    SolveReport out;
    out.verdict = canonical_verdict(outcome.status);
    out.nodes = outcome.stats.nodes;
    out.failures = outcome.stats.failures;
    out.nogoods = to_nogood_stats(outcome.stats);
    out.propagators = outcome.stats.propagators;
    if (outcome.status == csp::SolveStatus::kSat) {
      out.schedule = decode(model, outcome.assignment);
    }
    return out;
  };
  SolveReport out;
  switch (config.method) {
    case Method::kCsp1Generic:
      return generic(enc::build_csp1(ts, platform, config.limits),
                     enc::decode_csp1);
    case Method::kCsp2Generic:
      return generic(enc::build_csp2_generic(ts, platform,
                                             config.csp2_generic,
                                             config.limits),
                     enc::decode_csp2_generic);
    case Method::kCsp2Dedicated: {
      csp2::Options options = config.csp2;
      options.deadline = deadline;
      options.max_nodes = config.max_nodes;
      csp2::Result result = csp2::solve(ts, platform, options);
      out.verdict = canonical_verdict(result.status);
      out.complete = result.search_complete;
      out.nodes = result.stats.nodes;
      out.failures = result.stats.failures;
      out.schedule = std::move(result.schedule);
      break;
    }
    case Method::kFlowOracle: {
      // Stopped by the deadline: kTimeout, whose cause run_backend infers.
      std::optional<flow::OracleResult> oracle =
          flow::decide_feasibility(ts, platform, deadline);
      if (!oracle) {
        out.verdict = Verdict::kTimeout;
        break;
      }
      out.verdict = canonical_verdict(oracle->verdict);
      out.schedule = std::move(oracle->schedule);
      break;
    }
    case Method::kLocalSearch: {
      ls::Options options = config.localsearch;
      options.deadline = deadline;
      ls::Result result = ls::solve(ts, platform, options);
      out.verdict = canonical_verdict(result.status);
      out.complete = false;  // can never prove infeasibility (§VIII)
      out.nodes = result.stats.iterations;
      out.schedule = std::move(result.schedule);
      if (out.verdict != Verdict::kFeasible) {
        out.detail = "min-conflicts gave up at cost " +
                     std::to_string(result.stats.best_cost);
      }
      break;
    }
    case Method::kPortfolio: {
      // The stages already ran in front of this backend; the lanes must
      // not repeat them, and their budget is what remains of the caller's
      // deadline, not a fresh clock.  The race's report is the answer;
      // the spine replaces its timings, wall time and clone system.
      SolveConfig inner = config;
      inner.pipeline = PipelineOptions::none();
      inner.time_limit_ms = deadline.remaining_ms();
      PortfolioReport race = solve_portfolio(ts, platform, inner);
      out = std::move(race.report);
      out.detail =
          race.winner >= 0
              ? std::string("portfolio winner: ") +
                    race.lanes[static_cast<std::size_t>(race.winner)].label
              : std::string("portfolio: no lane decided");
      break;
    }
    case Method::kEdfSimulation: {
      sim::SimOptions options;
      options.policy = sim::Policy::kEdf;
      sim::SimResult result = sim::simulate(ts, platform, options);
      out.complete = false;  // EDF is not an optimal global policy
      if (result.status == sim::SimStatus::kSchedulable) {
        out.verdict = Verdict::kFeasible;
        if (result.schedule.has_value()) {
          out.schedule = std::move(result.schedule);
        } else {
          // Schedulable with a steady state longer than one hyperperiod:
          // no compact witness to validate.
          out.detail = "schedulable; steady state period exceeds T";
        }
      } else {
        out.verdict = Verdict::kInfeasible;
        out.detail = std::string("EDF ") + sim::to_string(result.status);
      }
      break;
    }
  }
  return out;
}

/// Runs the backend behind the backend funnel (DESIGN.md §12) once no
/// stage decided.  ResourceError surfaces as kMemoryLimit (Table IV's
/// "-"), injected faults and unexpected exceptions degrade to kUnknown with
/// cause provenance; only structural ValidationError (e.g. the flow oracle
/// on a heterogeneous platform) propagates to the caller.  The backend's
/// answer, whatever it is, becomes `report`, after the stages' timings and
/// its own.
void run_backend(const rt::TaskSet& ts, const rt::Platform& platform,
                 const SolveConfig& config, const support::Deadline& deadline,
                 SolveReport& report) {
  const char* name = to_string(config.method);
  support::Stopwatch watch;
  SolveReport out;
  try {
    out = dispatch(ts, platform, config, deadline);
  } catch (const ValidationError&) {
    throw;
  } catch (const FaultInjectedError& e) {
    out.cause = FailureCause::kFaultInjected;
    out.detail = e.what();
  } catch (const ResourceError& e) {
    out.verdict = Verdict::kMemoryLimit;
    out.cause = FailureCause::kMemory;
    out.detail = e.what();
  } catch (const std::bad_alloc&) {
    out.verdict = Verdict::kMemoryLimit;
    out.cause = FailureCause::kMemory;
    out.detail = "allocation failed during model build or search";
  } catch (const std::exception& e) {
    out.cause = FailureCause::kInternalError;
    out.detail = std::string("backend threw: ") + e.what();
  }
  if (out.cause == FailureCause::kNone) {
    out.cause = infer_cause(out.verdict, deadline);
  }
  if (out.decided_by.empty()) out.decided_by = std::string("backend:") + name;
  report.stage_times.push_back(StageTiming{name, out.verdict, watch.seconds()});
  out.stage_times = std::move(report.stage_times);
  report = std::move(out);
}

support::Deadline deadline_for(const SolveConfig& config) {
  auto deadline = config.time_limit_ms < 0
                      ? support::Deadline()
                      : support::Deadline::after_ms(config.time_limit_ms);
  deadline.set_cancel(config.cancel);
  if (config.heartbeat) deadline.set_heartbeat(config.heartbeat);
  return deadline;
}

/// What solve_instance and the portfolio share around their stages: §VI-B
/// clone expansion (every downstream component expects constrained
/// deadlines), the wall budget, and, once a report stands, its clone
/// system, witness check and wall time.
struct Spine {
  Spine(const rt::TaskSet& input, const SolveConfig& config)
      : clones(input.is_constrained()
                   ? std::nullopt
                   : std::optional<rt::TaskSet>(input.to_constrained())),
        ts(clones ? *clones : input),
        deadline(deadline_for(config)) {}
  Spine(const Spine&) = delete;

  /// Ends the spine: the clone system moves into the report.
  void finish(const rt::Platform& platform, SolveReport& report) {
    validate_report(ts, platform, report);
    report.solved_tasks = std::move(clones);
    report.seconds = watch.seconds();
  }

  support::Stopwatch watch;
  std::optional<rt::TaskSet> clones;
  const rt::TaskSet& ts;
  support::Deadline deadline;
};

}  // namespace

SolveReport solve_instance(const rt::TaskSet& input,
                           const rt::Platform& platform,
                           const SolveConfig& config) {
  Spine spine(input, config);
  SolveReport report;
  if (!run_stages(spine.ts, platform, config.pipeline, spine.deadline,
                  report)) {
    run_backend(spine.ts, platform, config, spine.deadline, report);
  }
  spine.finish(platform, report);
  return report;
}

SolveReport solve_contained(const rt::TaskSet& ts,
                            const rt::Platform& platform,
                            const SolveConfig& config,
                            std::optional<std::string>* escaped) {
  support::Stopwatch watch;
  SolveReport report;
  std::string what;
  try {
    return solve_instance(ts, platform, config);
  } catch (const FaultInjectedError& e) {
    report.cause = FailureCause::kFaultInjected;
    what = e.what();
  } catch (const ResourceError& e) {
    report.cause = FailureCause::kMemory;
    what = e.what();
  } catch (const std::exception& e) {
    report.cause = FailureCause::kInternalError;
    what = e.what();
  }
  report.complete = false;
  report.detail = report.cause == FailureCause::kInternalError
                      ? "job threw: " + what
                      : what;
  if (escaped != nullptr) *escaped = std::move(what);
  report.seconds = watch.seconds();
  return report;
}

PortfolioReport solve_portfolio(const rt::TaskSet& input,
                                const rt::Platform& platform,
                                const SolveConfig& config) {
  Spine spine(input, config);
  const rt::TaskSet& ts = spine.ts;
  PortfolioReport out;

  // Presolve prefilter: the pipeline stages run once, before any lane
  // launches.  A decisive stage answer is the portfolio's answer — no lane
  // ever starts, which is where the flow oracle converts whole identical-
  // platform workloads into polynomial time.
  if (run_stages(ts, platform, config.pipeline, spine.deadline, out.report)) {
    spine.finish(platform, out.report);
    out.seconds = out.report.seconds;
    return out;
  }
  std::vector<StageTiming> presolve = std::move(out.report.stage_times);

  struct Lane {
    std::string label;
    SolveConfig config;
  };
  std::vector<Lane> lanes;

  // Lanes never re-run the presolve stages (they just ran above), race over
  // what remains of this call's wall budget (a fresh clock would let the
  // race overshoot it by whatever presolve consumed), and the lane methods
  // are concrete, so no recursion.
  SolveConfig lane_base = config;
  lane_base.pipeline = PipelineOptions::none();
  lane_base.time_limit_ms = spine.deadline.remaining_ms();

  // The four dedicated value-order lanes, configured like exp::csp2_spec:
  // paper-faithful, so without the slack/demand prunes.
  for (const csp2::ValueOrder order : csp2::informed_value_orders()) {
    Lane lane;
    lane.label = csp2::to_string(order);
    lane.config = lane_base;
    lane.config.method = Method::kCsp2Dedicated;
    lane.config.csp2.value_order = order;
    lane.config.csp2.slack_prune = false;
    lane.config.csp2.tight_demand_prune = false;
    lanes.push_back(std::move(lane));
  }

  // Anticorrelated lane: the same dedicated search with this repo's
  // slack/demand prunes ON — where the paper-faithful lanes all time out on
  // an infeasible instance, this lane often proves it instantly.
  if (config.portfolio.diverse_lanes) {
    Lane lane;
    lane.label = "CSP2+(D-C)+prunes";
    lane.config = lane_base;
    lane.config.method = Method::kCsp2Dedicated;
    lane.config.csp2.value_order = csp2::ValueOrder::kDMinusC;
    lane.config.csp2.slack_prune = true;
    lane.config.csp2.tight_demand_prune = true;
    lanes.push_back(std::move(lane));
  }

  // Anticorrelated lane: min-conflicts local search — a SAT specialist for
  // feasible instances the tree searches thrash on.  Identical platforms
  // only (ls::solve's domain); its kUnknown give-up is never decisive.
  if (config.portfolio.diverse_lanes && platform.is_identical()) {
    Lane lane;
    lane.label = "min-conflicts";
    lane.config = lane_base;
    lane.config.method = Method::kLocalSearch;
    lane.config.localsearch.seed =
        config.localsearch.seed ^ (config.generic.seed * 0x9e3779b97f4a7c15ULL);
    lanes.push_back(std::move(lane));
  }

  // The randomized generic lane: Choco-like strategy with Luby restarts
  // and nogood recording.
  {
    Lane lane;
    lane.label = "CSP2(generic)+rand0";
    lane.config = lane_base;
    lane.config.method = Method::kCsp2Generic;
    lane.config.generic =
        choco_like_defaults(config.generic.seed ^ 0x9e3779b97f4a7c15ULL);
    lane.config.generic.nogoods = true;
    lane.config.limits.max_variables =
        std::min(config.limits.max_variables, kRandomLaneMaxVariables);
    lanes.push_back(std::move(lane));
  }

  // Linked to the caller's token (when engaged) so an external cancel of
  // the portfolio run still aborts every lane; the winner's cancel only
  // fires the race-local flag.  Each lane then gets its *own* token linked
  // to the race token, so the watchdog can cull one stalled lane without
  // touching the survivors (links chain: caller -> race -> lane).
  const support::CancelToken token =
      config.cancel.engaged() ? support::CancelToken::linked(config.cancel)
                              : support::CancelToken::make();
  const std::size_t n_lanes = lanes.size();
  std::vector<support::CancelToken> lane_tokens;
  lane_tokens.reserve(n_lanes);
  for (std::size_t k = 0; k < n_lanes; ++k) {
    lane_tokens.push_back(support::CancelToken::linked(token));
    lanes[k].config.cancel = lane_tokens[k];
    lanes[k].config.heartbeat =
        std::make_shared<std::atomic<std::uint64_t>>(0);
  }

  std::vector<SolveReport> reports(n_lanes);
  auto started = std::make_unique<std::atomic<bool>[]>(n_lanes);
  auto finished = std::make_unique<std::atomic<bool>[]>(n_lanes);
  std::vector<bool> watchdog_cancelled(n_lanes, false);

  // Progress watchdog: a lane that has started, produced at least one
  // heartbeat, and then stands still for watchdog_stall_ms is cancelled so
  // the race continues with the survivors.  Queued-but-unstarted lanes
  // (oversubscription) and lanes still building their model (no beat yet)
  // are never culled — only a heartbeat that went quiet counts as stuck.
  // It waits out each interval on a condition variable, so the end of the
  // race wakes it at once: the join below never waits for the next tick.
  std::mutex race_mutex;
  std::condition_variable race_wake;
  bool race_done = false;
  std::thread watchdog;
  const std::int64_t stall_ms = config.portfolio.watchdog_stall_ms;
  if (stall_ms > 0 && n_lanes > 0) {
    watchdog = std::thread([&] {
      using Clock = support::Deadline::Clock;
      const auto poll = std::chrono::milliseconds(
          std::clamp<std::int64_t>(stall_ms / 4, 5, 250));
      std::vector<std::uint64_t> last_beat(n_lanes, 0);
      std::vector<Clock::time_point> last_change(n_lanes, Clock::now());
      std::unique_lock<std::mutex> lock(race_mutex);
      while (!race_wake.wait_for(lock, poll, [&] { return race_done; })) {
        const auto now = Clock::now();
        for (std::size_t k = 0; k < n_lanes; ++k) {
          if (finished[k].load(std::memory_order_acquire) ||
              !started[k].load(std::memory_order_acquire)) {
            continue;
          }
          const std::uint64_t beat =
              lanes[k].config.heartbeat->load(std::memory_order_relaxed);
          if (beat != last_beat[k]) {
            last_beat[k] = beat;
            last_change[k] = now;
            continue;
          }
          if (beat > 0 && !watchdog_cancelled[k] &&
              now - last_change[k] > std::chrono::milliseconds(stall_ms)) {
            watchdog_cancelled[k] = true;  // single writer: this thread
            lane_tokens[k].cancel();
          }
        }
      }
    });
  }

  // One thread per lane by default: the race mechanism is overlapping
  // wall-clock deadlines, which deliberate oversubscription preserves even
  // on a single hardware thread (parallel_for_index honors workers beyond
  // the shared pool with a dedicated pool).  A throwing lane is contained
  // into its report by the solve funnel — one crashed lane must never kill
  // the race.
  const std::size_t workers = config.portfolio.workers == 0
                                  ? n_lanes
                                  : config.portfolio.workers;
  support::parallel_for_index(n_lanes, workers, [&](std::size_t k) {
    started[k].store(true, std::memory_order_release);
    reports[k] = solve_contained(ts, platform, lanes[k].config);
    if (decisive(reports[k].verdict, reports[k].complete)) {
      token.cancel();  // decisive: the race is over, stop the losers
    }
    finished[k].store(true, std::memory_order_release);
  });
  {
    std::lock_guard<std::mutex> lock(race_mutex);
    race_done = true;
  }
  race_wake.notify_one();
  if (watchdog.joinable()) watchdog.join();

  out.lanes.reserve(n_lanes);
  for (std::size_t k = 0; k < n_lanes; ++k) {
    LaneOutcome lane_out;
    lane_out.label = lanes[k].label;
    lane_out.verdict = reports[k].verdict;
    lane_out.cause = reports[k].cause;
    lane_out.seconds = reports[k].seconds;
    lane_out.nodes = reports[k].nodes;
    lane_out.watchdog_cancelled = watchdog_cancelled[k];
    out.lanes.push_back(std::move(lane_out));
    if (!decisive(reports[k].verdict, reports[k].complete)) continue;
    if (out.winner < 0 ||
        reports[k].seconds <
            reports[static_cast<std::size_t>(out.winner)].seconds) {
      out.winner = static_cast<std::int32_t>(k);
    }
  }
  const std::size_t headline =
      out.winner >= 0 ? static_cast<std::size_t>(out.winner) : 0;
  out.report = std::move(reports[headline]);
  // Honest provenance either way: the winning lane, or an explicit "none"
  // instead of whatever backend label lane 0's undecided run carried.
  out.report.decided_by = out.winner >= 0
                              ? "portfolio:" + lanes[headline].label
                              : std::string("portfolio:none");
  // Provenance for callers that only see the headline report: the presolve
  // stages ran (undecided) before the race.
  out.report.stage_times.insert(out.report.stage_times.begin(),
                                presolve.begin(), presolve.end());
  if (spine.clones) out.report.solved_tasks = std::move(spine.clones);
  out.seconds = spine.watch.seconds();
  return out;
}

std::vector<SolveReport> solve_batch(const std::vector<BatchJob>& jobs,
                                     const BatchPolicy& policy,
                                     BatchHealth* health) {
  std::vector<SolveReport> reports(jobs.size());
  std::mutex health_mutex;
  BatchHealth local;

  support::parallel_for_index(jobs.size(), policy.workers, [&](std::size_t k) {
    SolveConfig config = jobs[k].config;
    const std::int32_t attempts = std::max(policy.max_attempts, 1);
    bool ever_failed = false;
    for (std::int32_t attempt = 1;; ++attempt) {
      SolveReport report =
          solve_contained(jobs[k].tasks, jobs[k].platform, config);
      const bool failed = crash_type(report.cause);
      if (failed) {
        ever_failed = true;
        std::lock_guard lock(health_mutex);
        ++local.failures;
        if (local.first_error.empty()) {
          local.first_error = std::string("job ") + std::to_string(k) + " [" +
                              to_string(report.cause) + "]: " + report.detail;
        }
      }
      if (!failed || attempt >= attempts) {
        if (failed) {
          report.detail += " (quarantined after " + std::to_string(attempt) +
                           (attempt == 1 ? " attempt)" : " attempts)");
          std::lock_guard lock(health_mutex);
          ++local.quarantined;
          local.quarantined_jobs.push_back(k);
        } else if (ever_failed) {
          std::lock_guard lock(health_mutex);
          ++local.recovered;
        }
        reports[k] = std::move(report);
        return;
      }
      // Retry with backoff: doubled wall/node budgets, fresh seeds so a
      // deterministic crash trajectory is not replayed verbatim.
      {
        std::lock_guard lock(health_mutex);
        ++local.retries;
      }
      if (config.time_limit_ms > 0) config.time_limit_ms *= 2;
      if (config.max_nodes > 0) config.max_nodes *= 2;
      const auto salt =
          0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(attempt);
      config.generic.seed ^= salt;
      config.localsearch.seed ^= salt ^ 0x517cc1b727220a95ULL;
    }
  });

  std::sort(local.quarantined_jobs.begin(), local.quarantined_jobs.end());
  if (health != nullptr) *health = std::move(local);
  return reports;
}

std::vector<SolveReport> solve_batch(const std::vector<BatchJob>& jobs,
                                     std::size_t workers) {
  BatchPolicy policy;
  policy.workers = workers;
  return solve_batch(jobs, policy, nullptr);
}

}  // namespace mgrts::core
