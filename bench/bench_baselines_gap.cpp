// Baseline gap study: how much of the CSP solvers' work could cheaper
// methods do, and where does only the exact approach succeed?
//
// On the Table-I workload this compares, per instance:
//   * analytical quick tests       (O(n log n) filters, exact one-sided)
//   * global EDF simulation        (online baseline; Dhall-style anomalies)
//   * min-conflicts local search   (§VIII future-work bullet 1)
//   * the flow oracle              (exact, identical platforms only)
//   * CSP2+(D-C)                   (the paper's winner)
//   * the staged pipeline          (presolve stages + CSP2 backend)
// and reports solved counts, proved-infeasible counts, and the number of
// instances where the exact approaches were strictly necessary.  It exits
// 1 when any method's witness fails the validator.
//
// Every method's private status enum flows through core::canonical_verdict
// — one mapping, one tally routine, no per-call-site switch statements.
#include <cstdio>

#include "analysis/tests.hpp"
#include "bench_common.hpp"
#include "core/solve.hpp"
#include "flow/oracle.hpp"
#include "localsearch/min_conflicts.hpp"
#include "rt/validate.hpp"
#include "sim/simulator.hpp"
#include "support/deadline.hpp"
#include "support/table.hpp"

int main() {
  using namespace mgrts;

  const exp::BenchEnv env = exp::bench_env(/*instances=*/100,
                                           /*limit_ms=*/300);
  gen::GeneratorOptions gopt = bench::paper_workload_small();
  bench::print_banner("Baseline gap vs exact CSP scheduling", env, gopt);

  struct Row {
    std::int64_t feasible_found = 0;
    std::int64_t infeasible_proved = 0;
    std::int64_t undecided = 0;
    std::int64_t invalid = 0;  // witnesses failing the validator (must be 0)
    double ms = 0;
  };
  Row analysis_row, edf, local, oracle_row, csp2_row, pipeline_row;
  std::int64_t only_exact_found = 0;   // feasible found only by oracle/CSP2
  std::int64_t presolve_decided = 0;   // pipeline runs settled before search

  // One tally for every method: the canonical verdict plus completeness
  // decides the bucket; incomplete infeasible claims (EDF) count as
  // undecided, like kUnknown.
  auto tally = [](Row& row, core::Verdict verdict, bool complete,
                  bool witness_bad) {
    if (verdict == core::Verdict::kFeasible) {
      ++row.feasible_found;
      if (witness_bad) ++row.invalid;
    } else if (verdict == core::Verdict::kInfeasible && complete) {
      ++row.infeasible_proved;
    } else {
      ++row.undecided;
    }
  };

  for (std::int64_t k = 0; k < env.instances; ++k) {
    const auto inst = gen::generate_indexed(
        gopt, env.seed, static_cast<std::uint64_t>(k));
    const rt::Platform platform = rt::Platform::identical(inst.processors);

    auto timed = [&](Row& row, auto&& fn) {
      support::Stopwatch watch;
      fn(row);
      row.ms += watch.seconds() * 1000.0;
    };

    auto bad_witness = [&](const std::optional<rt::Schedule>& schedule) {
      return schedule.has_value() &&
             !rt::is_valid_schedule(inst.tasks, platform, *schedule);
    };

    timed(analysis_row, [&](Row& row) {
      const auto verdict =
          analysis::quick_decide(inst.tasks, inst.processors).verdict;
      tally(row, core::canonical_verdict(verdict), /*complete=*/true,
            /*witness_bad=*/false);
    });

    bool cheap_found = false;  // EDF or local search found a schedule
    timed(edf, [&](Row& row) {
      const auto result = sim::simulate(inst.tasks, platform);
      const bool schedulable = result.status == sim::SimStatus::kSchedulable;
      cheap_found = cheap_found || schedulable;
      // EDF is sound only in the feasible direction: a miss proves nothing.
      tally(row,
            schedulable ? core::Verdict::kFeasible : core::Verdict::kUnknown,
            /*complete=*/false, schedulable && bad_witness(result.schedule));
    });

    timed(local, [&](Row& row) {
      ls::Options options;
      options.seed = env.seed + static_cast<std::uint64_t>(k);
      options.deadline = support::Deadline::after_ms(env.time_limit_ms);
      const auto result = ls::solve(inst.tasks, platform, options);
      cheap_found = cheap_found || result.status == ls::Status::kFeasible;
      tally(row, core::canonical_verdict(result.status), /*complete=*/false,
            bad_witness(result.schedule));
    });

    timed(oracle_row, [&](Row& row) {
      const auto oracle = flow::decide_feasibility(inst.tasks, platform);
      tally(row, core::canonical_verdict(oracle.verdict), /*complete=*/true,
            bad_witness(oracle.schedule));
    });

    bool csp2_found = false;
    timed(csp2_row, [&](Row& row) {
      core::SolveConfig config;
      config.method = core::Method::kCsp2Dedicated;
      config.csp2.value_order = csp2::ValueOrder::kDMinusC;
      config.time_limit_ms = env.time_limit_ms;
      config.pipeline = core::PipelineOptions::none();
      const auto report = core::solve_instance(inst.tasks, platform, config);
      csp2_found = report.verdict == core::Verdict::kFeasible;
      tally(row, report.verdict, report.complete,
            csp2_found && !report.witness_valid);
    });

    timed(pipeline_row, [&](Row& row) {
      core::SolveConfig config;
      config.method = core::Method::kCsp2Dedicated;
      config.csp2.value_order = csp2::ValueOrder::kDMinusC;
      config.time_limit_ms = env.time_limit_ms;
      config.pipeline = core::PipelineOptions::full();
      const auto report = core::solve_instance(inst.tasks, platform, config);
      tally(row, report.verdict, report.complete,
            report.verdict == core::Verdict::kFeasible &&
                report.schedule.has_value() && !report.witness_valid);
      if (report.decided_by.rfind("backend:", 0) != 0 &&
          core::decisive(report.verdict, report.complete)) {
        ++presolve_decided;
      }
    });

    if (csp2_found && !cheap_found) ++only_exact_found;
  }

  support::TextTable table({"method", "feasible", "proved-unsat", "undecided",
                            "bad-witness", "total ms"});
  table.set_title("per-method outcomes over the batch");
  auto emit = [&](const char* name, const Row& row) {
    table.add_row({name, support::TextTable::num(row.feasible_found),
                   support::TextTable::num(row.infeasible_proved),
                   support::TextTable::num(row.undecided),
                   support::TextTable::num(row.invalid),
                   support::TextTable::num(row.ms, 1)});
  };
  emit("analysis filters", analysis_row);
  emit("global EDF", edf);
  emit("local search", local);
  emit("flow oracle", oracle_row);
  emit("CSP2+(D-C)", csp2_row);
  emit("pipeline", pipeline_row);
  std::printf("%s\n", table.to_string().c_str());
  std::printf("CSP2-feasible instances neither EDF nor local search found: "
              "%lld\n",
              static_cast<long long>(only_exact_found));
  std::printf("pipeline runs decided by presolve stages: %lld of %lld\n",
              static_cast<long long>(presolve_decided),
              static_cast<long long>(env.instances));
  std::printf(
      "\nreading: local search finds most feasible witnesses but proves "
      "nothing; EDF is a sound-one-way baseline; only the oracle and the "
      "CSP solvers decide both ways — and the pipeline row shows the staged "
      "presolve absorbing that work before search.\n");
  for (const Row* row :
       {&analysis_row, &edf, &local, &oracle_row, &csp2_row, &pipeline_row}) {
    if (row->invalid != 0) return 1;
  }
  return 0;
}
