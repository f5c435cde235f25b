// Table IV reproduction (§VII-E): scaling with the number of tasks.
// Workload: Tmax = 15, n in {4, 8, 16, 32, 64, 128, 256}, m = m_min =
// ceil(sum C_i/T_i) per instance; solvers CSP1 and CSP2+(D-C).
//
// Paper reference (100 instances per n, 30 s limit):
//     n    r     m      T(1000)  CSP1 solved/tres   CSP2+(D-C) solved/tres
//     4    0.74  2.15   2.60     29% / 19.52        81% / 0.01
//     8    0.84  3.56   2.79      1% / 29.58        66% / 0.05
//     16   0.93  6.87   111.21    0% / 30.00        10% / 0.02
//     32   0.96  13.02  285.29    -                   0% / 0.00
//     64   0.98  25.82  345.95    -                   0% / 0.00
//     128  0.99  51.07  360.36    -                   0% / 0.00
//     256  0.99  101.28 360.36    -                   0% / 0.00
// Shape to reproduce: r -> 1 and m growing linearly with n; T converging to
// lcm(1..15) = 360360; CSP1 collapsing (overruns, then out-of-memory "-");
// CSP2+(D-C) never overrunning but solving less as r -> 1.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "exp/tables.hpp"
#include "support/deadline.hpp"

int main() {
  using namespace mgrts;

  const exp::BenchEnv env = exp::bench_env(/*instances=*/30,
                                           /*limit_ms=*/400,
                                           /*full_instances=*/100,
                                           /*full_limit_ms=*/30'000);

  std::vector<exp::ScalingRow> rows;
  std::vector<std::string> labels;
  const double limit_seconds =
      static_cast<double>(env.time_limit_ms) / 1000.0;

  bench::BenchJson json("table4_scaling");
  support::Stopwatch total_watch;

  for (const std::int32_t n : {4, 8, 16, 32, 64, 128, 256}) {
    exp::BatchOptions options;
    options.generator.tasks = n;
    options.generator.rule = gen::ProcessorRule::kMinCapacity;
    options.generator.t_max = 15;
    options.instances = env.instances;
    options.seed = env.seed + static_cast<std::uint64_t>(n);
    options.workers = env.workers;
    if (n == 4) {
      bench::print_banner("Table IV: growing number of tasks", env,
                          options.generator);
    }

    std::vector<exp::SolverSpec> specs;
    exp::SolverSpec csp1;
    csp1.label = "CSP1";
    csp1.config.method = core::Method::kCsp1Generic;
    csp1.config.time_limit_ms = env.time_limit_ms;
    csp1.config.generic = core::choco_like_defaults(env.seed);
    // The variable budget models Choco's memory exhaustion on large
    // instances; the paper stopped running CSP1 beyond n = 16.
    csp1.config.limits.max_variables = 2'000'000;
    specs.push_back(std::move(csp1));
    specs.push_back(
        exp::csp2_spec(csp2::ValueOrder::kDMinusC, env.time_limit_ms));
    // This repo's pruning extensions (slack + tight-demand), shown next to
    // the paper-faithful configuration: they recover part of the paper's
    // "no overrun" observation by converting timeouts into fast
    // infeasibility proofs (bench_ablation_csp2_rules measures them).
    exp::SolverSpec pruned = exp::csp2_spec(csp2::ValueOrder::kDMinusC,
                                            env.time_limit_ms,
                                            /*paper_faithful=*/false);
    pruned.label = "CSP2+(D-C)+prune";
    specs.push_back(std::move(pruned));

    support::Stopwatch batch_watch;
    const exp::BatchResult batch = exp::run_batch(options, specs);
    const double batch_seconds = batch_watch.seconds();
    labels = batch.labels;
    rows.push_back(exp::scaling_row(batch, n, limit_seconds));
    std::printf("n=%d done (%.2fs); %s\n", n, batch_seconds,
                exp::health_summary(batch.health).c_str());

    std::int64_t batch_nodes = 0;
    for (const auto& inst : batch.instances) {
      for (const auto& run : inst.runs) batch_nodes += run.nodes;
    }
    json.record("n" + std::to_string(n))
        .metric("wall_seconds", batch_seconds)
        .metric("instances", static_cast<double>(env.instances))
        .metric("workers", static_cast<double>(env.workers))
        .metric("nodes", static_cast<double>(batch_nodes));
  }

  json.record("total")
      .metric("wall_seconds", total_watch.seconds())
      .metric("workers", static_cast<double>(env.workers));
  json.write();

  const auto table = exp::table4_scaling(rows, labels);
  std::printf("\n%s\n", table.to_string().c_str());
  bench::maybe_write_csv("table4_scaling", table);
  std::printf(
      "'-' = every run exceeded the CSP1 variable budget (the paper's "
      "out-of-memory rows).\n"
      "paper shape: r -> 1, m ~ n/2, T -> 360.36k; CSP1 dies by n = 16; "
      "CSP2+(D-C) stays fast but solves ~0%% for n >= 32.\n");
  return 0;
}
