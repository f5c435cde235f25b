#include "exp/harness.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "exp/env.hpp"
#include "exp/tables.hpp"

namespace mgrts::exp {
namespace {

BatchOptions small_batch_options() {
  BatchOptions options;
  options.generator.tasks = 4;
  options.generator.processors = 2;
  options.generator.t_max = 4;
  options.instances = 20;
  options.seed = 1234;
  options.workers = 2;
  return options;
}

std::vector<SolverSpec> small_lineup() {
  // CSP2 dedicated twice (plain and D-C) keeps the tests fast while still
  // exercising multi-solver aggregation.
  return {csp2_spec(csp2::ValueOrder::kInput, 2000),
          csp2_spec(csp2::ValueOrder::kDMinusC, 2000)};
}

TEST(Harness, ResidueSpecIsIndexAddressableAndReproducible) {
  // The residue filter is pure bookkeeping over generator indices: the
  // same options + probe give the same index set, and feeding the indices
  // back through run_batch reproduces exactly those instances.
  BatchOptions options = small_batch_options();
  options.instances = 12;
  options.workers = 1;
  // Flow oracle off and a one-node csp2-presolve budget so some instances
  // genuinely survive presolve on this tiny workload.
  const SolverSpec probe =
      presolve_probe_spec(500, /*flow_oracle=*/false,
                          /*presolve_max_nodes=*/1);
  const ResidueSpec residue = residue_spec(options, probe);
  EXPECT_EQ(residue.probed, 12);
  EXPECT_EQ(residue.absorbed +
                static_cast<std::int64_t>(residue.indices().size()),
            12);
  EXPECT_FALSE(residue.indices().empty())
      << "probe absorbed everything; weaken it further";

  const ResidueSpec again = residue_spec(options, probe);
  EXPECT_EQ(residue.indices(), again.indices());

  const BatchResult sub = run_batch(residue.batch, {probe});
  ASSERT_EQ(sub.instances.size(), residue.indices().size());
  for (std::size_t k = 0; k < sub.instances.size(); ++k) {
    EXPECT_EQ(sub.instances[k].index, residue.indices()[k]);
    // Residue members stay undecided under the same probe.
    EXPECT_TRUE(sub.instances[k].runs[0].overrun()) << "index " << k;
  }
}

TEST(Harness, RunBatchHonorsExplicitIndices) {
  BatchOptions options = small_batch_options();
  options.workers = 1;
  const std::vector<std::uint64_t> picks{7, 2, 11};
  options.indices = picks;
  const BatchResult batch =
      run_batch(options, {csp2_spec(csp2::ValueOrder::kDMinusC, 2000)});
  ASSERT_EQ(batch.instances.size(), picks.size());
  // Each record carries its generator index and matches the instance that
  // a full-stream batch draws at that index.
  BatchOptions full = small_batch_options();
  full.workers = 1;
  const BatchResult reference =
      run_batch(full, {csp2_spec(csp2::ValueOrder::kDMinusC, 2000)});
  for (std::size_t k = 0; k < picks.size(); ++k) {
    EXPECT_EQ(batch.instances[k].index, picks[k]);
    const InstanceRecord& ref =
        reference.instances[static_cast<std::size_t>(picks[k])];
    EXPECT_EQ(batch.instances[k].tasks, ref.tasks);
    EXPECT_EQ(batch.instances[k].hyperperiod, ref.hyperperiod);
    EXPECT_EQ(batch.instances[k].runs[0].verdict, ref.runs[0].verdict);
  }
}

TEST(Harness, Csp2SpecPaperFaithfulTogglesPruning) {
  const SolverSpec faithful =
      csp2_spec(csp2::ValueOrder::kDMinusC, 100, /*paper_faithful=*/true);
  EXPECT_FALSE(faithful.config.csp2.slack_prune);
  EXPECT_FALSE(faithful.config.csp2.tight_demand_prune);
  EXPECT_TRUE(faithful.config.csp2.idle_rule);      // §V-C rule 1 stays
  EXPECT_TRUE(faithful.config.csp2.symmetry_rule);  // §V-C rule 2 stays

  const SolverSpec extended =
      csp2_spec(csp2::ValueOrder::kDMinusC, 100, /*paper_faithful=*/false);
  EXPECT_TRUE(extended.config.csp2.slack_prune);
  EXPECT_TRUE(extended.config.csp2.tight_demand_prune);
}

TEST(Harness, PaperLineupIsPaperFaithful) {
  const auto specs = paper_lineup(100, 1);
  for (std::size_t s = 1; s < specs.size(); ++s) {
    EXPECT_FALSE(specs[s].config.csp2.slack_prune) << specs[s].label;
  }
  // The CSP1 entry gets the randomized Choco-like strategy.
  EXPECT_EQ(specs[0].config.generic.restart, csp::RestartPolicy::kLuby);
  EXPECT_TRUE(specs[0].config.generic.random_var_ties);
  // No presolve stage may shadow the solvers under measurement (§VII runs
  // the CSP searches directly; only the r > 1 filter applies, separately).
  for (const auto& spec : specs) {
    EXPECT_FALSE(spec.config.pipeline.analysis) << spec.label;
    EXPECT_FALSE(spec.config.pipeline.flow_oracle) << spec.label;
    EXPECT_FALSE(spec.config.pipeline.csp2_presolve) << spec.label;
  }
}

TEST(Harness, PortfolioAndPipelineSpecsSelectTheStages) {
  const SolverSpec raw = portfolio_spec(100, 1, /*presolve=*/false,
                                        /*diverse_lanes=*/false);
  EXPECT_EQ(raw.label, "CSP2-portfolio");
  EXPECT_FALSE(raw.config.pipeline.flow_oracle);
  EXPECT_FALSE(raw.config.portfolio.pruned_lane);
  EXPECT_FALSE(raw.config.portfolio.local_search_lane);

  const SolverSpec piped = portfolio_spec(100);
  EXPECT_EQ(piped.label, "CSP2-pipeline");
  EXPECT_TRUE(piped.config.pipeline.analysis);
  EXPECT_TRUE(piped.config.pipeline.flow_oracle);
  EXPECT_TRUE(piped.config.pipeline.csp2_presolve);
  EXPECT_TRUE(piped.config.portfolio.pruned_lane);
  EXPECT_TRUE(piped.config.portfolio.local_search_lane);

  const SolverSpec staged = pipeline_spec(100);
  EXPECT_EQ(staged.label, "pipeline-CSP2");
  EXPECT_EQ(staged.config.method, core::Method::kCsp2Dedicated);
  EXPECT_TRUE(staged.config.pipeline.csp2_presolve);
}

TEST(Harness, PaperLineupHasSixSolversWithPaperLabels) {
  const auto specs = paper_lineup(1000, 7);
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(specs[0].label, "CSP1");
  EXPECT_EQ(specs[1].label, "CSP2");
  EXPECT_EQ(specs[2].label, "CSP2+RM");
  EXPECT_EQ(specs[3].label, "CSP2+DM");
  EXPECT_EQ(specs[4].label, "CSP2+(T-C)");
  EXPECT_EQ(specs[5].label, "CSP2+(D-C)");
  EXPECT_EQ(specs[0].config.method, core::Method::kCsp1Generic);
  for (std::size_t s = 1; s < 6; ++s) {
    EXPECT_EQ(specs[s].config.method, core::Method::kCsp2Dedicated);
  }
}

TEST(Harness, BatchShapesAndMetadata) {
  const BatchResult batch = run_batch(small_batch_options(), small_lineup());
  ASSERT_EQ(batch.instances.size(), 20u);
  ASSERT_EQ(batch.labels.size(), 2u);
  for (const auto& inst : batch.instances) {
    EXPECT_EQ(inst.tasks, 4);
    EXPECT_EQ(inst.processors, 2);
    EXPECT_GT(inst.hyperperiod, 0);
    EXPECT_GT(inst.ratio, 0.0);
    ASSERT_EQ(inst.runs.size(), 2u);
    for (const auto& run : inst.runs) {
      if (run.found_schedule()) {
        EXPECT_TRUE(run.witness_ok);
      }
      EXPECT_GE(run.seconds, 0.0);
    }
  }
}

TEST(Harness, VerdictsDeterministicAcrossWorkerCounts) {
  // With a generous budget (no realistic timeout pressure at this size),
  // worker parallelism must not change any verdict.
  BatchOptions a = small_batch_options();
  a.workers = 1;
  BatchOptions b = small_batch_options();
  b.workers = 4;
  const BatchResult ra = run_batch(a, small_lineup());
  const BatchResult rb = run_batch(b, small_lineup());
  for (std::size_t k = 0; k < ra.instances.size(); ++k) {
    for (std::size_t s = 0; s < ra.labels.size(); ++s) {
      EXPECT_EQ(ra.instances[k].runs[s].verdict,
                rb.instances[k].runs[s].verdict)
          << "instance " << k << " solver " << s;
    }
  }
}

TEST(Harness, CapacityFilterConsistency) {
  const BatchResult batch = run_batch(small_batch_options(), small_lineup());
  for (const auto& inst : batch.instances) {
    if (inst.exceeds_capacity) {
      // r > 1 is necessary for infeasibility: no solver may find a schedule.
      EXPECT_FALSE(inst.solved_by_any());
      EXPECT_GT(inst.ratio, 1.0);
    }
  }
}

// ------------------------------------------------------------------ tables

TEST(Tables, Table1ShapeAndClassTotals) {
  const BatchResult batch = run_batch(small_batch_options(), small_lineup());
  const auto table = table1_overruns(batch);
  EXPECT_EQ(table.rows(), 2u);
  EXPECT_EQ(table.cols(), 1 + 2 + 1);  // name + solvers + Total
  // Class sizes must partition the batch.
  std::int64_t solved = 0;
  for (const auto& inst : batch.instances) {
    if (inst.solved_by_any()) ++solved;
  }
  const std::string text = table.to_string();
  EXPECT_NE(text.find("solved"), std::string::npos);
  EXPECT_NE(text.find(std::to_string(solved)), std::string::npos);
}

TEST(Tables, Table2CountsPartitionUnsolved) {
  const BatchResult batch = run_batch(small_batch_options(), small_lineup());
  const UnsolvedSummary summary = summarize_unsolved(batch);
  EXPECT_EQ(summary.unsolved, summary.filtered + summary.unfiltered);
  EXPECT_LE(summary.provably_unsolvable, summary.unfiltered);
  std::int64_t solved = 0;
  for (const auto& inst : batch.instances) {
    if (inst.solved_by_any()) ++solved;
  }
  EXPECT_EQ(solved + summary.unsolved,
            static_cast<std::int64_t>(batch.instances.size()));
  const auto table = table2_unsolved(batch);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Tables, Table3BucketsCoverAllInstances) {
  const BatchResult batch = run_batch(small_batch_options(), small_lineup());
  const auto table = table3_difficulty(batch, 2.0);
  // 0-0.4 plus 13 buckets of width 0.1 plus 1.7-2.0.
  EXPECT_GE(table.rows(), 15u);
  const std::string csv = table.to_csv();
  // Sum the #instances column.
  std::int64_t total = 0;
  std::istringstream in(csv);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    const auto first_comma = line.find(',');
    const auto second_comma = line.find(',', first_comma + 1);
    total += std::strtoll(
        line.substr(first_comma + 1, second_comma - first_comma - 1).c_str(),
        nullptr, 10);
  }
  EXPECT_EQ(total, static_cast<std::int64_t>(batch.instances.size()));
}

TEST(Tables, Table4RowAveragesAndMemoryDash) {
  BatchOptions options = small_batch_options();
  options.instances = 10;
  std::vector<SolverSpec> specs = small_lineup();
  // Add a CSP1 spec with an absurdly small variable budget: every run
  // reports kMemoryLimit, which Table IV renders as "-".
  SolverSpec broken;
  broken.label = "CSP1";
  broken.config.method = core::Method::kCsp1Generic;
  broken.config.time_limit_ms = 1000;
  broken.config.limits.max_variables = 1;
  broken.config.pipeline = core::PipelineOptions::none();  // let it OOM
  specs.push_back(broken);

  const BatchResult batch = run_batch(options, specs);
  const ScalingRow row = scaling_row(batch, 4, 1.0);
  EXPECT_EQ(row.tasks, 4);
  EXPECT_EQ(row.instances, 10);
  EXPECT_NEAR(row.avg_processors, 2.0, 1e-9);
  EXPECT_GT(row.avg_ratio, 0.0);
  ASSERT_EQ(row.memory_limited.size(), 3u);
  EXPECT_EQ(row.memory_limited[2], 10);

  const auto table = table4_scaling({row}, batch.labels);
  const std::string text = table.to_string();
  EXPECT_NE(text.find('-'), std::string::npos);
  EXPECT_EQ(table.rows(), 1u);
}

// --------------------------------------------------------------------- env

TEST(Env, ParsesIntegers) {
  ::setenv("MGRTS_TEST_INT", "123", 1);
  EXPECT_EQ(env_int64("MGRTS_TEST_INT", 7), 123);
  ::unsetenv("MGRTS_TEST_INT");
  EXPECT_EQ(env_int64("MGRTS_TEST_INT", 7), 7);
  ::setenv("MGRTS_TEST_INT", "garbage", 1);
  EXPECT_EQ(env_int64("MGRTS_TEST_INT", 7), 7);
  ::unsetenv("MGRTS_TEST_INT");
}

TEST(Env, FlagSemantics) {
  ::unsetenv("MGRTS_TEST_FLAG");
  EXPECT_FALSE(env_flag("MGRTS_TEST_FLAG"));
  ::setenv("MGRTS_TEST_FLAG", "1", 1);
  EXPECT_TRUE(env_flag("MGRTS_TEST_FLAG"));
  ::setenv("MGRTS_TEST_FLAG", "0", 1);
  EXPECT_FALSE(env_flag("MGRTS_TEST_FLAG"));
  ::unsetenv("MGRTS_TEST_FLAG");
}

TEST(Env, BenchEnvDefaultsAndFullMode) {
  ::unsetenv("MGRTS_FULL");
  ::unsetenv("MGRTS_INSTANCES");
  ::unsetenv("MGRTS_TIME_LIMIT_MS");
  const BenchEnv scaled = bench_env(60, 500);
  EXPECT_EQ(scaled.instances, 60);
  EXPECT_EQ(scaled.time_limit_ms, 500);
  EXPECT_FALSE(scaled.full);

  ::setenv("MGRTS_FULL", "1", 1);
  const BenchEnv full = bench_env(60, 500);
  EXPECT_EQ(full.instances, 500);
  EXPECT_EQ(full.time_limit_ms, 30'000);
  EXPECT_TRUE(full.full);
  ::unsetenv("MGRTS_FULL");

  ::setenv("MGRTS_INSTANCES", "9", 1);
  EXPECT_EQ(bench_env(60, 500).instances, 9);
  ::unsetenv("MGRTS_INSTANCES");
}

}  // namespace
}  // namespace mgrts::exp
