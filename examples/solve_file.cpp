// Command-line solver: read an instance file, run the decision pipeline a
// practitioner would use — analytical quick tests first, then the cheap
// incomplete baselines, then the exact CSP solver — and print the outcome.
//
//   ./solve_file path/to/instance.txt
//   ./solve_file --demo                    # writes and solves a sample file
//   ./solve_file instance.txt --timeout-ms 5000 --retries 2 --json
//
// --timeout-ms MS   wall budget for the exact solve (default 30000)
// --retries N       re-attempt crash-type failures up to N times, with
//                   widened budgets and fresh seeds (core::BatchPolicy)
// --json            machine-readable SolveReport + BatchHealth on stdout
//                   (suppresses the staged human-readable narration)
//
// Instance format (see core/instance_io.hpp):
//   tasks 3
//   0 1 2 2
//   1 3 4 4
//   0 2 2 3
//   processors 2
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/tests.hpp"
#include "core/instance_io.hpp"
#include "core/solve.hpp"
#include "partition/partition.hpp"
#include "rt/gantt.hpp"

namespace {

constexpr const char* kDemo =
    "# Example 1 of the paper\n"
    "tasks 3\n"
    "0 1 2 2\n"
    "1 3 4 4\n"
    "0 2 2 3\n"
    "processors 2\n";

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void print_json(const mgrts::core::SolveReport& report,
                const mgrts::core::BatchHealth& health) {
  using mgrts::core::to_string;
  std::printf("{\n");
  std::printf("  \"verdict\": \"%s\",\n", to_string(report.verdict));
  std::printf("  \"complete\": %s,\n", report.complete ? "true" : "false");
  std::printf("  \"cause\": \"%s\",\n", to_string(report.cause));
  std::printf("  \"decided_by\": \"%s\",\n",
              json_escape(report.decided_by).c_str());
  std::printf("  \"seconds\": %.6f,\n", report.seconds);
  std::printf("  \"nodes\": %lld,\n", static_cast<long long>(report.nodes));
  std::printf("  \"witness\": %s,\n",
              report.schedule.has_value() ? "true" : "false");
  std::printf("  \"witness_valid\": %s,\n",
              report.witness_valid ? "true" : "false");
  std::printf("  \"detail\": \"%s\",\n", json_escape(report.detail).c_str());
  std::printf("  \"propagators\": [");
  for (std::size_t k = 0; k < report.propagators.size(); ++k) {
    const mgrts::csp::PropagatorProfile& row = report.propagators[k];
    std::printf("%s\n    {\"name\": \"%s\", \"wakes\": %lld, \"runs\": %lld, "
                "\"prunes\": %lld, \"seconds\": %.6f}",
                k == 0 ? "" : ",", json_escape(row.name).c_str(),
                static_cast<long long>(row.wakes),
                static_cast<long long>(row.runs),
                static_cast<long long>(row.prunes), row.seconds);
  }
  std::printf("%s],\n", report.propagators.empty() ? "" : "\n  ");
  std::printf("  \"health\": {\n");
  std::printf("    \"failures\": %lld,\n",
              static_cast<long long>(health.failures));
  std::printf("    \"retries\": %lld,\n",
              static_cast<long long>(health.retries));
  std::printf("    \"recovered\": %lld,\n",
              static_cast<long long>(health.recovered));
  std::printf("    \"quarantined\": %lld,\n",
              static_cast<long long>(health.quarantined));
  std::printf("    \"first_error\": \"%s\"\n",
              json_escape(health.first_error).c_str());
  std::printf("  }\n");
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mgrts;

  std::string path;
  bool demo = false;
  bool json = false;
  std::int64_t timeout_ms = 30'000;
  std::int32_t retries = 0;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return args[++i];
    };
    if (arg == "--demo") {
      demo = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--timeout-ms") {
      timeout_ms = std::stoll(value());
    } else if (arg == "--retries") {
      retries = static_cast<std::int32_t>(std::stol(value()));
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      path = arg;
    }
  }

  std::string text;
  if (!path.empty() && !demo) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  } else {
    if (!json) std::printf("(demo instance)\n%s\n", kDemo);
    text = kDemo;
  }

  core::InstanceFile file;
  try {
    file = core::read_instance_string(text);
  } catch (const Error& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return 2;
  }

  const rt::TaskSet constrained = file.tasks.is_constrained()
                                      ? file.tasks
                                      : file.tasks.to_constrained();
  if (!json) {
    std::printf("instance: n=%d, %s, T=%lld, U=%.3f\n", constrained.size(),
                file.platform.describe().c_str(),
                static_cast<long long>(constrained.hyperperiod()),
                constrained.utilization().to_double());
  }

  // Stage 1 + 2 narration only in human mode; the JSON path reports the
  // pipeline's own provenance (decided_by) instead.
  if (!json && file.platform.is_identical()) {
    const auto quick =
        analysis::quick_decide(constrained, file.platform.processors());
    std::printf("analysis: %s (%s)\n", analysis::to_string(quick.verdict),
                quick.test);
    if (quick.verdict != analysis::TestVerdict::kUnknown) {
      std::printf("decided without search: %s\n", quick.detail.c_str());
      return quick.verdict == analysis::TestVerdict::kFeasible ? 0 : 1;
    }

    const auto packed = partition::partition_tasks(
        constrained, file.platform.processors());
    if (packed.found) {
      std::printf(
          "partitioned first-fit suffices (no migration needed):\n%s",
          rt::render_schedule(constrained, *packed.schedule).c_str());
      return 0;
    }
    std::printf("partitioning failed; falling back to global CSP search\n");
  }

  // The exact solve, as one batch job so --retries rides the containment
  // machinery (crash-type retry, quarantine, BatchHealth accounting).
  core::SolveConfig config;
  config.csp2.value_order = csp2::ValueOrder::kDMinusC;
  config.time_limit_ms = timeout_ms;

  core::BatchPolicy policy;
  policy.workers = 1;
  policy.max_attempts = retries + 1;

  core::BatchHealth health;
  const std::vector<core::SolveReport> reports = core::solve_batch(
      {core::BatchJob{file.tasks, file.platform, config}}, policy, &health);
  const core::SolveReport& report = reports.front();

  if (json) {
    print_json(report, health);
  } else {
    std::printf("CSP2+(D-C): %s in %.3fs (decided by %s)\n",
                core::to_string(report.verdict), report.seconds,
                report.decided_by.c_str());
    if (health.retries > 0) {
      std::printf("health: %lld failures, %lld retries, %lld recovered\n",
                  static_cast<long long>(health.failures),
                  static_cast<long long>(health.retries),
                  static_cast<long long>(health.recovered));
    }
    if (report.schedule.has_value()) {
      const rt::TaskSet& shown =
          report.solved_tasks.has_value() ? *report.solved_tasks : constrained;
      std::printf("%s", rt::render_schedule(shown, *report.schedule).c_str());
      std::printf("witness validated: %s\n",
                  report.witness_valid ? "yes" : "NO");
    }
  }
  return report.verdict == core::Verdict::kFeasible ? 0 : 1;
}
