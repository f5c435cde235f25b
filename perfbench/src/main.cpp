// perfbench — the repository benchmark's load generator and replayer.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --bin-dir DIR --run-dir DIR [--smoke] [--commit SHA]
//             [--tree SHA]
//
// Prints one provenance/properties JSON line, then the result line
// {"correct", "attempted", "failed", "metrics"} as the last line of stdout.
// Exits 1 when any verdict, ledger or exactly-once check failed.
// perfbench/run.py builds this and is the command to run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

using perfbench::Options;
using perfbench::Outcome;
using perfbench::Workload;

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string object(const std::vector<std::pair<std::string, double>>& items) {
  std::string out = "{";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(items[i].first) + ": " + number(items[i].second);
  }
  return out + "}";
}

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool smoke = false;
  bool have_workload = false;
  std::string commit = "unknown";
  std::string tree = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage_error(flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload_name = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--bin-dir") {
        options.bin_dir = value;
      } else if (flag == "--run-dir") {
        options.run_dir = value;
      } else if (flag == "--commit") {
        commit = value;
      } else if (flag == "--tree") {
        tree = value;
      } else {
        usage_error("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage_error(flag + " expects a number, got '" + value + "'");
    }
  }
  if (!have_workload) usage_error("--workload is required");
  if (options.workload_name == "serve_miss_table1") {
    options.workload = Workload::kServeMiss;
  } else if (options.workload_name == "serve_hit_table1") {
    options.workload = Workload::kServeHit;
  } else if (options.workload_name == "fleet_search_table1") {
    options.workload = Workload::kFleetSearch;
  } else {
    usage_error("unknown workload '" + options.workload_name + "'");
  }
  if (options.seconds <= 0) usage_error("--seconds must be positive");
  if (options.bin_dir.empty() || options.run_dir.empty()) {
    usage_error("--bin-dir and --run-dir are required");
  }
  if (smoke) options.sizes = perfbench::Sizes::smoke();

  Outcome outcome;
  try {
    const bool fleet = options.workload == Workload::kFleetSearch;
    if (options.trace) {
      outcome = fleet ? perfbench::trace_fleet(options)
                      : perfbench::trace_serve(options);
    } else {
      outcome = fleet ? perfbench::run_fleet(options)
                      : perfbench::run_serve(options);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", options.workload_name.c_str(),
                 e.what());
    return 2;
  }

  std::string errors = "[";
  for (std::size_t i = 0; i < outcome.errors.size(); ++i) {
    if (i > 0) errors += ", ";
    errors += quoted(outcome.errors[i]);
    std::fprintf(stderr, "perfbench: check failed: %s\n",
                 outcome.errors[i].c_str());
  }
  errors += "]";

  std::printf(
      "{\"provenance\": {\"commit\": %s, \"tree\": %s, "
      "\"hardware_threads\": %u, \"build_type\": %s, "
      "\"fault_injection\": %d, \"workload\": %s, \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d, \"smoke\": %d, \"sizes\": %s}, "
      "\"properties\": %s, \"errors\": %s}\n",
      quoted(commit).c_str(), quoted(tree).c_str(),
      std::thread::hardware_concurrency(),
      quoted(PERFBENCH_BUILD_TYPE).c_str(), PERFBENCH_FAULT_INJECTION,
      quoted(options.workload_name).c_str(),
      static_cast<unsigned long long>(options.seed),
      number(options.seconds).c_str(), options.trace ? 1 : 0, smoke ? 1 : 0,
      object(outcome.sizes).c_str(), object(outcome.properties).c_str(),
      errors.c_str());

  std::string metrics = "{";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const perfbench::Metric& m = outcome.metrics[i];
    if (i > 0) metrics += ", ";
    metrics += quoted(m.name) + ": {\"value\": " + number(m.value) +
               ", \"unit\": " + quoted(m.unit) + "}";
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              outcome.correct ? "true" : "false",
              static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed), metrics.c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}
