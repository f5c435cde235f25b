// Shared plumbing for the reproduction benches.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/env.hpp"
#include "exp/harness.hpp"
#include "support/fault.hpp"
#include "support/table.hpp"

// CMake passes the configured build type; other builds say so.
#ifndef MGRTS_BUILD_TYPE
#define MGRTS_BUILD_TYPE "unknown"
#endif

namespace mgrts::bench {

inline void print_banner(const char* what, const exp::BenchEnv& env,
                         const gen::GeneratorOptions& gen) {
  std::printf("== %s ==\n", what);
  std::printf(
      "config: %lld instances, %lld ms/run limit, seed %llu, n=%d, Tmax=%lld"
      "%s%s\n",
      static_cast<long long>(env.instances),
      static_cast<long long>(env.time_limit_ms),
      static_cast<unsigned long long>(env.seed), gen.tasks,
      static_cast<long long>(gen.t_max),
      gen.rule == gen::ProcessorRule::kFixed ? ", m=" : ", m=m_min",
      gen.rule == gen::ProcessorRule::kFixed
          ? std::to_string(gen.processors).c_str()
          : "");
  if (!env.full) {
    std::printf(
        "note: scaled-down defaults; set MGRTS_FULL=1 for the paper-scale "
        "run (500 instances, 30 s limit), or override via MGRTS_INSTANCES / "
        "MGRTS_TIME_LIMIT_MS / MGRTS_SEED / MGRTS_WORKERS.\n");
  }
  std::printf("\n");
}

/// The Table I-III workload of §VII-C: m=5, n=10, Tmax=7, D-first sampling,
/// unfiltered (r > 1 instances included).
inline gen::GeneratorOptions paper_workload_small() {
  gen::GeneratorOptions options;
  options.tasks = 10;
  options.processors = 5;
  options.rule = gen::ProcessorRule::kFixed;
  options.t_max = 7;
  options.order = gen::ParamOrder::kDFirst;
  return options;
}

// ------------------------------------------------- machine-readable output
//
// Every bench can dump a BENCH_<name>.json next to its textual table so the
// perf trajectory (nodes/sec, propagations/sec, wall time) is tracked
// across PRs by tooling instead of eyeballs.  Schema:
//   { "bench": "<name>",
//     "entries": [ { "name": "...", "<metric>": <number>, ... }, ... ],
//     "history": [ { "sha": "...", "hardware_threads": n,
//                    "build_type": "...", "fault_injection": 0|1,
//                    "metrics": {"<name>.<metric>": n} } ] }
//
// `entries` is always the current run.  `history` makes the committed file
// a real cross-PR trajectory instead of a single overwritten snapshot:
// each write appends one flattened row for this run to the rows carried
// over from the committed baseline (MGRTS_BENCH_BASELINE when set, else the
// previous file at the output path), capped at the newest kHistoryCap rows.  tools/check_bench_regression.py gates against the
// LAST committed history row (falling back to `entries` for pre-history
// baselines), so the ledger compares like-for-like runs while the full
// trajectory stays greppable in one file.  A row names the commit it
// measured (with "-dirty" when src/, bench/ or tools/ differ from it, so a
// ledger regenerated inside an uncommitted change is not credited to its
// parent) and the machine and build that produced it.

/// One record in BENCH_<name>.json: a label plus numeric metrics.
struct BenchRecord {
  std::string name;
  std::vector<std::pair<std::string, double>> metrics;

  BenchRecord& metric(std::string key, double value) {
    metrics.emplace_back(std::move(key), value);
    return *this;
  }
};

/// Collects records and writes BENCH_<name>.json into MGRTS_BENCH_JSON_DIR
/// (default: the working directory) on write().
class BenchJson {
 public:
  explicit BenchJson(std::string bench) : bench_(std::move(bench)) {}

  BenchRecord& record(std::string name) {
    records_.push_back(BenchRecord{std::move(name), {}});
    return records_.back();
  }

  void write() const {
    const char* dir = std::getenv("MGRTS_BENCH_JSON_DIR");
    const std::string path = (dir != nullptr && *dir != '\0')
                                 ? std::string(dir) + "/BENCH_" + bench_ +
                                       ".json"
                                 : "BENCH_" + bench_ + ".json";
    const char* baseline = std::getenv("MGRTS_BENCH_BASELINE");
    std::vector<std::string> history = read_history(
        baseline != nullptr && *baseline != '\0' ? baseline : path.c_str());
    history.push_back(snapshot_line());
    while (history.size() > kHistoryCap) history.erase(history.begin());

    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    out << "{\n  \"bench\": \"" << bench_ << "\",\n  \"entries\": [";
    for (std::size_t k = 0; k < records_.size(); ++k) {
      const BenchRecord& r = records_[k];
      out << (k == 0 ? "\n" : ",\n") << "    {\"name\": \"" << r.name << '"';
      for (const auto& [key, value] : r.metrics) {
        out << ", \"" << key << "\": " << format_number(value);
      }
      out << '}';
    }
    out << "\n  ],\n  \"history\": [";
    for (std::size_t k = 0; k < history.size(); ++k) {
      out << (k == 0 ? "\n" : ",\n") << "    " << history[k];
    }
    out << "\n  ]\n}\n";
    std::printf("(json written to %s, history depth %zu)\n", path.c_str(),
                history.size());
  }

 private:
  /// Newest-first trajectory rows kept in the file; old rows age out so the
  /// committed ledger stays reviewable.
  static constexpr std::size_t kHistoryCap = 12;

  static std::string format_number(double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    return buf;
  }

  /// First line of a shell command's output, trimmed; empty on failure.
  static std::string first_line(const char* command) {
    std::string line;
    if (std::FILE* pipe = ::popen(command, "r")) {
      char buf[256] = {};
      if (std::fgets(buf, sizeof buf, pipe) != nullptr) {
        line = buf;
        line.erase(line.find_last_not_of(" \n\r\t") + 1);
      }
      ::pclose(pipe);
    }
    return line;
  }

  /// The measured commit: MGRTS_GIT_SHA when set, else the short HEAD sha
  /// with "-dirty" when src/, bench/ or tools/ differ from HEAD (the
  /// pathspecs are top-level relative, so any working directory inside
  /// the checkout works).
  static std::string measured_sha() {
    if (const char* env = std::getenv("MGRTS_GIT_SHA");
        env != nullptr && *env != '\0') {
      return env;
    }
    std::string sha = first_line("git rev-parse --short HEAD 2>/dev/null");
    if (sha.empty()) return "unknown";
    if (!first_line("git status --porcelain -- :/src :/bench :/tools "
                    "2>/dev/null")
             .empty()) {
      sha += "-dirty";
    }
    return sha;
  }

  /// This run as one flattened single-line history row.
  std::string snapshot_line() const {
    std::string line = "{\"sha\": \"" + measured_sha() +
                       "\", \"hardware_threads\": " +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ", \"build_type\": \"" MGRTS_BUILD_TYPE
                       "\", \"fault_injection\": " +
                       std::to_string(MGRTS_FAULT_INJECTION) +
                       ", \"metrics\": {";
    bool first = true;
    for (const BenchRecord& r : records_) {
      for (const auto& [key, value] : r.metrics) {
        if (!first) line += ", ";
        first = false;
        line += "\"" + r.name + "." + key + "\": " + format_number(value);
      }
    }
    line += "}}";
    return line;
  }

  /// Carried-over history rows of `path` (one row per line, the shape this
  /// writer emits).  Missing file or no history block -> empty.
  static std::vector<std::string> read_history(const char* path) {
    std::vector<std::string> rows;
    std::ifstream in(path);
    if (!in) return rows;
    std::string line;
    bool inside = false;
    while (std::getline(in, line)) {
      const std::size_t begin = line.find_first_not_of(" \t");
      if (begin == std::string::npos) continue;
      std::string body = line.substr(begin);
      if (!inside) {
        inside = body.rfind("\"history\":", 0) == 0;
        continue;
      }
      if (body[0] == ']') break;
      if (body.back() == ',') body.pop_back();
      if (body[0] == '{') rows.push_back(std::move(body));
    }
    return rows;
  }

  std::string bench_;
  // Deque: record() hands out references that must survive later record()
  // calls (a vector reallocation would dangle them).
  std::deque<BenchRecord> records_;
};

/// When MGRTS_CSV_DIR is set, additionally dumps the table as
/// $MGRTS_CSV_DIR/<name>.csv for downstream analysis.
inline void maybe_write_csv(const char* name, const support::TextTable& table) {
  const char* dir = std::getenv("MGRTS_CSV_DIR");
  if (dir == nullptr || *dir == '\0') return;
  const std::string path = std::string(dir) + "/" + name + ".csv";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  out << table.to_csv();
  std::printf("(csv written to %s)\n", path.c_str());
}

}  // namespace mgrts::bench
