// mgrts_workerd — a shard worker daemon of the distributed batch layer
// (DESIGN.md §16).
//
// Serves shard/health/ping/shutdown requests on an AF_UNIX socket:
// a "shard" request (generator options + index list, serve/shard.hpp)
// runs through dist::execute_shard and streams its rows and progress
// beats back to the coordinator.  mgrts_ctl drives a worker like the
// solve daemon (ping/health/shutdown use the same wire kinds).
//
// The --fault-* flags arm the deterministic process-wide FaultInjector,
// which is how the CI chaos smoke builds a straggling worker: stalls fire
// inside this process's solves, the coordinator culls the frozen shard by
// heartbeat and re-dispatches it to a healthy worker, and the merged batch
// still matches the single-box run.
#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cli.hpp"
#include "dist/worker.hpp"

namespace {

constexpr const char* kProgram = "mgrts_workerd";

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "\n"
      "  --socket PATH            AF_UNIX socket path (default "
      "/tmp/mgrts_worker.sock)\n"
      "  --handlers N             connection-handler threads (default 2)\n"
      "  --beat-interval-ms MS    shard progress-beat cadence (default 100)\n"
      "\n"
      "%s",
      argv0, mgrts::cli::kFaultUsage);
}

}  // namespace

int main(int argc, char** argv) {
  mgrts::dist::WorkerOptions options;
  mgrts::cli::FaultFlags faults(kProgram, "worker");

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mgrts_workerd: %s needs a value\n",
                     flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    const auto int_value = [&] {
      return mgrts::cli::parse_int(kProgram, flag.c_str(), value());
    };
    if (flag == "--help" || flag == "-h") {
      usage(argv[0]);
      return 0;
    } else if (flag == "--socket") {
      options.socket_path = value();
    } else if (flag == "--handlers") {
      options.handlers =
          static_cast<std::size_t>(std::max<std::int64_t>(1, int_value()));
    } else if (flag == "--beat-interval-ms") {
      options.beat_interval_ms = std::max<std::int64_t>(1, int_value());
    } else if (!faults.parse(flag, value)) {
      std::fprintf(stderr, "mgrts_workerd: unknown flag '%s'\n", flag.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  // A coordinator that vanishes mid-stream must be a SocketError on the
  // handler thread, not a process kill.
  std::signal(SIGPIPE, SIG_IGN);

  if (!faults.arm()) return 2;

  try {
    mgrts::dist::WorkerServer worker(options);
    std::printf("mgrts_workerd: serving on %s (%zu handlers)\n",
                worker.socket_path().c_str(), options.handlers);
    std::fflush(stdout);
    worker.run();
    const auto counters = worker.counters();
    std::printf(
        "mgrts_workerd: shutdown after %lld shards (%lld rows, %lld aborted, "
        "%lld refused)\n",
        static_cast<long long>(counters.shards),
        static_cast<long long>(counters.rows),
        static_cast<long long>(counters.aborted),
        static_cast<long long>(counters.refused));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mgrts_workerd: fatal: %s\n", e.what());
    return 1;
  }
}
