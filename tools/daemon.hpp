// The one main of the resident daemons, mgrts_serverd and mgrts_workerd
// (DESIGN.md §13 and §16): a serve::Server whose Service answers
// solve/ping/health/shutdown, with the fleet's "shard" route registered on
// it.  The two binaries differ in their name, default socket and default
// handler count, so either can serve solves and shards, and in one setting
// outside this main: mgrts_workerd caps glibc at one malloc arena, so a
// shard's lanes share freed memory (DESIGN.md §16 gives the numbers),
// while mgrts_serverd's request handlers keep glibc's default arenas.
// --workers also sets a shard's lanes, max(1, hardware threads / N)
// (dist/worker.hpp): a worker alone on its host runs with --workers 1.
//
// The --fault-* flags arm the deterministic process-wide FaultInjector
// before serving starts, which is how the CI smokes prove containment end
// to end: with faults firing inside the solver every request still gets a
// tagged response, a stall-armed daemon's shards are culled by heartbeat
// and re-dispatched by the coordinator, and the process exits cleanly on
// "shutdown".
//
// Header-only for the reason cli.hpp gives.
#pragma once

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cli.hpp"
#include "dist/worker.hpp"
#include "serve/server.hpp"

namespace mgrts::cli {

/// Serves until "shutdown"; returns the process exit status.
inline int daemon_main(int argc, char** argv, const char* program,
                       const char* default_socket,
                       std::size_t default_workers) {
  serve::ServerOptions options;
  options.socket_path = default_socket;
  options.workers = default_workers;
  std::int64_t beat_interval_ms = 100;
  FaultFlags faults(program);

  const auto usage = [&] {
    std::printf(
        "usage: %s [options]\n"
        "\n"
        "  --socket PATH            AF_UNIX socket path (default %s)\n"
        "  --workers N              connection-handler threads (default %zu);\n"
        "                           a shard runs on max(1, hardware threads\n"
        "                           / N) lanes\n"
        "  --default-timeout-ms MS  budget for requests without timeout-ms\n"
        "  --max-timeout-ms MS      hard ceiling on any request budget\n"
        "  --cache-capacity N       verdict-cache entries; 0 disables\n"
        "  --watchdog-stall-ms MS   cull wedged handlers after MS; 0 off\n"
        "  --beat-interval-ms MS    shard progress-beat cadence (default 100)\n"
        "\n"
        "%s",
        argv[0], default_socket, default_workers, kFaultUsage);
  };

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", program, flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    const auto int_value = [&] {
      return parse_int(program, flag.c_str(), value());
    };
    if (flag == "--help" || flag == "-h") {
      usage();
      return 0;
    } else if (flag == "--socket") {
      options.socket_path = value();
    } else if (flag == "--workers") {
      options.workers =
          static_cast<std::size_t>(std::max<std::int64_t>(1, int_value()));
    } else if (flag == "--default-timeout-ms") {
      options.service.default_timeout_ms = int_value();
    } else if (flag == "--max-timeout-ms") {
      options.service.max_timeout_ms = int_value();
    } else if (flag == "--cache-capacity") {
      options.service.cache.capacity =
          static_cast<std::size_t>(std::max<std::int64_t>(0, int_value()));
    } else if (flag == "--watchdog-stall-ms") {
      options.watchdog_stall_ms = int_value();
    } else if (flag == "--beat-interval-ms") {
      beat_interval_ms = std::max<std::int64_t>(1, int_value());
    } else if (!faults.parse(flag, value)) {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", program, flag.c_str());
      usage();
      return 2;
    }
  }

  // A peer that vanishes mid-reply must be a SocketError on the handler
  // thread, not a process kill (write_all uses MSG_NOSIGNAL, but belt and
  // braces for any libc path that raises SIGPIPE anyway).
  std::signal(SIGPIPE, SIG_IGN);

  if (!faults.arm()) return 2;

  try {
    serve::Server server(options);
    const auto shards = dist::add_shard_route(server, beat_interval_ms);
    std::printf("%s: serving on %s (%zu workers)\n", program,
                server.socket_path().c_str(), options.workers);
    std::fflush(stdout);
    server.run();
    const serve::ServiceCounters counters = server.service().counters();
    std::printf(
        "%s: shutdown after %lld requests (%lld solved, %lld degraded, %lld "
        "errors, %lld cache hits, %lld culled) and %lld shards (%lld rows, "
        "%lld aborted, %lld refused)\n",
        program, static_cast<long long>(counters.requests),
        static_cast<long long>(counters.solved),
        static_cast<long long>(counters.degraded),
        static_cast<long long>(counters.parse_errors +
                               counters.validation_errors +
                               counters.protocol_errors +
                               counters.internal_errors),
        static_cast<long long>(counters.cache_hits),
        static_cast<long long>(server.watchdog_culled()),
        static_cast<long long>(shards->shards.load()),
        static_cast<long long>(shards->rows.load()),
        static_cast<long long>(shards->aborted.load()),
        static_cast<long long>(shards->refused.load()));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: fatal: %s\n", program, e.what());
    return 1;
  }
}

}  // namespace mgrts::cli
