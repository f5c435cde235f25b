// mgrts_serverd — the resident schedulability solver daemon (DESIGN.md §13).
//
// Serves solve/health/ping/shutdown requests on an AF_UNIX socket.  The
// --fault-* flags arm the deterministic process-wide FaultInjector before
// serving starts, which is how the CI chaos smoke proves the containment
// story end-to-end: with faults firing inside the solver, every request
// still gets a tagged response and the process exits cleanly on "shutdown".
#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cli.hpp"
#include "serve/server.hpp"

namespace {

constexpr const char* kProgram = "mgrts_serverd";

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "\n"
      "  --socket PATH            AF_UNIX socket path (default "
      "/tmp/mgrts.sock)\n"
      "  --workers N              connection-handler threads (default 4)\n"
      "  --default-timeout-ms MS  budget for requests without timeout-ms\n"
      "  --max-timeout-ms MS      hard ceiling on any request budget\n"
      "  --cache-capacity N       verdict-cache entries; 0 disables\n"
      "  --watchdog-stall-ms MS   cull wedged handlers after MS; 0 off\n"
      "\n"
      "%s",
      argv0, mgrts::cli::kFaultUsage);
}

}  // namespace

int main(int argc, char** argv) {
  mgrts::serve::ServerOptions options;
  mgrts::cli::FaultFlags faults(kProgram, "daemon");

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mgrts_serverd: %s needs a value\n",
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
    } else if (!faults.parse(flag, value)) {
      std::fprintf(stderr, "mgrts_serverd: unknown flag '%s'\n", flag.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  // A client that vanishes mid-reply must be a SocketError on the handler
  // thread, not a process kill (write_all uses MSG_NOSIGNAL, but belt and
  // braces for any libc path that raises SIGPIPE anyway).
  std::signal(SIGPIPE, SIG_IGN);

  if (!faults.arm()) return 2;

  try {
    mgrts::serve::Server server(options);
    std::printf("mgrts_serverd: serving on %s (%zu workers)\n",
                server.socket_path().c_str(), options.workers);
    std::fflush(stdout);
    server.run();
    const auto counters = server.service().counters();
    std::printf(
        "mgrts_serverd: shutdown after %lld requests (%lld solved, %lld "
        "degraded, %lld errors, %lld cache hits, %lld culled)\n",
        static_cast<long long>(counters.requests),
        static_cast<long long>(counters.solved),
        static_cast<long long>(counters.degraded),
        static_cast<long long>(counters.parse_errors +
                               counters.validation_errors +
                               counters.protocol_errors +
                               counters.internal_errors),
        static_cast<long long>(counters.cache_hits),
        static_cast<long long>(server.watchdog_culled()));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mgrts_serverd: fatal: %s\n", e.what());
    return 1;
  }
}
