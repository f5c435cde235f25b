// A spawned daemon process (mgrts_serverd or mgrts_workerd) driven over its
// AF_UNIX socket with the same control kinds mgrts_ctl uses.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "dist/coord.hpp"
#include "serve/wire.hpp"

namespace perfbench {

class Daemon {
 public:
  /// Spawns `binary --socket <socket> args...` with stdout and stderr
  /// appended to `log_path`.  Throws std::runtime_error when the spawn
  /// fails.
  Daemon(const std::string& binary, const std::string& socket,
         const std::vector<std::string>& args, const std::string& log_path);
  /// Kills the process if it is still running and reaps it.
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Connects and pings until the daemon answers (throws after 20 s).
  void wait_ready();
  /// Sends one request on a fresh connection and returns the response.
  [[nodiscard]] mgrts::serve::Message request(const std::string& kind);
  /// VmHWM of the process, in MB.
  [[nodiscard]] double peak_rss_mb() const;
  /// Sends "shutdown" and waits for the process to exit; throws when it
  /// does not answer "bye" or exits with a nonzero status.
  void shutdown();

  [[nodiscard]] const std::string& socket() const noexcept { return socket_; }
  /// Control messages sent so far (ping, health): the daemon counts them
  /// as requests too.
  [[nodiscard]] std::int64_t control_requests() const noexcept {
    return control_requests_;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
  std::int64_t control_requests_ = 0;
};

/// Spawns the fleet's two mgrts_workerd (sockets <run_dir>/<tag>-<w>.sock)
/// and waits until each answers ping.
[[nodiscard]] std::vector<std::unique_ptr<Daemon>> start_workers(
    const Options& options, const std::string& tag);
/// Fleet options over `workers`: one shard per worker, so every batch
/// splits the same way, and the workload's node budget.
[[nodiscard]] mgrts::dist::FleetOptions fleet_options(
    const std::vector<std::unique_ptr<Daemon>>& workers, const Sizes& sizes);

/// Integer header of a health response (0 when absent).
[[nodiscard]] std::int64_t header_int(const mgrts::serve::Message& message,
                                      const std::string& key);

}  // namespace perfbench
