#include "daemon.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "serve/client.hpp"

extern char** environ;

namespace perfbench {

namespace {

/// Waits up to `timeout_ms` for `pid` to exit; returns its wait status, or
/// -1 when it is still running.
int wait_exit(pid_t pid, int timeout_ms) {
  for (int waited = 0;; ++waited) {
    int status = 0;
    const pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid) return status;
    if (done < 0) return 0;  // already reaped
    if (waited >= timeout_ms) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

Daemon::Daemon(const std::string& binary, const std::string& socket,
               const std::vector<std::string>& args,
               const std::string& log_path)
    : socket_(socket) {
  std::vector<std::string> argv_text{binary, "--socket", socket};
  argv_text.insert(argv_text.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_text) argv.push_back(arg.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + binary);
  }
}

Daemon::~Daemon() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  wait_exit(pid_, 10'000);
}

void Daemon::wait_ready() {
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    try {
      mgrts::serve::Client client(socket_);
      ++control_requests_;
      if (client.ping()) return;
      throw std::runtime_error("daemon at " + socket_ + " refused ping");
    } catch (const mgrts::support::SocketError&) {
      // Not listening yet.
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("daemon for " + socket_ +
                               " exited before answering ping");
    }
    if (std::chrono::steady_clock::now() - start > std::chrono::seconds(20)) {
      throw std::runtime_error("daemon at " + socket_ +
                               " did not answer ping within 20 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

mgrts::serve::Message Daemon::request(const std::string& kind) {
  mgrts::serve::Client client(socket_);
  mgrts::serve::Message message;
  message.kind = kind;
  ++control_requests_;
  return client.request(message);
}

double Daemon::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("no VmHWM for daemon at " + socket_);
}

void Daemon::shutdown() {
  mgrts::serve::Client client(socket_);
  client.shutdown();
  const int status = wait_exit(pid_, 20'000);
  if (status == -1) {
    throw std::runtime_error("daemon at " + socket_ +
                             " did not exit after shutdown");
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("daemon at " + socket_ +
                             " exited uncleanly after shutdown");
  }
}

std::vector<std::unique_ptr<Daemon>> start_workers(const Options& options,
                                                   const std::string& tag) {
  std::vector<std::unique_ptr<Daemon>> workers;
  for (int w = 0; w < 2; ++w) {
    workers.push_back(std::make_unique<Daemon>(
        options.bin_dir + "/mgrts_workerd",
        options.run_dir + "/" + tag + "-" + std::to_string(w) + ".sock",
        std::vector<std::string>{}, options.run_dir + "/workerd.log"));
  }
  for (auto& worker : workers) worker->wait_ready();
  return workers;
}

mgrts::dist::FleetOptions fleet_options(
    const std::vector<std::unique_ptr<Daemon>>& workers, const Sizes& sizes) {
  mgrts::dist::FleetOptions fleet;
  for (const auto& worker : workers) fleet.workers.push_back(worker->socket());
  fleet.shards = static_cast<std::int32_t>(workers.size());
  fleet.max_nodes = sizes.fleet_max_nodes;
  return fleet;
}

std::int64_t header_int(const mgrts::serve::Message& message,
                        const std::string& key) {
  return message.get_int(key).value_or(0);
}

}  // namespace perfbench
