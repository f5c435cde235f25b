// The one frame server of the resident daemons: an AF_UNIX accept loop
// fanning connections out over a support::ThreadPool, wrapped around the
// in-process Service (serve/service.hpp) and a table of routes.
//
// A route answers one request kind outside the Service.  The table lets
// layers above serve/ add kinds without serve/ including them:
// dist/worker.hpp registers the fleet's "shard" route (DESIGN.md §16), and
// both daemon binaries serve it.  The server routes "health" itself, so
// that response carries the Service's counters plus every route's.  Every
// other payload goes to Service::handle, which answers solve, ping and
// shutdown and refuses the rest.
//
// Containment at this layer (DESIGN.md §13):
//   * each connection handler converts frame/transport failures into tagged
//     "error" responses where a response is still possible, and otherwise
//     just drops the connection — the process never dies with a client;
//   * every request runs behind a per-request CancelToken linked to the
//     server-wide stop token, so stop() and shutdown requests abort work
//     cooperatively instead of abandoning threads;
//   * a route's frames leave through one per-request gate (Reply): writes
//     are serialized, and the first failed write cancels the request token,
//     so work for a vanished peer stops at its next poll;
//   * a PR6-style heartbeat watchdog walks the in-flight request registry
//     and culls handlers whose solver heartbeat stands still for
//     `watchdog_stall_ms` — a wedged (or kStall-fault-injected) solve
//     degrades to a kTimeout/kCancelled response instead of pinning a
//     worker forever.  Routed requests take no slot, so the watchdog
//     never culls them; a route owns its own liveness (the shard route
//     beats to its coordinator, which culls stragglers).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/service.hpp"
#include "support/socket.hpp"
#include "support/thread_pool.hpp"

namespace mgrts::serve {

struct ServerOptions {
  /// Filesystem path of the AF_UNIX socket; a stale file is replaced.
  std::string socket_path = "/tmp/mgrts.sock";
  /// Connection-handler fan-out (also the max concurrent connections; the
  /// listen backlog queues the rest).
  std::size_t workers = 4;
  /// Cull threshold for the stall watchdog; 0 disables it.
  std::int64_t watchdog_stall_ms = 5'000;
  /// Timeout of the accept loop's and idle connections' waits — a poll
  /// point for the stop flags, not a client deadline (the loop continues
  /// on timeout).  A stop or a shutdown request ends both waits at once.
  std::int64_t poll_interval_ms = 200;
  ServiceOptions service;
};

/// The send side of one routed request.
class Reply {
 public:
  Reply(const support::Fd& connection, support::CancelToken cancel)
      : connection_(connection), cancel_(std::move(cancel)) {}

  /// Sends one frame; false once any write has failed.  Thread-safe: a
  /// route may stream from several threads.
  bool send(const Message& message);
  /// Reached by the server's stop token and by the first failed write.
  [[nodiscard]] const support::CancelToken& cancel() const noexcept {
    return cancel_;
  }
  /// True once a write failed: the server then drops the connection.
  [[nodiscard]] bool failed() const noexcept {
    return failed_.load(std::memory_order_relaxed);
  }

 private:
  const support::Fd& connection_;
  support::CancelToken cancel_;
  std::mutex mutex_;
  std::atomic<bool> failed_{false};
};

/// A request kind answered outside the Service.
struct Route {
  /// Streams the response frames through the reply.  An exception it lets
  /// escape is answered as an `internal` error.
  std::function<void(const Message& request, Reply& reply)> handle;
  /// Appends the route's counters to "health" responses; may be empty.
  std::function<void(Message& health)> health;
};

class Server {
 public:
  /// Binds the socket immediately (throws support::SocketError on failure);
  /// serving starts with run() or start().
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Answers requests of `kind` with `route`.  Call before run()/start():
  /// handlers read the table unlocked.
  void add_route(std::string kind, Route route);

  /// Accept loop; blocks until stop() or an accepted "shutdown" request,
  /// then drains in-flight handlers and returns.
  void run();

  /// Runs the accept loop on a background thread (for tests and the
  /// quickstart snippet; the daemon binaries call run() directly).
  void start();

  /// Requests a graceful stop: stop accepting, cancel in-flight requests via
  /// their linked tokens, join.  Idempotent.
  void stop();

  [[nodiscard]] Service& service() noexcept { return service_; }
  [[nodiscard]] const std::string& socket_path() const noexcept {
    return options_.socket_path;
  }
  /// Handlers the watchdog culled for a stalled heartbeat.
  [[nodiscard]] std::int64_t watchdog_culled() const noexcept {
    return watchdog_culled_.load(std::memory_order_relaxed);
  }

 private:
  /// One in-flight solve visible to the watchdog.
  struct RequestSlot {
    std::shared_ptr<std::atomic<std::uint64_t>> heartbeat;
    support::CancelToken token;
    std::uint64_t last_beat = 0;
    std::chrono::steady_clock::time_point last_change;
    bool culled = false;
  };

  void handle_connection(support::Fd connection);
  /// The route for `payload`'s kind, with the payload parsed into
  /// `request`; null when no route matches or the payload is malformed
  /// (Service::handle then refuses it).  Only a routed payload is parsed
  /// here, so the Service path still parses once.
  const Route* route_for(const std::string& payload, Message& request) const;
  void watchdog_loop();
  /// Sets stopping_ and wakes the watchdog, the accept loop and every idle
  /// connection handler out of their waits.
  void request_stop();

  ServerOptions options_;
  Service service_;
  std::vector<std::pair<std::string, Route>> routes_;
  support::Fd listener_;
  support::CancelToken stop_token_ = support::CancelToken::make();
  std::atomic<bool> stopping_{false};
  std::atomic<std::int64_t> watchdog_culled_{0};
  /// The watchdog waits out each interval on stop_wake_, so a stop wakes
  /// it at once instead of after its next tick.
  std::mutex stop_mutex_;
  std::condition_variable stop_wake_;
  /// Polled next to the listener: request_stop() and the handler that
  /// answers a shutdown request notify it, so the accept loop sees the
  /// stop at once instead of after `poll_interval_ms`.
  support::WakePipe wake_;

  std::mutex slots_mutex_;
  std::vector<std::shared_ptr<RequestSlot>> slots_;

  /// The connections being handled.  request_stop() shuts down their read
  /// side, so a handler idle in its poll sees EOF at once; an answer in
  /// flight still goes out.
  std::mutex connections_mutex_;
  std::vector<const support::Fd*> connections_;

  std::unique_ptr<support::ThreadPool> pool_;
  std::thread watchdog_;
  std::thread accept_thread_;  // start() only
};

}  // namespace mgrts::serve
