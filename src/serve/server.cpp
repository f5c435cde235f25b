#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string_view>
#include <utility>

#include "serve/wire.hpp"

namespace mgrts::serve {

namespace {

/// The kind on a payload's tag line, or empty when that line is malformed;
/// parse_message reads the same kind from a well-formed payload.
std::string_view peek_kind(std::string_view payload) {
  const std::string_view tag = kProtoTag;
  if (payload.substr(0, tag.size()) != tag ||
      payload.substr(tag.size(), 1) != " ") {
    return {};
  }
  payload.remove_prefix(tag.size() + 1);
  const std::size_t eol = payload.find('\n');
  return eol == std::string_view::npos ? std::string_view{}
                                       : payload.substr(0, eol);
}

}  // namespace

bool Reply::send(const Message& message) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (failed()) return false;
  try {
    send_frame(connection_, format_message(message));
    return true;
  } catch (const std::exception&) {
    failed_.store(true, std::memory_order_relaxed);
    cancel_.cancel();
    return false;
  }
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      service_(options_.service),
      listener_(support::listen_unix(options_.socket_path)),
      pool_(std::make_unique<support::ThreadPool>(
          std::max<std::size_t>(options_.workers, 1))) {
  // "health" is the server's own route: the Service's counters, then
  // every route's.
  Route health;
  health.handle = [this](const Message& request, Reply& reply) {
    Message response = service_.handle_message(request);
    for (const auto& [kind, route] : routes_) {
      if (route.health) route.health(response);
    }
    reply.send(response);
  };
  add_route("health", std::move(health));
  if (options_.watchdog_stall_ms > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

Server::~Server() {
  stop();
  std::remove(options_.socket_path.c_str());
}

void Server::add_route(std::string kind, Route route) {
  routes_.emplace_back(std::move(kind), std::move(route));
}

const Route* Server::route_for(const std::string& payload,
                               Message& request) const {
  const std::string_view kind = peek_kind(payload);
  for (const auto& [name, route] : routes_) {
    if (name != kind) continue;
    try {
      request = parse_message(payload);
    } catch (const ProtocolError&) {
      return nullptr;
    }
    return &route;
  }
  return nullptr;
}

void Server::run() {
  while (!stopping_.load(std::memory_order_relaxed) &&
         !service_.shutdown_requested()) {
    support::Fd connection =
        support::accept_unix(listener_, options_.poll_interval_ms, wake_.fd());
    if (!connection.valid()) continue;  // timeout or wake: poll the flags
    auto shared = std::make_shared<support::Fd>(std::move(connection));
    pool_->submit([this, shared] { handle_connection(std::move(*shared)); });
  }
  // Graceful drain: no new connections, in-flight solves cancelled
  // cooperatively, idle handlers woken by their connection's EOF.
  request_stop();
  stop_token_.cancel();
  pool_->wait_idle();
}

void Server::start() {
  accept_thread_ = std::thread([this] { run(); });
}

void Server::request_stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stopping_.store(true, std::memory_order_relaxed);
  }
  stop_wake_.notify_all();
  wake_.notify();
  std::lock_guard<std::mutex> lock(connections_mutex_);
  for (const support::Fd* connection : connections_) {
    connection->shutdown_read();
  }
}

void Server::stop() {
  request_stop();
  stop_token_.cancel();
  if (accept_thread_.joinable() &&
      accept_thread_.get_id() != std::this_thread::get_id()) {
    accept_thread_.join();
  }
  if (watchdog_.joinable() &&
      watchdog_.get_id() != std::this_thread::get_id()) {
    watchdog_.join();
  }
  pool_->wait_idle();
}

void Server::handle_connection(support::Fd connection) {
  // Registered while it is served (see connections_).  A handler that
  // registers after request_stop() swept the list sees stopping_ here.
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    if (stopping_.load(std::memory_order_relaxed)) return;
    connections_.push_back(&connection);
  }
  struct Registration {
    Server& server;
    const support::Fd* connection;
    ~Registration() {
      std::lock_guard<std::mutex> lock(server.connections_mutex_);
      std::erase(server.connections_, connection);
    }
  } registration{*this, &connection};

  while (!stopping_.load(std::memory_order_relaxed)) {
    bool readable = false;
    try {
      readable = support::wait_readable(connection, options_.poll_interval_ms);
    } catch (const support::SocketError&) {
      return;
    }
    if (!readable) continue;  // idle: poll the stop flag

    std::string payload;
    try {
      // Once bytes are pending, a whole frame should follow promptly; the
      // bounded per-chunk timeout keeps a byte-dribbling peer from pinning
      // this worker past the watchdog's reach.
      if (!recv_frame(connection, payload, 10'000)) return;  // clean EOF
    } catch (const ProtocolError& e) {
      // Oversized/corrupt length: answer, then close — after a framing
      // error the stream offset is unreliable.
      try {
        send_frame(connection,
                   format_message(error_message("protocol", e.what())));
      } catch (const support::SocketError&) {
      }
      return;
    } catch (const support::SocketError&) {
      return;  // transport failure or mid-frame EOF: nothing to answer
    }

    Message request;
    if (const Route* route = route_for(payload, request)) {
      Reply reply(connection, support::CancelToken::linked(stop_token_));
      try {
        route->handle(request, reply);
      } catch (const std::exception& e) {
        reply.send(error_message("internal", e.what()));
      }
      if (reply.failed()) return;  // peer vanished mid-stream
      continue;
    }

    auto slot = std::make_shared<RequestSlot>();
    slot->heartbeat = std::make_shared<std::atomic<std::uint64_t>>(0);
    slot->token = support::CancelToken::linked(stop_token_);
    slot->last_change = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(slots_mutex_);
      slots_.push_back(slot);
    }
    const std::string response =
        service_.handle(payload, RequestContext{slot->token, slot->heartbeat});
    {
      std::lock_guard<std::mutex> lock(slots_mutex_);
      slots_.erase(std::remove(slots_.begin(), slots_.end(), slot),
                   slots_.end());
    }
    // A shutdown request ends the accept loop now, not at its next poll.
    if (service_.shutdown_requested()) wake_.notify();

    try {
      send_frame(connection, response);
    } catch (const support::SocketError&) {
      return;  // peer vanished mid-answer; the solve result is simply lost
    }
    if (service_.shutdown_requested()) return;  // "bye" sent; close our end
  }
}

void Server::watchdog_loop() {
  const std::int64_t stall_ms = options_.watchdog_stall_ms;
  const auto interval = std::chrono::milliseconds(
      std::clamp<std::int64_t>(stall_ms / 4, 5, 250));
  std::unique_lock<std::mutex> wait_lock(stop_mutex_);
  while (!stop_wake_.wait_for(wait_lock, interval, [this] {
    return stopping_.load(std::memory_order_relaxed);
  })) {
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(slots_mutex_);
    for (const auto& slot : slots_) {
      if (slot->culled) continue;
      const std::uint64_t beat =
          slot->heartbeat->load(std::memory_order_relaxed);
      if (beat != slot->last_beat) {
        slot->last_beat = beat;
        slot->last_change = now;
        continue;
      }
      // Only a request that has started polling (beat > 0) can stall; one
      // still parsing or queueing has no heartbeat to judge.
      if (beat > 0 &&
          now - slot->last_change >= std::chrono::milliseconds(stall_ms)) {
        slot->token.cancel();
        slot->culled = true;
        watchdog_culled_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

}  // namespace mgrts::serve
