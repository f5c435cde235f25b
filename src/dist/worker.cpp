#include "dist/worker.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <utility>

#include "dist/shard_exec.hpp"
#include "serve/shard.hpp"
#include "support/error.hpp"

namespace mgrts::dist {

namespace {

serve::Message refusal(const std::string& kind, const std::string& detail) {
  serve::Message error;
  error.kind = "error";
  error.set("error-kind", kind);
  error.set("verdict", core::to_string(core::Verdict::kUnknown));
  error.set("cause", core::to_string(core::FailureCause::kNone));
  error.body = detail;
  return error;
}

}  // namespace

WorkerServer::WorkerServer(WorkerOptions options)
    : options_(std::move(options)),
      listener_(support::listen_unix(options_.socket_path)),
      pool_(std::make_unique<support::ThreadPool>(
          std::max<std::size_t>(options_.handlers, 1))) {}

WorkerServer::~WorkerServer() {
  stop();
  std::remove(options_.socket_path.c_str());
}

void WorkerServer::run() {
  while (!stopping_.load(std::memory_order_relaxed) &&
         !shutdown_requested_.load(std::memory_order_relaxed)) {
    support::Fd connection =
        support::accept_unix(listener_, options_.poll_interval_ms);
    if (!connection.valid()) continue;  // timeout: poll the flags again
    auto shared = std::make_shared<support::Fd>(std::move(connection));
    pool_->submit([this, shared] { handle_connection(std::move(*shared)); });
  }
  stopping_.store(true, std::memory_order_relaxed);
  stop_token_.cancel();
  pool_->wait_idle();
}

void WorkerServer::start() {
  accept_thread_ = std::thread([this] { run(); });
}

void WorkerServer::stop() {
  stopping_.store(true, std::memory_order_relaxed);
  stop_token_.cancel();
  if (accept_thread_.joinable() &&
      accept_thread_.get_id() != std::this_thread::get_id()) {
    accept_thread_.join();
  }
  pool_->wait_idle();
}

WorkerCounters WorkerServer::counters() const {
  std::lock_guard<std::mutex> lock(counters_mutex_);
  return counters_;
}

void WorkerServer::handle_connection(support::Fd connection) {
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
      if (!serve::recv_frame(connection, payload, 10'000)) return;
    } catch (const serve::ProtocolError& e) {
      try {
        serve::send_frame(connection,
                          serve::format_message(refusal("protocol", e.what())));
      } catch (const support::SocketError&) {
      }
      return;  // after a framing error the stream offset is unreliable
    } catch (const support::SocketError&) {
      return;
    }

    serve::Message message;
    try {
      message = serve::parse_message(payload);
    } catch (const serve::ProtocolError& e) {
      // Framing was intact, only the payload was malformed — answer and
      // keep the connection (the solve daemon's Service does the same).
      try {
        serve::send_frame(connection,
                          serve::format_message(refusal("parse", e.what())));
      } catch (const support::SocketError&) {
        return;
      }
      continue;
    }

    try {
      if (message.kind == "ping") {
        serve::Message pong;
        pong.kind = "pong";
        serve::send_frame(connection, serve::format_message(pong));
        continue;
      }
      if (message.kind == "health") {
        const WorkerCounters counters = this->counters();
        serve::Message health;
        health.kind = "health";
        health.set("shards", counters.shards);
        health.set("rows", counters.rows);
        health.set("aborted", counters.aborted);
        health.set("refused", counters.refused);
        serve::send_frame(connection, serve::format_message(health));
        continue;
      }
      if (message.kind == "shutdown") {
        serve::Message bye;
        bye.kind = "bye";
        serve::send_frame(connection, serve::format_message(bye));
        shutdown_requested_.store(true, std::memory_order_relaxed);
        return;
      }
      if (message.kind == "shard") {
        if (!handle_shard(connection, message)) return;
        continue;
      }
      serve::send_frame(
          connection,
          serve::format_message(refusal(
              "validation", "unknown request kind: '" + message.kind + "'")));
    } catch (const support::SocketError&) {
      return;  // peer vanished mid-answer
    }
  }
}

bool WorkerServer::handle_shard(const support::Fd& connection,
                                const serve::Message& request_message) {
  serve::ShardRequest request;
  try {
    request = serve::parse_shard_request(request_message);
  } catch (const serve::ProtocolError& e) {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.refused;
    serve::send_frame(connection,
                      serve::format_message(refusal("validation", e.what())));
    return true;
  }
  {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.shards;
  }

  ShardProgress progress;
  const support::CancelToken cancel = support::CancelToken::linked(stop_token_);

  // All frames of one shard leave through this gate: row stream and beat
  // stream interleave on one connection, and the first failed write flips
  // the shard to aborted — the coordinator is gone, so the cancel token
  // stops the executor at its next poll instead of finishing unread work.
  std::mutex write_mutex;
  std::atomic<bool> write_failed{false};
  const auto send = [&](const serve::Message& message) -> bool {
    std::lock_guard<std::mutex> lock(write_mutex);
    if (write_failed.load(std::memory_order_relaxed)) return false;
    try {
      serve::send_frame(connection, serve::format_message(message));
      return true;
    } catch (const std::exception&) {
      write_failed.store(true, std::memory_order_relaxed);
      cancel.cancel();
      return false;
    }
  };

  // The beat thread waits out each interval on a condition variable, so
  // the end of the shard wakes it at once: the trailer below never waits
  // for the next beat tick.
  std::mutex beat_mutex;
  std::condition_variable beat_wake;
  bool done = false;
  std::thread beater([&] {
    const auto interval = std::chrono::milliseconds(
        std::max<std::int64_t>(options_.beat_interval_ms, 1));
    std::unique_lock<std::mutex> lock(beat_mutex);
    while (!beat_wake.wait_for(lock, interval, [&] { return done; })) {
      lock.unlock();
      serve::ShardBeat beat;
      beat.shard_id = request.shard_id;
      beat.beat = progress.beat();
      beat.done = progress.completed.load(std::memory_order_relaxed);
      beat.total = static_cast<std::int64_t>(request.indices.size());
      if (!send(serve::encode_shard_beat(beat))) break;
      lock.lock();
    }
  });

  std::string refusal_kind;
  std::string refusal_text;
  ShardExecution result;
  try {
    result = execute_shard(request, cancel, &progress,
                           [&](const exp::InstanceRecord& record) {
      serve::ShardRow row;
      row.shard_id = request.shard_id;
      row.record = record;
      if (!send(serve::encode_shard_row(row))) {
        throw support::SocketError("coordinator connection lost mid-shard");
      }
      std::lock_guard<std::mutex> lock(counters_mutex_);
      ++counters_.rows;
    });
  } catch (const ValidationError& e) {
    refusal_kind = "validation";
    refusal_text = e.what();
  } catch (const support::SocketError&) {
    // Row write failed; fall through to the aborted path below.
  } catch (const std::exception& e) {
    refusal_kind = "internal";
    refusal_text = e.what();
  }

  {
    std::lock_guard<std::mutex> lock(beat_mutex);
    done = true;
  }
  beat_wake.notify_one();
  beater.join();

  if (write_failed.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.aborted;
    return false;
  }
  if (!refusal_kind.empty()) {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.refused;
    return send(refusal(refusal_kind, refusal_text));
  }

  // The trailer carries the row count even for a cancelled shard (rows <
  // indices): the coordinator cross-checks and re-dispatches the shortfall
  // as a whole-shard retry.
  serve::ShardDone trailer;
  trailer.shard_id = request.shard_id;
  trailer.rows = static_cast<std::int64_t>(result.rows.size());
  trailer.health = result.health;
  if (!send(serve::encode_shard_done(trailer))) {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.aborted;
    return false;
  }
  return true;
}

}  // namespace mgrts::dist
