#include "dist/worker.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "dist/shard_exec.hpp"
#include "serve/shard.hpp"
#include "support/error.hpp"

namespace mgrts::dist {

namespace {

void serve_shard(const serve::Message& request_message, serve::Reply& reply,
                 std::int64_t beat_interval_ms, std::size_t lanes,
                 ShardCounters& counters) {
  serve::ShardRequest request;
  try {
    request = serve::parse_shard_request(request_message);
  } catch (const serve::ProtocolError& e) {
    ++counters.refused;
    reply.send(serve::error_message("protocol", e.what()));
    return;
  }
  ++counters.shards;

  ShardProgress progress(request.indices.size());

  // The beat thread waits out each interval on a condition variable, so
  // the end of the shard wakes it at once: the trailer below never waits
  // for the next beat tick.
  std::mutex beat_mutex;
  std::condition_variable beat_wake;
  bool done = false;
  std::thread beater([&] {
    const auto interval =
        std::chrono::milliseconds(std::max<std::int64_t>(beat_interval_ms, 1));
    std::unique_lock<std::mutex> lock(beat_mutex);
    while (!beat_wake.wait_for(lock, interval, [&] { return done; })) {
      lock.unlock();
      serve::ShardBeat beat;
      beat.shard_id = request.shard_id;
      beat.beat = progress.beat();
      beat.done = progress.completed();
      beat.total = static_cast<std::int64_t>(request.indices.size());
      if (!reply.send(serve::encode_shard_beat(beat))) break;
      lock.lock();
    }
  });

  std::string refusal_kind;
  std::string refusal_text;
  ShardExecution result;
  try {
    result = execute_shard(
        request, reply.cancel(), &progress,
        [&](const exp::InstanceRecord& record) {
          serve::ShardRow row;
          row.shard_id = request.shard_id;
          row.record = record;
          if (!reply.send(serve::encode_shard_row(row))) {
            throw support::SocketError(
                "coordinator connection lost mid-shard");
          }
          ++counters.rows;
        },
        lanes);
  } catch (const ValidationError& e) {
    refusal_kind = "validation";
    refusal_text = e.what();
  } catch (const support::SocketError&) {
    // Row write failed; the gate has the connection marked failed.
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

  if (reply.failed()) {
    ++counters.aborted;
    return;
  }
  if (!refusal_kind.empty()) {
    ++counters.refused;
    reply.send(serve::error_message(refusal_kind, refusal_text));
    return;
  }

  // The trailer carries the row count even for a cancelled shard (rows <
  // indices): the coordinator cross-checks and re-dispatches the shortfall
  // as a whole-shard retry.
  serve::ShardDone trailer;
  trailer.shard_id = request.shard_id;
  trailer.rows = static_cast<std::int64_t>(result.row_count);
  trailer.health = result.health;
  if (!reply.send(serve::encode_shard_done(trailer))) ++counters.aborted;
}

}  // namespace

std::shared_ptr<const ShardCounters> add_shard_route(
    serve::Server& server, std::int64_t beat_interval_ms) {
  auto counters = std::make_shared<ShardCounters>();
  // The coordinator keeps one shard in flight per worker, so the handler
  // count stands for what a worker cannot see, the workers sharing its
  // host (DESIGN.md §16): a worker alone on its host runs with one
  // handler and gets every hardware thread.
  const std::size_t lanes = std::max<std::size_t>(
      1, std::thread::hardware_concurrency() / server.handlers());
  serve::Route route;
  route.handle = [counters, beat_interval_ms, lanes](
                     const serve::Message& request, serve::Reply& reply) {
    serve_shard(request, reply, beat_interval_ms, lanes, *counters);
  };
  route.health = [counters](serve::Message& health) {
    health.set("shards", counters->shards.load());
    health.set("rows", counters->rows.load());
    health.set("aborted", counters->aborted.load());
    health.set("refused", counters->refused.load());
  };
  server.add_route("shard", std::move(route));
  return counters;
}

}  // namespace mgrts::dist
