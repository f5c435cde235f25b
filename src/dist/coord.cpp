#include "dist/coord.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "dist/shard_exec.hpp"
#include "serve/shard.hpp"
#include "serve/wire.hpp"
#include "support/error.hpp"
#include "support/socket.hpp"

namespace mgrts::dist {

namespace {

using Clock = std::chrono::steady_clock;

struct Shard {
  std::string id;
  std::vector<std::uint64_t> indices;
  std::int32_t attempts = 0;  ///< dispatch attempts so far
};

/// Retryable dispatch failure: transport loss, a stalled beat, a short
/// stream, or a worker refusal.  The shard re-enters the queue (or falls
/// back to local execution); only exhausted recovery surfaces to callers.
struct AttemptFailure {
  std::string reason;
  bool stall = false;
};

struct ShardOutcome {
  std::vector<exp::InstanceRecord> rows;
  core::BatchHealth health;
};

serve::ShardRequest build_request(const exp::BatchOptions& batch,
                                  const std::vector<std::string>& spec_names,
                                  std::int64_t time_limit_ms,
                                  const FleetOptions& fleet,
                                  const Shard& shard) {
  serve::ShardRequest request;
  // The dispatch-attempt suffix makes every dispatch's id unique, so a
  // frame from a culled predecessor can never be attributed to a newer
  // attempt of the same shard.
  request.shard_id = shard.id + "/a" + std::to_string(shard.attempts);
  request.generator = batch.generator;
  request.seed = batch.seed;
  request.specs = spec_names;
  request.time_limit_ms = time_limit_ms;
  request.max_nodes = fleet.max_nodes;
  request.max_variables = fleet.max_variables;
  request.max_attempts = fleet.max_attempts;
  request.indices = shard.indices;
  return request;
}

/// One dispatch attempt over an (already connected) worker connection.
/// Returns the shard's rows+health on a complete trailer; throws
/// AttemptFailure otherwise.  The caller closes the connection on any
/// throw — closing is what fires the worker-side cancel for a cull.
ShardOutcome dispatch_shard(const support::Fd& connection,
                            const serve::ShardRequest& request,
                            const FleetOptions& fleet) {
  try {
    serve::send_frame(connection,
                      serve::format_message(encode_shard_request(request)));
  } catch (const std::exception& e) {
    throw AttemptFailure{std::string("shard send failed: ") + e.what(),
                         false};
  }

  ShardOutcome outcome;
  const auto total = static_cast<std::int64_t>(request.indices.size());
  std::uint64_t last_beat = 0;
  bool beat_seen = false;
  Clock::time_point last_progress = Clock::now();

  const auto check_stall = [&] {
    if (Clock::now() - last_progress >=
        std::chrono::milliseconds(fleet.stall_ms)) {
      throw AttemptFailure{"shard stalled: beat unchanged for " +
                               std::to_string(fleet.stall_ms) + " ms",
                           true};
    }
  };

  for (;;) {
    bool readable = false;
    try {
      readable = support::wait_readable(connection, fleet.poll_interval_ms);
    } catch (const std::exception& e) {
      throw AttemptFailure{std::string("worker poll failed: ") + e.what(),
                           false};
    }
    if (!readable) {
      // Silence is judged by the same clock as a frozen beat: a worker
      // that stopped sending anything at all is as culled as one beating
      // in place.
      check_stall();
      continue;
    }

    std::string payload;
    serve::Message message;
    try {
      if (!serve::recv_frame(connection, payload, 10'000)) {
        throw support::SocketError("worker closed mid-shard");
      }
      message = serve::parse_message(payload);
    } catch (const std::exception& e) {
      throw AttemptFailure{std::string("worker stream failed: ") + e.what(),
                           false};
    }

    if (message.kind == "shard-beat") {
      const serve::ShardBeat beat = serve::parse_shard_beat(message);
      if (beat.shard_id != request.shard_id) continue;  // stale attempt
      if (!beat_seen || beat.beat != last_beat) {
        beat_seen = true;
        last_beat = beat.beat;
        last_progress = Clock::now();
      } else {
        check_stall();
      }
      continue;
    }
    if (message.kind == "shard-row") {
      serve::ShardRow row = serve::parse_shard_row(message);
      if (row.shard_id != request.shard_id) continue;  // stale attempt
      outcome.rows.push_back(std::move(row.record));
      last_progress = Clock::now();
      continue;
    }
    if (message.kind == "shard-done") {
      const serve::ShardDone done = serve::parse_shard_done(message);
      if (done.shard_id != request.shard_id) continue;  // stale attempt
      if (done.rows != total ||
          static_cast<std::int64_t>(outcome.rows.size()) != total) {
        // A cancelled/stopping worker trailers honestly with fewer rows;
        // the shard is simply not done and re-dispatches whole.
        throw AttemptFailure{
            "short shard: " + std::to_string(outcome.rows.size()) + "/" +
                std::to_string(total) + " rows",
            false};
      }
      outcome.health = done.health;
      return outcome;
    }
    if (message.kind == "error") {
      throw AttemptFailure{"worker refused shard: " + message.body, false};
    }
    throw AttemptFailure{"unexpected frame kind '" + message.kind +
                             "' mid-shard",
                         false};
  }
}

}  // namespace

std::vector<std::vector<std::uint64_t>> plan_shards(
    const std::vector<std::uint64_t>& indices, std::int32_t shard_count) {
  std::vector<std::vector<std::uint64_t>> shards;
  if (indices.empty()) return shards;
  const std::size_t count = std::clamp<std::size_t>(
      shard_count < 1 ? 1 : static_cast<std::size_t>(shard_count), 1,
      indices.size());
  const std::size_t base = indices.size() / count;
  const std::size_t extra = indices.size() % count;
  std::size_t pos = 0;
  shards.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    const std::size_t len = base + (s < extra ? 1 : 0);
    shards.emplace_back(indices.begin() + static_cast<std::ptrdiff_t>(pos),
                        indices.begin() +
                            static_cast<std::ptrdiff_t>(pos + len));
    pos += len;
  }
  return shards;
}

exp::BatchResult run_fleet(const exp::BatchOptions& batch,
                           const std::vector<std::string>& spec_names,
                           std::int64_t time_limit_ms,
                           const FleetOptions& fleet, FleetStats* stats_out) {
  // Resolve the line-up locally first: labels for the result, and an
  // unknown name fails here — before any dispatch — with the same
  // ValidationError the executor would throw.
  if (spec_names.empty()) throw ValidationError("no specs named");
  // Workers refuse a shard whose max-attempts lies outside this range.
  if (fleet.max_attempts < 1 || fleet.max_attempts > serve::kMaxAttempts) {
    throw ValidationError("max_attempts must lie in 1.." +
                          std::to_string(serve::kMaxAttempts));
  }
  exp::BatchResult result;
  for (const std::string& name : spec_names) {
    const auto spec = exp::spec_from_name(name, time_limit_ms, batch.seed);
    if (!spec.has_value()) {
      throw ValidationError("unknown spec name: '" + name + "'");
    }
    result.labels.push_back(spec->label);
  }

  // The merge is keyed by generator index; a duplicated index would make
  // "record-identical to the single-box run" ill-defined.
  std::vector<std::uint64_t> indices = batch.indices;
  if (indices.empty()) {
    indices.reserve(static_cast<std::size_t>(batch.instances));
    for (std::int64_t k = 0; k < batch.instances; ++k) {
      indices.push_back(static_cast<std::uint64_t>(k));
    }
  }
  {
    std::unordered_set<std::uint64_t> seen;
    for (const std::uint64_t index : indices) {
      if (!seen.insert(index).second) {
        throw ValidationError("duplicate generator index " +
                              std::to_string(index) + " in the batch");
      }
    }
  }

  FleetStats stats;
  if (indices.empty()) {
    if (stats_out != nullptr) *stats_out = stats;
    return result;
  }

  const std::int32_t shard_count =
      fleet.shards > 0
          ? fleet.shards
          : (fleet.workers.empty()
                 ? 1
                 : static_cast<std::int32_t>(fleet.workers.size()) * 2);
  std::deque<Shard> queue;
  {
    const auto plans = plan_shards(indices, shard_count);
    for (std::size_t s = 0; s < plans.size(); ++s) {
      queue.push_back(Shard{"s" + std::to_string(s), plans[s], 0});
    }
  }
  stats.shards = static_cast<std::int32_t>(queue.size());

  std::unordered_map<std::uint64_t, exp::InstanceRecord> merged;
  merged.reserve(indices.size());
  const auto commit = [&](std::vector<exp::InstanceRecord> rows,
                          const core::BatchHealth& health) {
    for (exp::InstanceRecord& row : rows) {
      const std::uint64_t index = row.index;
      if (!merged.emplace(index, std::move(row)).second) {
        ++stats.duplicate_rows;  // dropped: first complete shard wins
      }
    }
    result.health.merge(health);
  };

  const auto run_local = [&](const Shard& shard) {
    const serve::ShardRequest request =
        build_request(batch, spec_names, time_limit_ms, fleet, shard);
    ShardExecution execution =
        execute_shard(request, support::CancelToken(), nullptr, nullptr);
    return ShardOutcome{std::move(execution.rows),
                        std::move(execution.health)};
  };

  if (fleet.workers.empty()) {
    // Workerless reference path: same shards, same executor, in-process.
    while (!queue.empty()) {
      const Shard shard = std::move(queue.front());
      queue.pop_front();
      ShardOutcome outcome = run_local(shard);
      commit(std::move(outcome.rows), outcome.health);
    }
  } else {
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<Shard> fallback;
    // Shards not yet committed or moved to fallback; dispatch threads run
    // until this hits zero, so an idle worker outlives a straggling one
    // and picks up its re-dispatched shard.
    std::size_t outstanding = queue.size();

    const auto dispatch_loop = [&](const std::string& socket_path) {
      support::Fd connection;
      std::unique_lock<std::mutex> lock(mutex);
      while (outstanding > 0) {
        if (queue.empty()) {
          // Another worker's in-flight shard may yet fail and re-enter
          // the queue; wake on any queue/outstanding change.
          cv.wait_for(lock, std::chrono::milliseconds(50));
          continue;
        }
        Shard shard = std::move(queue.front());
        queue.pop_front();
        ++shard.attempts;
        lock.unlock();

        bool committed = false;
        AttemptFailure failure;
        try {
          if (!connection.valid()) {
            connection = support::connect_unix(socket_path);
          }
          const serve::ShardRequest request =
              build_request(batch, spec_names, time_limit_ms, fleet, shard);
          ShardOutcome outcome = dispatch_shard(connection, request, fleet);
          lock.lock();
          commit(std::move(outcome.rows), outcome.health);
          --outstanding;
          committed = true;
          cv.notify_all();
        } catch (const AttemptFailure& f) {
          failure = f;
        } catch (const support::SocketError& e) {
          failure = AttemptFailure{e.what(), false};
        } catch (const serve::ProtocolError& e) {
          failure = AttemptFailure{e.what(), false};
        }

        if (!committed) {
          // Closing the connection is the cull: the worker's next write
          // fails, its shard cancel fires, and the executor stops.
          connection.close();
          lock.lock();
          if (failure.stall) {
            ++stats.stall_culls;
          } else {
            ++stats.transport_failures;
          }
          if (shard.attempts <
              std::max<std::int32_t>(fleet.max_dispatch_attempts, 1)) {
            ++stats.redispatched;
            queue.push_back(std::move(shard));
          } else {
            fallback.push_back(std::move(shard));
            --outstanding;
          }
          cv.notify_all();
          // Don't immediately re-pull against a refusing/downed worker:
          // let the loop re-examine the queue after other workers had a
          // chance to claim the shard.
          cv.wait_for(lock, std::chrono::milliseconds(10));
        }
      }
      cv.notify_all();
    };

    std::vector<std::thread> dispatchers;
    dispatchers.reserve(fleet.workers.size());
    for (const std::string& socket_path : fleet.workers) {
      dispatchers.emplace_back(dispatch_loop, socket_path);
    }
    for (std::thread& thread : dispatchers) thread.join();

    for (const Shard& shard : fallback) {
      if (!fleet.local_fallback) {
        throw Error("shard " + shard.id + " undeliverable after " +
                    std::to_string(shard.attempts) +
                    " dispatch attempts (local fallback disabled)");
      }
      ++stats.local_fallbacks;
      ShardOutcome outcome = run_local(shard);
      commit(std::move(outcome.rows), outcome.health);
    }
  }

  // Merge in batch order; every index must be accounted for exactly once.
  result.instances.reserve(indices.size());
  for (const std::uint64_t index : indices) {
    const auto it = merged.find(index);
    if (it == merged.end()) {
      throw Error("merge lost generator index " + std::to_string(index));
    }
    result.instances.push_back(std::move(it->second));
  }
  if (stats_out != nullptr) *stats_out = stats;
  return result;
}

}  // namespace mgrts::dist
