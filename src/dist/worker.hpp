// Worker half of the distributed batch layer (DESIGN.md §16): the "shard"
// route of the resident daemon's serve::Server.  Both daemon binaries
// register it, so any of them can serve a coordinator, and ping/health/
// shutdown are the server's own — mgrts_ctl drives every daemon alike.
//
// A shard request runs on its connection's handler thread through
// dist::execute_shard, while a beat thread samples the executor's progress
// (solver heartbeat + completed rows) every beat_interval_ms and
// interleaves "shard-beat" frames between the "shard-row" stream.  Both
// streams leave through the server's per-request gate (serve::Reply).
//
// Failure behavior is the straggler contract's worker half: when a write
// fails (the coordinator culled us, or died), the gate cancels the
// request's token, the in-flight solve aborts at its next deadline poll,
// and the server drops the connection — the coordinator's re-dispatch owns
// the indices from then on.  A malformed or unresolvable request gets a
// tagged "error" response, never silence.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "serve/server.hpp"

namespace mgrts::dist {

/// Monotone counters of the shard route, appended to "health" responses.
struct ShardCounters {
  std::atomic<std::int64_t> shards{0};   ///< shard requests accepted
  std::atomic<std::int64_t> rows{0};     ///< rows streamed back
  std::atomic<std::int64_t> aborted{0};  ///< dropped mid-stream (peer loss)
  std::atomic<std::int64_t> refused{0};  ///< tagged "error" responses sent
};

/// Registers the "shard" route on `server`, before it serves, with a
/// "shard-beat" frame every `beat_interval_ms` while a shard runs.
std::shared_ptr<const ShardCounters> add_shard_route(
    serve::Server& server, std::int64_t beat_interval_ms = 100);

}  // namespace mgrts::dist
