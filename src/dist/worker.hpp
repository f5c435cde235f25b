// Worker half of the distributed batch layer (DESIGN.md §16): the "shard"
// route of the resident daemon's serve::Server.  Both daemon binaries
// register it, so any of them can serve a coordinator, and ping/health/
// shutdown are the server's own — mgrts_ctl drives every daemon alike.
//
// A shard request runs through dist::execute_shard on its connection's
// handler thread plus helpers of the shared pool: max(1, hardware threads
// / the server's handlers) lanes.  The coordinator keeps one shard in
// flight per worker, so the handler count stands for the workers sharing
// the host, which a worker cannot see: mgrts_workerd's 2 handlers on 4
// threads give 2 lanes, right for two workers on one host, and a worker
// alone on its host runs with --workers 1 to get all 4 (DESIGN.md §16
// has the measurements).  mgrts_serverd's 4 handlers give 1.  A beat
// thread samples the executor's progress (the solver polls of its head
// of line + emitted rows, dist::ShardProgress) every beat_interval_ms and
// interleaves "shard-beat" frames between the "shard-row" stream, which
// leaves in request order whatever the lanes.  Both streams leave through
// the server's per-request gate (serve::Reply).
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
/// "shard-beat" frame every `beat_interval_ms` while a shard runs.  The
/// lane count is fixed here, from the server's handler count.
std::shared_ptr<const ShardCounters> add_shard_route(
    serve::Server& server, std::int64_t beat_interval_ms = 100);

}  // namespace mgrts::dist
