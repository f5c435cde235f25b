// Coordinator side of the distributed batch layer (DESIGN.md §16): shard
// planner, dispatch queue, straggler policy, and exactly-once merge.
//
// The coordinator partitions a generator batch's index list into
// contiguous shards, dispatches them to worker daemons over the serve wire
// ("shard" requests, streamed rows back), and merges the rows by generator
// index into one exp::BatchResult that is record-identical to a single-box
// exp::run_batch — the executor both sides share makes that a construction
// property, and the workerless path (empty FleetOptions::workers) runs the
// very same executor in-process, so tests can compare the two pipelines
// end to end.
//
// Straggler policy, in the mold of the PR 6 portfolio watchdog and the
// PR 7 serving watchdog: every dispatched shard streams progress beats
// (solver heartbeat + completed rows); a shard whose beat value stands
// still for stall_ms — or whose connection dies — is culled (connection
// closed, which fires the worker-side cancel) and its whole index list
// re-enters the dispatch queue.  Rows are committed only when a shard's
// "shard-done" trailer accounts for every index, so a culled shard's
// partial stream merges nothing and a re-dispatch can never duplicate a
// record.  A shard that exhausts max_dispatch_attempts falls back to
// in-process execution (local_fallback) — a straggler costs one
// re-dispatch, never the run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/harness.hpp"

namespace mgrts::dist {

struct FleetOptions {
  /// AF_UNIX socket paths of the worker daemons.  Empty = no fleet: every
  /// shard runs in-process through the same executor (the single-box
  /// reference path).
  std::vector<std::string> workers;
  /// Shard count; 0 derives two shards per worker (re-dispatching a
  /// straggler then costs half a worker's slice, not a worker's whole
  /// share), floored at one.  Clamped to the index count.
  std::int32_t shards = 0;
  /// Cull threshold: a dispatched shard whose beat value is unchanged for
  /// this long is a straggler.  Generous default — a healthy worker beats
  /// every beat_interval_ms and the beat moves at every deadline poll.
  std::int64_t stall_ms = 5'000;
  /// Read-poll cadence while waiting on a worker's stream.
  std::int64_t poll_interval_ms = 100;
  /// Dispatch attempts per shard before it falls back to local execution.
  std::int32_t max_dispatch_attempts = 3;
  /// Run undeliverable shards in-process instead of failing the batch.
  /// Off, an exhausted shard throws — only for tests that pin the policy.
  bool local_fallback = true;
  /// Worker-side core::BatchPolicy::max_attempts (retry/quarantine),
  /// 1..serve::kMaxAttempts.
  std::int32_t max_attempts = 1;
  /// Per-run node-budget override; -1 = keep each spec's default.
  std::int64_t max_nodes = -1;
  /// Per-run variable-budget override; 0 = keep each spec's default.
  std::int64_t max_variables = 0;
};

/// What the fleet did, for ledgers and the chaos tests' contract pins.
struct FleetStats {
  std::int32_t shards = 0;             ///< shards planned
  std::int32_t redispatched = 0;       ///< shard re-entries into the queue
  std::int32_t stall_culls = 0;        ///< culled for a frozen beat
  std::int32_t transport_failures = 0; ///< connect/read/write/short-stream
  std::int64_t duplicate_rows = 0;     ///< merged-twice rows dropped (0 ⇔
                                       ///< the exactly-once contract held)
  std::int32_t local_fallbacks = 0;    ///< shards run in-process after
                                       ///< exhausting dispatch attempts
};

/// Contiguous partition of `indices` into `shard_count` slices (clamped to
/// [1, indices.size()]); sizes differ by at most one and concatenation
/// reproduces the input order.  Exposed for the boundary-adversarial
/// determinism tests.
[[nodiscard]] std::vector<std::vector<std::uint64_t>> plan_shards(
    const std::vector<std::uint64_t>& indices, std::int32_t shard_count);

/// Runs the batch across the fleet and merges the rows.  The result's
/// instances follow the batch's index order (0..instances-1, or
/// BatchOptions::indices verbatim).  Throws ValidationError for unknown
/// spec names, duplicate indices (merge is keyed by index) or a
/// max_attempts outside 1..serve::kMaxAttempts, and
/// support-layer errors only when every recovery avenue (re-dispatch,
/// local fallback) is exhausted or disabled.
[[nodiscard]] exp::BatchResult run_fleet(
    const exp::BatchOptions& batch, const std::vector<std::string>& spec_names,
    std::int64_t time_limit_ms, const FleetOptions& fleet,
    FleetStats* stats = nullptr);

}  // namespace mgrts::dist
