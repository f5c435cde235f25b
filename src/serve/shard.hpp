// Shard request/response codec of the distributed batch layer
// (DESIGN.md §16), on top of the serve/wire.hpp framing.
//
// A "shard" request carries everything a worker needs to reproduce a slice
// of a generator batch bit-identically: the generator options, the stream
// seed, the solver line-up as *registry names* (exp::spec_from_name — a
// name plus the budgets fully determines the spec on any build), the
// budgets, and the generator-index list.  Because gen::generate_indexed is
// index-addressable and exp::reseed_for_index keys the per-run seeds by
// generator index, any shard replays the exact instances and seeds of the
// full-stream run — the coordinator's merge is record-identical to a
// single-box batch by construction, not by luck.
//
// Responses stream back over the same connection:
//   "shard-row"  — one exp::InstanceRecord per finished generator index,
//                  in request order (verdicts, causes, nogood stats,
//                  per-propagator rows — the full RunRecord surface);
//   "shard-beat" — per-shard progress heartbeat: the executor's solver
//                  heartbeat plus the completed-row count, so a
//                  coordinator can tell "searching" from "wedged" exactly
//                  like the PR 6/7 watchdogs;
//   "shard-done" — trailer carrying the shard's core::BatchHealth
//                  (failures/retries/recoveries/quarantines inherited
//                  wholesale from core::solve_batch);
//   "error"      — the usual tagged refusal (unknown spec name, malformed
//                  request).
//
// All parse_* functions throw ProtocolError on malformed input; like the
// solve path, a peer must refuse what it cannot parse exactly — never
// guess.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/solve.hpp"
#include "exp/harness.hpp"
#include "gen/generator.hpp"
#include "serve/wire.hpp"

namespace mgrts::serve {

/// One shard of a generator batch: a slice of the index space plus the
/// full recipe for reproducing it.
struct ShardRequest {
  /// Coordinator-chosen tag, echoed on every row/beat/trailer so replies
  /// from a culled predecessor can never be attributed to a new dispatch.
  std::string shard_id;
  gen::GeneratorOptions generator;
  std::uint64_t seed = 42;
  /// Solver line-up as exp::spec_from_name registry names.
  std::vector<std::string> specs;
  /// Wall budget per (instance, solver) run; -1 = unlimited.
  std::int64_t time_limit_ms = -1;
  /// Node budget override; -1 = keep each spec's own default.
  std::int64_t max_nodes = -1;
  /// Variable-budget override (csp::SolverLimits); 0 = spec default.
  std::int64_t max_variables = 0;
  /// Worker-side core::BatchPolicy::max_attempts (retry/quarantine).
  std::int32_t max_attempts = 1;
  /// Generator-stream indices of this shard, in execution order.
  std::vector<std::uint64_t> indices;
};

/// One streamed result row: the shard it belongs to plus the full
/// per-instance record (meta + one RunRecord per requested spec).
struct ShardRow {
  std::string shard_id;
  exp::InstanceRecord record;
};

/// Per-shard progress heartbeat.  `beat` is monotone while the executor
/// makes progress at its head of line: the solver deadline polls of the
/// emitted indices and of the first one not yet emitted, plus the
/// completed-row count (dist::ShardProgress).  A beat that stops changing
/// is a stalled shard; a closed connection is a dead one — both are cull
/// conditions.
struct ShardBeat {
  std::string shard_id;
  std::uint64_t beat = 0;
  std::int64_t done = 0;
  std::int64_t total = 0;
};

/// Shard trailer: row count (the coordinator cross-checks it against what
/// arrived) and the executor's aggregate batch health.
struct ShardDone {
  std::string shard_id;
  std::int64_t rows = 0;
  core::BatchHealth health;  ///< quarantined_jobs stays empty on the wire
};

[[nodiscard]] Message encode_shard_request(const ShardRequest& request);
[[nodiscard]] ShardRequest parse_shard_request(const Message& message);

[[nodiscard]] Message encode_shard_row(const ShardRow& row);
[[nodiscard]] ShardRow parse_shard_row(const Message& message);

[[nodiscard]] Message encode_shard_beat(const ShardBeat& beat);
[[nodiscard]] ShardBeat parse_shard_beat(const Message& message);

[[nodiscard]] Message encode_shard_done(const ShardDone& done);
[[nodiscard]] ShardDone parse_shard_done(const Message& message);

}  // namespace mgrts::serve
