// Shard executor: runs one serve::ShardRequest to completion on the local
// machine, producing exactly the records the in-process harness would
// (DESIGN.md §16).
//
// This is the single implementation both sides of the distributed layer
// share: mgrts_workerd runs it behind the wire, and the coordinator runs
// it in-process for local fallback (a shard no worker could complete) and
// for the workerless single-box path the determinism tests compare
// against.  Determinism by construction: the instance comes from
// gen::generate_indexed, the per-run seeds from exp::reseed_for_index, and
// the record projection from exp::record_from_report — the same three
// functions exp::run_batch uses.
//
// Each generator index runs through core::solve_batch (workers=1, the
// request's max_attempts), so the retry/quarantine containment contract is
// inherited wholesale rather than reimplemented: a crash-type failure is
// retried with wider budgets, an exhausted job is quarantined with its
// FailureCause on the record, and no index is ever lost.  A shard's
// indices may run on several lanes (threads of the shared pool, the
// caller's among them), one single-threaded index per lane at a time;
// rows, health and progress still leave in request order, so the lane
// count changes no record.  The daemons' shard route picks the lane count
// (dist/worker.hpp); the coordinator's in-process paths run one lane.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/solve.hpp"
#include "exp/harness.hpp"
#include "serve/shard.hpp"
#include "support/deadline.hpp"

namespace mgrts::dist {

/// Progress surface of a running shard, sampled by the worker's beat
/// sender.  Each index's solves tick their own poll counter at every
/// deadline poll.  The beat — the wire's ShardBeat::beat — follows the
/// head of line, the first index not yet emitted: it sums the emitted
/// rows and the polls of the emitted indices and of the head.  Lanes that
/// solve past the head do not move it, so a stalled head freezes the beat
/// at once, as on one lane, and the coordinator culls the shard after
/// stall_ms whatever the other lanes do (DESIGN.md §16).  Monotone while
/// the head makes progress.
class ShardProgress {
 public:
  /// `count` is the number of indices in the shard's request.
  explicit ShardProgress(std::size_t count);

  /// The poll counter of the request's k-th index.
  [[nodiscard]] std::shared_ptr<std::atomic<std::uint64_t>> polls(
      std::size_t k) const;
  /// One more row emitted: the head moves on to the next index.
  void emitted() noexcept {
    completed_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t completed() const noexcept {
    return completed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t beat() const noexcept;

 private:
  std::shared_ptr<std::vector<std::atomic<std::uint64_t>>> polls_;
  std::atomic<std::int64_t> completed_{0};
};

struct ShardExecution {
  /// One record per emitted index, in request order, when no sink was
  /// given; a sink receives the rows instead, and this stays empty.
  std::vector<exp::InstanceRecord> rows;
  /// Rows emitted, to `rows` or to the sink.  Short of the request only
  /// when the cancel token fired mid-shard.
  std::size_t row_count = 0;
  core::BatchHealth health;
};

/// Called once per emitted row, in request order, from one lane at a time.
/// A sink that throws aborts the shard (the worker uses this when the
/// coordinator's connection dies: no reader, no point finishing).
using RowSink = std::function<void(const exp::InstanceRecord&)>;

/// Runs the shard on `lanes` threads (1 = a serial loop on the caller's
/// thread); a `progress` must be sized for the request.  Throws
/// ValidationError for an unknown spec name (refuse, don't guess — the
/// coordinator validates names before dispatching, so this only fires for
/// version-skewed peers).  The token is checked before an index starts and
/// before a row is emitted, so a cancel emits nothing more; in-flight
/// solves see it at their next deadline poll.  A sink that throws stops
/// every lane, nothing more is emitted, and its exception leaves
/// execute_shard.
[[nodiscard]] ShardExecution execute_shard(const serve::ShardRequest& request,
                                           const support::CancelToken& cancel,
                                           ShardProgress* progress = nullptr,
                                           const RowSink& sink = nullptr,
                                           std::size_t lanes = 1);

}  // namespace mgrts::dist
