// The daemon's request handler, factored free of any socket so the serving
// contract is testable (and chaos-soakable) in-process.
//
// `Service::handle` is the containment funnel of the serving layer: payload
// bytes in, response payload bytes out, and it NEVER throws — malformed
// frames, hostile instances, solver crashes, and injected faults all
// degrade to a tagged "error" or degraded "ok" response.  A request that
// reaches the daemon always gets an answer (DESIGN.md §13).
//
// Solve requests run through core::solve_batch as a single-job batch, so
// the serving path inherits the library path's whole containment stack:
// crash-type causes retried with widened budgets and fresh seeds,
// exhausted jobs quarantined, every outcome tagged with the canonical
// core::FailureCause.  Decisive verdicts land in a canonicalized
// VerdictCache (permutation / identical-platform scaling invariant), so
// repeat-heavy request mixes are answered in microseconds with provenance
// ("cache:<original decider>").
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/canonical.hpp"
#include "core/solve.hpp"
#include "serve/cache.hpp"
#include "serve/wire.hpp"
#include "support/deadline.hpp"

namespace mgrts::serve {

struct ServiceOptions {
  /// Budget for solve requests that carry no `timeout-ms` header.
  std::int64_t default_timeout_ms = 2'000;
  /// Hard ceiling on any request's budget — a resident daemon never grants
  /// an unlimited solve, whatever the client asks for.
  std::int64_t max_timeout_ms = 30'000;
  /// Ceiling on the `retries`-derived attempt count.
  std::int32_t max_attempts_cap = 4;
  /// Attempts when the request carries no `retries` header (2 = one retry
  /// of crash-type failures, the resident-service default).
  std::int32_t default_attempts = 2;
  /// Default backend for solve requests without a `method` header.
  core::Method method = core::Method::kCsp2Dedicated;
  /// Verdict-cache sizing (capacity 0 disables caching).
  CacheOptions cache;
  /// Canonicalization applied to cache keys.
  core::CanonicalOptions canonical;
  /// Recent-latency window used for the health block's p50/p99.
  std::size_t latency_window = 4'096;
};

/// BatchHealth-shaped counter block for the daemon (served on "health").
struct ServiceCounters {
  std::int64_t requests = 0;        ///< every payload handed to handle()
  std::int64_t solved = 0;          ///< "ok" solve responses sent
  std::int64_t decided = 0;         ///< ... of which carried a decisive verdict
  std::int64_t degraded = 0;        ///< solve responses with a crash-type cause
  std::int64_t retried = 0;         ///< solve_batch re-attempts launched
  std::int64_t recovered = 0;       ///< retries that produced a clean report
  std::int64_t quarantined = 0;     ///< solve requests that exhausted attempts
  std::int64_t parse_errors = 0;    ///< "error" responses: bad instance text
  std::int64_t validation_errors = 0;  ///< "error": structurally invalid system
  std::int64_t protocol_errors = 0;    ///< "error": malformed wire payload
  std::int64_t internal_errors = 0;    ///< "error": contained handler exception
  std::int64_t cache_hits = 0;      ///< solve responses answered from cache
  std::string first_error;          ///< first contained failure, human-readable
};

/// Latency percentiles over the recent-request window, microseconds.
struct LatencyStats {
  std::int64_t p50_us = 0;
  std::int64_t p99_us = 0;
  std::int64_t samples = 0;
};

/// Per-request plumbing the socket server threads supply; defaults are
/// right for in-process use.
struct RequestContext {
  /// Cancellation observed by the solve (the server links the daemon-wide
  /// shutdown token and the watchdog's per-request token into this).
  support::CancelToken cancel;
  /// Progress heartbeat ticked at every deadline poll, watched by the
  /// server's stall watchdog.
  std::shared_ptr<std::atomic<std::uint64_t>> heartbeat;
};

class Service {
 public:
  explicit Service(ServiceOptions options = {});

  /// Handles one request payload and returns the response payload.
  /// NEVER throws; thread-safe.
  [[nodiscard]] std::string handle(const std::string& payload,
                                   const RequestContext& context = {});

  /// Typed variant (used by handle and directly by tests).  NEVER throws.
  [[nodiscard]] Message handle_message(const Message& request,
                                       const RequestContext& context = {});

  /// True once a "shutdown" request was accepted; the socket server's
  /// accept loop polls this.
  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] ServiceCounters counters() const;
  [[nodiscard]] CacheStats cache_stats() const { return cache_.stats(); }
  [[nodiscard]] LatencyStats latency() const;

  [[nodiscard]] const ServiceOptions& options() const noexcept {
    return options_;
  }

 private:
  Message handle_solve(const Message& request, const RequestContext& context);
  /// Counts a contained failure in `errors`, keeps the first detail, and
  /// builds the "error" response.
  Message refuse(std::int64_t ServiceCounters::*errors,
                 const std::string& error_kind, const std::string& detail);
  void note_latency(std::int64_t micros);

  ServiceOptions options_;
  VerdictCache cache_;
  std::atomic<bool> shutdown_{false};

  mutable std::mutex mutex_;        // counters + latency ring
  ServiceCounters counters_;
  std::vector<std::int64_t> latency_ring_;
  std::size_t latency_next_ = 0;
  std::int64_t latency_total_ = 0;
};

/// Inverse of core::to_string(Method); nullopt for unknown text.
[[nodiscard]] std::optional<core::Method> method_from_string(
    const std::string& text);

}  // namespace mgrts::serve
