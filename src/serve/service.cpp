#include "serve/service.hpp"

#include <algorithm>
#include <exception>

#include "core/canonical.hpp"
#include "core/instance_io.hpp"
#include "support/error.hpp"

namespace mgrts::serve {

namespace {

/// Solve attempts when a request carries no `retries` header (one retry of
/// crash-type failures, the resident-service default), and the ceiling on
/// the `retries`-derived count.
constexpr std::int64_t kDefaultAttempts = 2;
constexpr std::int64_t kMaxAttempts = 4;

std::int64_t clamp_int(std::int64_t value, std::int64_t lo, std::int64_t hi) {
  return std::max(lo, std::min(value, hi));
}

}  // namespace

std::optional<core::Method> method_from_string(const std::string& text) {
  for (const core::Method method :
       {core::Method::kCsp1Generic, core::Method::kCsp2Generic,
        core::Method::kCsp2Dedicated, core::Method::kFlowOracle,
        core::Method::kEdfSimulation, core::Method::kLocalSearch,
        core::Method::kPortfolio}) {
    if (text == core::to_string(method)) return method;
  }
  return std::nullopt;
}

Service::Service(ServiceOptions options)
    : options_(options), cache_(options.cache) {
  latency_ring_.reserve(std::max<std::size_t>(options_.latency_window, 1));
}

std::string Service::handle(const std::string& payload,
                            const RequestContext& context) {
  support::Stopwatch watch;
  Message response;
  try {
    const Message request = parse_message(payload);
    response = handle_message(request, context);
  } catch (const ProtocolError& e) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.requests;
    }
    response = refuse(&ServiceCounters::protocol_errors, "protocol", e.what());
  } catch (const std::exception& e) {
    // parse_message only throws ProtocolError; this arm is pure insurance —
    // the funnel's promise is that NOTHING escapes as an exception.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.requests;
    }
    response = refuse(&ServiceCounters::internal_errors, "internal", e.what());
  }
  note_latency(watch.micros());
  return format_message(response);
}

Message Service::handle_message(const Message& request,
                                const RequestContext& context) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.requests;
  }
  try {
    if (request.kind == "solve") return handle_solve(request, context);
    if (request.kind == "ping") {
      Message pong;
      pong.kind = "pong";
      if (const auto id = request.get("id")) pong.set("id", *id);
      return pong;
    }
    if (request.kind == "health") {
      const ServiceCounters c = counters();
      const CacheStats cs = cache_.stats();
      const LatencyStats lat = latency();
      Message health;
      health.kind = "health";
      health.set("requests", c.requests);
      health.set("solved", c.solved);
      health.set("decided", c.decided);
      health.set("degraded", c.degraded);
      health.set("retried", c.retried);
      health.set("recovered", c.recovered);
      health.set("quarantined", c.quarantined);
      health.set("parse-errors", c.parse_errors);
      health.set("validation-errors", c.validation_errors);
      health.set("protocol-errors", c.protocol_errors);
      health.set("internal-errors", c.internal_errors);
      health.set("cache-hits", c.cache_hits);
      health.set("cache-misses", cs.misses);
      health.set("cache-inserts", cs.inserts);
      health.set("cache-evictions", cs.evictions);
      health.set("cache-size", static_cast<std::int64_t>(cache_.size()));
      health.set("latency-p50-us", lat.p50_us);
      health.set("latency-p99-us", lat.p99_us);
      health.set("latency-samples", lat.samples);
      health.body = c.first_error;
      return health;
    }
    if (request.kind == "shutdown") {
      shutdown_.store(true, std::memory_order_relaxed);
      Message bye;
      bye.kind = "bye";
      return bye;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.protocol_errors;
    }
    return error_message("protocol",
                         "unknown request kind '" + request.kind + "'");
  } catch (const ProtocolError& e) {
    return refuse(&ServiceCounters::protocol_errors, "protocol", e.what());
  } catch (const ParseError& e) {
    return refuse(&ServiceCounters::parse_errors, "parse", e.what());
  } catch (const ValidationError& e) {
    return refuse(&ServiceCounters::validation_errors, "validation", e.what());
  } catch (const std::exception& e) {
    return refuse(&ServiceCounters::internal_errors, "internal", e.what());
  } catch (...) {
    return refuse(&ServiceCounters::internal_errors, "internal",
                  "non-exception throw in request handler");
  }
}

Message Service::refuse(std::int64_t ServiceCounters::*errors,
                        const std::string& error_kind,
                        const std::string& detail) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++(counters_.*errors);
    if (counters_.first_error.empty()) counters_.first_error = detail;
  }
  return error_message(error_kind, detail);
}

Message Service::handle_solve(const Message& request,
                              const RequestContext& context) {
  // Hostile instance text degrades here: read_instance_string throws
  // ParseError/ValidationError, which handle_message converts into tagged
  // "error" responses.
  const core::InstanceFile instance = core::read_instance_string(request.body);

  core::SolveConfig config;
  config.method = options_.method;
  if (const auto method_text = request.get("method")) {
    const auto method = method_from_string(*method_text);
    if (!method.has_value()) {
      throw ProtocolError("unknown method '" + *method_text + "'");
    }
    config.method = *method;
  }
  const std::int64_t requested_ms =
      request.get_int("timeout-ms").value_or(options_.default_timeout_ms);
  config.time_limit_ms = clamp_int(requested_ms, 0, options_.max_timeout_ms);
  if (const auto max_nodes = request.get_int("max-nodes")) {
    config.max_nodes = clamp_int(*max_nodes, 0, 1'000'000'000);
  }
  if (const auto seed = request.get_int("seed")) {
    config.generic.seed = static_cast<std::uint64_t>(*seed);
    config.localsearch.seed = static_cast<std::uint64_t>(*seed);
  }
  config.cancel = context.cancel;
  config.heartbeat = context.heartbeat;

  const bool use_cache =
      options_.cache.capacity > 0 && request.get("no-cache") == std::nullopt;
  std::string key;
  if (use_cache) {
    key = core::canonical_key(instance.tasks, instance.platform);
    if (const auto cached = cache_.lookup(key)) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.solved;
        ++counters_.decided;
        ++counters_.cache_hits;
      }
      Message ok;
      ok.kind = "ok";
      if (const auto id = request.get("id")) ok.set("id", *id);
      ok.set("verdict", core::to_string(cached->verdict));
      ok.set("complete", cached->complete ? 1 : 0);
      ok.set("cause", core::to_string(core::FailureCause::kNone));
      ok.set("decided-by", "cache:" + cached->decided_by);
      ok.set("cache", "hit");
      ok.set("cache-entry-hits", cached->hits + 1);
      return ok;
    }
  }

  core::BatchPolicy policy;
  policy.workers = 1;  // the server fans out across requests, not within one
  std::int64_t attempts = kDefaultAttempts;
  if (const auto retries = request.get_int("retries")) attempts = *retries + 1;
  policy.max_attempts =
      static_cast<std::int32_t>(clamp_int(attempts, 1, kMaxAttempts));

  core::BatchHealth health;
  const std::vector<core::SolveReport> reports = core::solve_batch(
      {core::BatchJob{instance.tasks, instance.platform, config}}, policy,
      &health);
  const core::SolveReport& report = reports.front();

  const bool decisive = core::decisive(report.verdict, report.complete);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.solved;
    if (decisive) ++counters_.decided;
    if (core::crash_type(report.cause)) ++counters_.degraded;
    counters_.retried += health.retries;
    counters_.recovered += health.recovered;
    counters_.quarantined += health.quarantined;
    if (counters_.first_error.empty() && !health.first_error.empty()) {
      counters_.first_error = health.first_error;
    }
  }
  if (use_cache && decisive) {
    cache_.insert(key, report.verdict, report.complete, report.decided_by);
  }

  Message ok;
  ok.kind = "ok";
  if (const auto id = request.get("id")) ok.set("id", *id);
  ok.set("verdict", core::to_string(report.verdict));
  ok.set("complete", report.complete ? 1 : 0);
  ok.set("cause", core::to_string(report.cause));
  ok.set("decided-by", report.decided_by);
  ok.set("cache", use_cache ? "miss" : "bypass");
  ok.set("nodes", report.nodes);
  ok.set("micros", static_cast<std::int64_t>(report.seconds * 1e6));
  if (health.retries > 0) ok.set("retries-used", health.retries);
  if (health.quarantined > 0) ok.set("quarantined", std::int64_t{1});
  ok.body = report.detail;
  return ok;
}

ServiceCounters Service::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

void Service::note_latency(std::int64_t micros) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t window = std::max<std::size_t>(options_.latency_window, 1);
  if (latency_ring_.size() < window) {
    latency_ring_.push_back(micros);
  } else {
    latency_ring_[latency_next_ % window] = micros;
  }
  ++latency_next_;
  ++latency_total_;
}

LatencyStats Service::latency() const {
  std::vector<std::int64_t> sample;
  std::int64_t total = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sample = latency_ring_;
    total = latency_total_;
  }
  LatencyStats stats;
  stats.samples = total;
  if (sample.empty()) return stats;
  std::sort(sample.begin(), sample.end());
  const auto at = [&](double q) {
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(sample.size() - 1) + 0.5);
    return sample[std::min(idx, sample.size() - 1)];
  };
  stats.p50_us = at(0.50);
  stats.p99_us = at(0.99);
  return stats;
}

}  // namespace mgrts::serve
