// Wire protocol of the resident solver daemon (DESIGN.md §13).
//
// Framing: every message is a 4-byte big-endian payload length followed by
// that many payload bytes.  The length is bounded (kMaxFrameBytes) *before*
// any allocation happens, so a corrupt or hostile length degrades to a
// ProtocolError — never a bad_alloc, never a multi-gigabyte read.
//
// Payload: plain text, trivially greppable and stable across versions —
//
//     mgrts/1 <kind>\n
//     <key> <value>\n          (zero or more headers; single-space split)
//     \n
//     <body ...>               (instance_io text, error detail, free text)
//
// Request kinds: "solve", "health", "ping", "shutdown", and "shard" (the
//                distributed batch layer, serve/shard.hpp: generator
//                options + an index list in).
// Response kinds: "ok" (solve result), "health", "pong", "bye",
//                 "error" (tagged degradation — the daemon NEVER answers a
//                 malformed or poisoned request with silence or a closed
//                 connection; it answers with one of these), plus the
//                 shard stream: "shard-row" (one merged-record row per
//                 generator index), "shard-beat" (per-shard progress
//                 heartbeat), "shard-done" (shard trailer with health
//                 counters).
//
// Every solve response carries the canonical core::Verdict, the
// core::FailureCause taxonomy, and `decided-by` provenance, so the daemon
// path and the library path (core::solve_instance) expose exactly the same
// degradation contract.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/verdict.hpp"
#include "support/socket.hpp"

namespace mgrts::serve {

/// Malformed frame or payload (bad tag, oversized length, truncated
/// headers).  A server converts these into "error" responses; a client
/// surfaces them to its caller.
class ProtocolError : public Error {
 public:
  using Error::Error;
};

inline constexpr char kProtoTag[] = "mgrts/1";

/// Upper bound on a frame payload; a length beyond this is rejected before
/// any buffer is sized from it.  Generous for instances (a 100k-task
/// instance serializes to ~2 MiB) yet far below anything allocation-risky.
inline constexpr std::uint32_t kMaxFrameBytes = 8u << 20;

/// Upper bound on the gap between a frame's length prefix and the arrival
/// of its payload bytes.  A declared length is a promise that the body
/// follows promptly; a peer that announces N bytes and then dribbles (or
/// goes silent) is a protocol violation, not a reason to park a reader
/// forever — recv_frame applies this bound even when the caller passed no
/// timeout of its own.
inline constexpr std::int64_t kIntraFrameTimeoutMs = 10'000;

/// One parsed payload: kind line, headers in arrival order, body.
struct Message {
  std::string kind;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  void set(std::string key, std::string value) {
    headers.emplace_back(std::move(key), std::move(value));
  }
  void set(std::string key, std::int64_t value) {
    headers.emplace_back(std::move(key), std::to_string(value));
  }
  /// First value for `key`, if any.
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  /// Integer header; nullopt when absent, ProtocolError when unparsable.
  [[nodiscard]] std::optional<std::int64_t> get_int(
      const std::string& key) const;
};

/// Serializes a Message into a payload (no frame prefix).
[[nodiscard]] std::string format_message(const Message& message);

/// Parses a payload; throws ProtocolError with a reason on malformed input.
[[nodiscard]] Message parse_message(const std::string& payload);

/// The one "error" response.  `kind` is the `error-kind` header: `parse`
/// (bad instance text), `validation` (structurally invalid request),
/// `protocol` (malformed payload, unknown kind or method) or `internal`
/// (contained handler exception).  The verdict is unknown, and the cause
/// is kInternalError for `internal` only: a bad request is the client's
/// failure, not the solver's.
[[nodiscard]] Message error_message(const std::string& kind,
                                    const std::string& detail);

// ---------------------------------------------------------------- framing

/// Sends `payload` as one frame: the length prefix and the payload leave
/// in one gathered write, without copying the payload.  Throws
/// support::SocketError on transport failure and ProtocolError when
/// payload exceeds kMaxFrameBytes.
void send_frame(const support::Fd& fd, const std::string& payload);

/// Receives one frame into `payload`.  Returns false on clean EOF before a
/// frame started; throws ProtocolError for an oversized announced length
/// and for a truncated frame — a declared length the peer never delivers
/// (short read, mid-frame EOF, or a stall longer than kIntraFrameTimeoutMs)
/// — and support::SocketError on transport failure before the length is
/// known.  `timeout_ms` bounds each blocking read (-1 = no bound on the
/// wait for a frame to start; the body read is always bounded).
[[nodiscard]] bool recv_frame(const support::Fd& fd, std::string& payload,
                              std::int64_t timeout_ms = -1);

// ------------------------------------------------- verdict/cause strings

/// Inverse of core::to_string(Verdict); nullopt for unknown text (a client
/// must treat an unrecognized verdict as a protocol error, not guess).
[[nodiscard]] std::optional<core::Verdict> verdict_from_string(
    const std::string& text);

/// Inverse of core::to_string(FailureCause).
[[nodiscard]] std::optional<core::FailureCause> cause_from_string(
    const std::string& text);

}  // namespace mgrts::serve
