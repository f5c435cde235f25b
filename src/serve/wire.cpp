#include "serve/wire.hpp"

#include <algorithm>
#include <array>
#include <cstring>

namespace mgrts::serve {

std::optional<std::string> Message::get(const std::string& key) const {
  for (const auto& [k, v] : headers) {
    if (k == key) return v;
  }
  return std::nullopt;
}

std::optional<std::int64_t> Message::get_int(const std::string& key) const {
  const auto text = get(key);
  if (!text.has_value()) return std::nullopt;
  try {
    std::size_t used = 0;
    const std::int64_t value = std::stoll(*text, &used);
    if (used != text->size()) throw std::invalid_argument("trailing");
    return value;
  } catch (const std::exception&) {
    throw ProtocolError("header '" + key + "' is not an integer: '" + *text +
                        "'");
  }
}

std::string format_message(const Message& message) {
  std::string out;
  out.reserve(64 + message.body.size());
  out += kProtoTag;
  out += ' ';
  out += message.kind;
  out += '\n';
  for (const auto& [key, value] : message.headers) {
    out += key;
    out += ' ';
    out += value;
    out += '\n';
  }
  out += '\n';
  out += message.body;
  return out;
}

Message parse_message(const std::string& payload) {
  Message message;
  std::size_t pos = 0;
  const auto next_line = [&]() -> std::optional<std::string> {
    if (pos >= payload.size()) return std::nullopt;
    const std::size_t eol = payload.find('\n', pos);
    if (eol == std::string::npos) {
      throw ProtocolError("unterminated header line");
    }
    std::string line = payload.substr(pos, eol - pos);
    pos = eol + 1;
    return line;
  };

  const auto tag_line = next_line();
  if (!tag_line.has_value()) throw ProtocolError("empty payload");
  const std::size_t space = tag_line->find(' ');
  if (space == std::string::npos ||
      tag_line->substr(0, space) != kProtoTag) {
    throw ProtocolError("bad protocol tag: '" + *tag_line + "'");
  }
  message.kind = tag_line->substr(space + 1);
  if (message.kind.empty()) throw ProtocolError("missing message kind");

  for (;;) {
    const auto line = next_line();
    if (!line.has_value()) {
      throw ProtocolError("headers not terminated by a blank line");
    }
    if (line->empty()) break;  // blank separator: body follows
    const std::size_t split = line->find(' ');
    if (split == std::string::npos || split == 0) {
      throw ProtocolError("malformed header line: '" + *line + "'");
    }
    message.set(line->substr(0, split), line->substr(split + 1));
  }
  message.body = payload.substr(pos);
  return message;
}

Message error_message(const std::string& kind, const std::string& detail) {
  Message error;
  error.kind = "error";
  error.set("error-kind", kind);
  error.set("verdict", core::to_string(core::Verdict::kUnknown));
  error.set("cause", core::to_string(kind == "internal"
                                         ? core::FailureCause::kInternalError
                                         : core::FailureCause::kNone));
  error.body = detail;
  return error;
}

void send_frame(const support::Fd& fd, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw ProtocolError("frame payload too large: " +
                        std::to_string(payload.size()) + " bytes");
  }
  const auto size = static_cast<std::uint32_t>(payload.size());
  const std::array<char, 4> prefix = {
      static_cast<char>(size >> 24),
      static_cast<char>(size >> 16),
      static_cast<char>(size >> 8),
      static_cast<char>(size),
  };
  // Prefix and payload leave in one system call.
  support::write_all(fd, std::string_view(prefix.data(), prefix.size()),
                     payload);
}

bool recv_frame(const support::Fd& fd, std::string& payload,
                std::int64_t timeout_ms) {
  std::array<unsigned char, 4> prefix{};
  if (!support::read_exact(fd, prefix.data(), prefix.size(), timeout_ms)) {
    return false;
  }
  const std::uint32_t size = (std::uint32_t{prefix[0]} << 24) |
                             (std::uint32_t{prefix[1]} << 16) |
                             (std::uint32_t{prefix[2]} << 8) |
                             std::uint32_t{prefix[3]};
  // Bound BEFORE sizing any buffer: a hostile length must cost nothing.
  if (size > kMaxFrameBytes) {
    throw ProtocolError("announced frame length " + std::to_string(size) +
                        " exceeds the " + std::to_string(kMaxFrameBytes) +
                        "-byte cap");
  }
  payload.resize(size);
  if (size == 0) return true;
  // The length prefix is a promise the body follows promptly.  Bound the
  // body read even for callers with no timeout of their own, and report
  // any shortfall — EOF right after the prefix, a reset mid-body, or a
  // dribbling/stalled peer — as a protocol violation naming the declared
  // length, never as an indefinite block.
  const std::int64_t body_timeout_ms =
      timeout_ms < 0 ? kIntraFrameTimeoutMs
                     : std::min(timeout_ms, kIntraFrameTimeoutMs);
  try {
    if (!support::read_exact(fd, payload.data(), size, body_timeout_ms)) {
      throw ProtocolError("truncated frame: declared " +
                          std::to_string(size) +
                          " payload bytes, peer closed before any arrived");
    }
  } catch (const support::SocketError& e) {
    throw ProtocolError("truncated frame: declared " + std::to_string(size) +
                        " payload bytes, peer delivered fewer (" + e.what() +
                        ")");
  }
  return true;
}

std::optional<core::Verdict> verdict_from_string(const std::string& text) {
  for (const core::Verdict verdict :
       {core::Verdict::kFeasible, core::Verdict::kInfeasible,
        core::Verdict::kTimeout, core::Verdict::kNodeLimit,
        core::Verdict::kMemoryLimit, core::Verdict::kUnknown}) {
    if (text == core::to_string(verdict)) return verdict;
  }
  return std::nullopt;
}

std::optional<core::FailureCause> cause_from_string(const std::string& text) {
  for (const core::FailureCause cause :
       {core::FailureCause::kNone, core::FailureCause::kDeadline,
        core::FailureCause::kCancelled, core::FailureCause::kMemory,
        core::FailureCause::kNodeBudget, core::FailureCause::kInternalError,
        core::FailureCause::kFaultInjected}) {
    if (text == core::to_string(cause)) return cause;
  }
  return std::nullopt;
}

}  // namespace mgrts::serve
