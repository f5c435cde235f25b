// Minimal local-socket helpers for the resident solver daemon
// (src/serve/): RAII file descriptors, AF_UNIX listen/connect, and
// EINTR-safe exact reads/writes.  Nothing here knows about the wire
// protocol — framing lives in serve/wire.hpp — and nothing blocks forever:
// accept and reads take poll timeouts so a stopping server (or a wedged
// peer) never parks a thread.
//
// Errors are reported as SocketError (an mgrts::Error), never errno
// sentinels, so the serving layer's containment funnels treat transport
// failures like any other recoverable error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "support/error.hpp"

namespace mgrts::support {

/// Transport-level failure (connect refused, peer reset, poll timeout).
class SocketError : public Error {
 public:
  using Error::Error;
};

/// Owning file descriptor.  Move-only; close() is idempotent.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  ~Fd() { close(); }

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.release();
    }
    return *this;
  }

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int get() const noexcept { return fd_; }

  /// Releases ownership without closing.
  int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  void close() noexcept;

  /// shutdown(2) both directions — unblocks a peer mid-read without
  /// releasing the descriptor (close() still runs at destruction).
  void shutdown() noexcept;

 private:
  int fd_ = -1;
};

/// Binds and listens on an AF_UNIX stream socket at `path`, replacing any
/// stale socket file left by a previous process.  Throws SocketError.
[[nodiscard]] Fd listen_unix(const std::string& path, int backlog = 64);

/// Connects to an AF_UNIX stream socket.  Throws SocketError (e.g. when no
/// daemon is listening).
[[nodiscard]] Fd connect_unix(const std::string& path);

/// A self-pipe that ends poll(2) waits early.  notify() makes fd()
/// readable for good (the byte is never read back), so every wait that
/// polls fd() next to its own descriptor returns at once from then on: a
/// server's stop wakes its accept loop instead of leaving it to its next
/// timeout.  Throws SocketError when the pipe cannot be made.
class WakePipe {
 public:
  WakePipe();

  /// Wakes every current and future wait on fd().  Thread-safe.
  void notify() noexcept;
  [[nodiscard]] const Fd& fd() const noexcept { return read_; }

 private:
  Fd read_;
  Fd write_;
};

/// Waits up to `timeout_ms` for a pending connection, then accepts it.
/// Returns an invalid Fd on timeout, or as soon as `wake` becomes
/// readable: the caller's stop-flag poll point.  Throws SocketError on a
/// genuine accept failure.
[[nodiscard]] Fd accept_unix(const Fd& listener, std::int64_t timeout_ms,
                             const Fd& wake);

/// Waits up to `timeout_ms` for `fd` to become readable (-1 = forever).
/// True when readable (or at EOF — the next read reports it), false on
/// timeout.  Connection handlers idle here so a quiet peer is a poll point
/// for the server's stop flag, not a SocketError.
[[nodiscard]] bool wait_readable(const Fd& fd, std::int64_t timeout_ms);

/// Reads exactly `size` bytes.  Returns false on a clean EOF *before the
/// first byte* (peer closed between messages); throws SocketError on a
/// short read mid-buffer, a poll timeout (`timeout_ms` per wait for bytes,
/// -1 = no timeout), or a transport error.  With a timeout, bytes already
/// queued are read without a poll; poll(2) runs only when none are.
[[nodiscard]] bool read_exact(const Fd& fd, void* data, std::size_t size,
                              std::int64_t timeout_ms = -1);

/// Writes all of `head`, then all of `tail`, or throws SocketError.  One
/// gathered sendmsg(2) carries both (another only after a partial write),
/// and neither buffer is copied.  SIGPIPE-safe (MSG_NOSIGNAL): a vanished
/// peer is an exception, not a process kill.
void write_all(const Fd& fd, std::string_view head,
               std::string_view tail = {});

}  // namespace mgrts::support
