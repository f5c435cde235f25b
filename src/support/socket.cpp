#include "support/socket.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

namespace mgrts::support {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw SocketError(what + ": " + std::strerror(errno));
}

sockaddr_un unix_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw SocketError("socket path empty or too long: '" + path + "'");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// poll() for readability, retrying EINTR; true when `fd` is readable,
/// false on timeout or when `wake` (if >= 0) became readable first.
bool wait_readable(int fd, std::int64_t timeout_ms, int wake = -1) {
  std::array<pollfd, 2> pfds{{{fd, POLLIN, 0}, {wake, POLLIN, 0}}};
  const nfds_t count = wake >= 0 ? 2 : 1;
  for (;;) {
    const int rc = ::poll(pfds.data(), count, static_cast<int>(timeout_ms));
    if (rc > 0) return pfds[0].revents != 0;
    if (rc == 0) return false;
    if (errno != EINTR) fail("poll");
  }
}

}  // namespace

bool wait_readable(const Fd& fd, std::int64_t timeout_ms) {
  return wait_readable(fd.get(), timeout_ms);
}

WakePipe::WakePipe() {
  int fds[2] = {-1, -1};
  if (::pipe2(fds, O_CLOEXEC | O_NONBLOCK) != 0) fail("pipe2");
  read_ = Fd(fds[0]);
  write_ = Fd(fds[1]);
}

void WakePipe::notify() noexcept {
  // The byte is never read back, so the pipe stays readable; a full pipe
  // (EAGAIN) is just as readable, so a failed write loses nothing.
  const char byte = 1;
  [[maybe_unused]] const ssize_t rc = ::write(write_.get(), &byte, 1);
}

void Fd::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Fd::shutdown() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Fd::shutdown_read() const noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

Fd listen_unix(const std::string& path, int backlog) {
  const sockaddr_un addr = unix_address(path);
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) fail("socket");
  // A previous daemon's socket file would make bind fail with EADDRINUSE;
  // connecting clients see the *new* daemon only after this unlink+bind.
  ::unlink(path.c_str());
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    fail("bind " + path);
  }
  if (::listen(fd.get(), backlog) != 0) fail("listen " + path);
  return fd;
}

Fd connect_unix(const std::string& path) {
  const sockaddr_un addr = unix_address(path);
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) fail("socket");
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    fail("connect " + path);
  }
  return fd;
}

Fd accept_unix(const Fd& listener, std::int64_t timeout_ms, const Fd& wake) {
  if (!wait_readable(listener.get(), timeout_ms, wake.get())) return Fd();
  for (;;) {
    const int client = ::accept(listener.get(), nullptr, nullptr);
    if (client >= 0) return Fd(client);
    if (errno == EINTR) continue;
    // The readiness seen by poll can evaporate (peer aborted the handshake);
    // report a timeout-shaped miss instead of failing the accept loop.
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) {
      return Fd();
    }
    fail("accept");
  }
}

bool read_exact(const Fd& fd, void* data, std::size_t size,
                std::int64_t timeout_ms) {
  auto* bytes = static_cast<char*>(data);
  std::size_t done = 0;
  // With a timeout, bytes already queued are taken without a poll; only
  // an empty queue (EAGAIN) waits, and each wait is bounded.
  const int flags = timeout_ms >= 0 ? MSG_DONTWAIT : 0;
  while (done < size) {
    const ssize_t rc = ::recv(fd.get(), bytes + done, size - done, flags);
    if (rc > 0) {
      done += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc == 0) {
      if (done == 0) return false;  // clean EOF between messages
      throw SocketError("peer closed mid-message (" + std::to_string(done) +
                        "/" + std::to_string(size) + " bytes)");
    }
    if (errno == EINTR) continue;
    if (flags != 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!wait_readable(fd.get(), timeout_ms)) {
        throw SocketError("read timed out after " +
                          std::to_string(timeout_ms) + "ms");
      }
      continue;
    }
    fail("recv");
  }
  return true;
}

void write_all(const Fd& fd, std::string_view head, std::string_view tail) {
  std::array<iovec, 2> parts = {
      iovec{const_cast<char*>(head.data()), head.size()},
      iovec{const_cast<char*>(tail.data()), tail.size()},
  };
  std::size_t first = 0;  // the first part with bytes left to send
  while (first < parts.size()) {
    if (parts[first].iov_len == 0) {
      ++first;
      continue;
    }
    msghdr message{};
    message.msg_iov = parts.data() + first;
    message.msg_iovlen = parts.size() - first;
    const ssize_t rc = ::sendmsg(fd.get(), &message, MSG_NOSIGNAL);
    if (rc <= 0) {
      if (rc < 0 && errno == EINTR) continue;
      fail("send");
    }
    // A partial write: step past what went out.
    for (auto sent = static_cast<std::size_t>(rc); sent > 0;) {
      const std::size_t step = std::min(sent, parts[first].iov_len);
      parts[first].iov_base = static_cast<char*>(parts[first].iov_base) + step;
      parts[first].iov_len -= step;
      sent -= step;
      if (parts[first].iov_len == 0) ++first;
    }
  }
}

}  // namespace mgrts::support
