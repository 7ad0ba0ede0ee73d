#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>

namespace tprm::net {

namespace {

std::string errnoMessage(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Polls `fd` for `events` until the deadline.  Returns Ok when ready,
/// Timeout when the deadline passes, Error on poll failure.
IoStatus pollFor(int fd, short events, const Deadline& deadline) {
  for (;;) {
    pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, deadline.pollTimeoutMs());
    if (rc > 0) return IoStatus::Ok;
    if (rc == 0) {
      if (deadline.expired()) return IoStatus::Timeout;
      continue;  // sub-millisecond remainder rounded to 0
    }
    if (errno == EINTR) continue;
    return IoStatus::Error;
  }
}

}  // namespace

int Deadline::pollTimeoutMs() const {
  if (infinite_) return -1;
  const auto remaining = at_ - Clock::now();
  if (remaining <= Clock::duration::zero()) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(remaining);
  // Round up so a 0.4ms remainder polls for 1ms instead of spinning.
  const std::int64_t count =
      ms.count() + (ms < remaining ? 1 : 0);
  return static_cast<int>(std::min<std::int64_t>(count, 3'600'000));
}

const char* toString(IoStatus status) {
  switch (status) {
    case IoStatus::Ok: return "ok";
    case IoStatus::Timeout: return "timeout";
    case IoStatus::Closed: return "closed";
    case IoStatus::Error: return "error";
    case IoStatus::WouldBlock: return "would-block";
  }
  return "unknown";
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

IoResult Socket::waitReadable(const Deadline& deadline) {
  const IoStatus status = pollFor(fd_, POLLIN, deadline);
  if (status == IoStatus::Error) {
    return {IoStatus::Error, errnoMessage("poll")};
  }
  return {status, {}};
}

IoResult Socket::waitWritable(const Deadline& deadline) {
  const IoStatus status = pollFor(fd_, POLLOUT, deadline);
  if (status == IoStatus::Error) {
    return {IoStatus::Error, errnoMessage("poll")};
  }
  return {status, {}};
}

IoResult Socket::readExact(void* buffer, std::size_t n,
                           const Deadline& deadline) {
  char* out = static_cast<char*>(buffer);
  std::size_t done = 0;
  while (done < n) {
    const IoStatus ready = pollFor(fd_, POLLIN, deadline);
    if (ready != IoStatus::Ok) {
      if (ready == IoStatus::Error) {
        return {IoStatus::Error, errnoMessage("poll")};
      }
      return {ready, {}};
    }
    const ssize_t rc = ::recv(fd_, out + done, n - done, 0);
    if (rc > 0) {
      done += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc == 0) {
      // Orderly shutdown.  Before any byte it is a clean close; inside a
      // message it means the peer truncated the stream.
      if (done == 0) return {IoStatus::Closed, {}};
      return {IoStatus::Error, "peer closed mid-message"};
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) continue;  // re-poll
    return {IoStatus::Error, errnoMessage("recv")};
  }
  return {IoStatus::Ok, {}};
}

IoResult Socket::writeAll(const void* buffer, std::size_t n,
                          const Deadline& deadline) {
  const char* in = static_cast<const char*>(buffer);
  std::size_t done = 0;
#ifdef MSG_NOSIGNAL
  constexpr int kFlags = MSG_NOSIGNAL | MSG_DONTWAIT;
#else
  constexpr int kFlags = MSG_DONTWAIT;
#endif
  while (done < n) {
    const ssize_t rc = ::send(fd_, in + done, n - done, kFlags);
    if (rc >= 0) {
      done += static_cast<std::size_t>(rc);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EPIPE || errno == ECONNRESET) {
      return {IoStatus::Closed, {}};
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      return {IoStatus::Error, errnoMessage("send")};
    }
    // Send buffer full: wait for room, then resume.
    const IoStatus ready = pollFor(fd_, POLLOUT, deadline);
    if (ready == IoStatus::Error) {
      return {IoStatus::Error, errnoMessage("poll")};
    }
    if (ready != IoStatus::Ok) return {ready, {}};
  }
  return {IoStatus::Ok, {}};
}

IoResult Socket::setNonBlocking(bool enabled) {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) return {IoStatus::Error, errnoMessage("fcntl")};
  const int next = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (next != flags && ::fcntl(fd_, F_SETFL, next) < 0) {
    return {IoStatus::Error, errnoMessage("fcntl")};
  }
  return {IoStatus::Ok, {}};
}

namespace {

IoChunk recvOnce(int fd, void* buffer, std::size_t n, int flags) {
  for (;;) {
    const ssize_t rc = ::recv(fd, buffer, n, flags);
    if (rc > 0) return {IoStatus::Ok, static_cast<std::size_t>(rc), {}};
    if (rc == 0) return {IoStatus::Closed, 0, {}};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoStatus::WouldBlock, 0, {}};
    }
    if (errno == ECONNRESET) return {IoStatus::Closed, 0, {}};
    return {IoStatus::Error, 0, errnoMessage("recv")};
  }
}

}  // namespace

IoChunk Socket::readSome(void* buffer, std::size_t n) {
  return recvOnce(fd_, buffer, n, 0);
}

IoChunk Socket::readAvailable(void* buffer, std::size_t n) {
  return recvOnce(fd_, buffer, n, MSG_DONTWAIT);
}

IoChunk Socket::writeSome(const void* buffer, std::size_t n) {
  const char* in = static_cast<const char*>(buffer);
  std::size_t done = 0;
  while (done < n) {
#ifdef MSG_NOSIGNAL
    const ssize_t rc = ::send(fd_, in + done, n - done, MSG_NOSIGNAL);
#else
    const ssize_t rc = ::send(fd_, in + done, n - done, 0);
#endif
    if (rc > 0) {
      done += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc == 0) continue;  // treat a zero send as retryable progress
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Short write: report how far we got so the caller resumes from
      // buffer + bytes once POLLOUT fires, instead of treating the partial
      // transfer as a failure.
      return {IoStatus::WouldBlock, done, {}};
    }
    if (errno == EPIPE || errno == ECONNRESET) {
      return {IoStatus::Closed, done, {}};
    }
    return {IoStatus::Error, done, errnoMessage("send")};
  }
  return {IoStatus::Ok, done, {}};
}

namespace {

/// Completes a non-blocking connect with a deadline, then restores blocking
/// mode.  Returns a ConnectResult either way.
ConnectResult finishConnect(int fd, const sockaddr* addr, socklen_t len,
                            const Deadline& deadline) {
  Socket guard(fd);  // closes on every early return
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return {Socket(), errnoMessage("fcntl")};
  }
  if (::connect(fd, addr, len) < 0) {
    if (errno != EINPROGRESS) {
      return {Socket(), errnoMessage("connect")};
    }
    const IoStatus ready = pollFor(fd, POLLOUT, deadline);
    if (ready == IoStatus::Timeout) {
      return {Socket(), "connect: timed out"};
    }
    if (ready == IoStatus::Error) {
      return {Socket(), errnoMessage("poll")};
    }
    int soError = 0;
    socklen_t soLen = sizeof soError;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soError, &soLen) < 0) {
      return {Socket(), errnoMessage("getsockopt")};
    }
    if (soError != 0) {
      return {Socket(), std::string("connect: ") + std::strerror(soError)};
    }
  }
  if (::fcntl(fd, F_SETFL, flags) < 0) {
    return {Socket(), errnoMessage("fcntl")};
  }
  return {std::move(guard), {}};
}

}  // namespace

ConnectResult connectUnix(const std::string& path, const Deadline& deadline) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    return {Socket(), "unix path too long: " + path};
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return {Socket(), errnoMessage("socket")};
  return finishConnect(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof addr, deadline);
}

ConnectResult connectTcp(const std::string& host, std::uint16_t port,
                         const Deadline& deadline) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return {Socket(), "invalid IPv4 address: " + host};
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {Socket(), errnoMessage("socket")};
  return finishConnect(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof addr, deadline);
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), port_(other.port_),
      unixPath_(std::move(other.unixPath_)) {
  other.fd_ = -1;
  other.port_ = 0;
  other.unixPath_.clear();
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    port_ = other.port_;
    unixPath_ = std::move(other.unixPath_);
    other.fd_ = -1;
    other.port_ = 0;
    other.unixPath_.clear();
  }
  return *this;
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!unixPath_.empty()) {
    ::unlink(unixPath_.c_str());
    unixPath_.clear();
  }
}

Listener Listener::listenUnix(const std::string& path, std::string* error) {
  Listener listener;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    if (error != nullptr) *error = "unix path too long: " + path;
    return listener;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = errnoMessage("socket");
    return listener;
  }
  ::unlink(path.c_str());  // replace a stale socket file from a crashed run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, SOMAXCONN) < 0) {
    if (error != nullptr) *error = errnoMessage("bind/listen");
    ::close(fd);
    return listener;
  }
  listener.fd_ = fd;
  listener.unixPath_ = path;
  return listener;
}

Listener Listener::listenTcp(std::uint16_t port, std::string* error) {
  Listener listener;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = errnoMessage("socket");
    return listener;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, SOMAXCONN) < 0) {
    if (error != nullptr) *error = errnoMessage("bind/listen");
    ::close(fd);
    return listener;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    if (error != nullptr) *error = errnoMessage("getsockname");
    ::close(fd);
    return listener;
  }
  listener.fd_ = fd;
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

Listener::AcceptResult Listener::accept(const Deadline& deadline) {
  AcceptResult result;
  for (;;) {
    const IoStatus ready = pollFor(fd_, POLLIN, deadline);
    if (ready != IoStatus::Ok) {
      result.status = ready;
      if (ready == IoStatus::Error) result.message = errnoMessage("poll");
      return result;
    }
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      result.socket = Socket(fd);
      return result;
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == ECONNABORTED) {
      continue;
    }
    result.status = IoStatus::Error;
    result.message = errnoMessage("accept");
    return result;
  }
}

}  // namespace tprm::net
