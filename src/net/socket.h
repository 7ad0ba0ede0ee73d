// Thin POSIX socket layer for the negotiation service.
//
// Scope: blocking stream sockets (Unix-domain and TCP loopback) with
// explicit deadlines.  Every operation that can block takes a Deadline and
// polls; partial reads/writes and EINTR are handled here so the layers above
// (framing, protocol) only see "exactly n bytes or a typed failure".
// Nothing in this layer throws; errors are IoStatus values plus an errno
// description.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace tprm::net {

/// Absolute deadline on the steady clock.  Used instead of per-call timeouts
/// so a multi-step operation (connect, write request, read reply) shares one
/// budget.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Deadline `timeout` from now.
  [[nodiscard]] static Deadline after(std::chrono::milliseconds timeout) {
    return Deadline(Clock::now() + timeout);
  }
  /// Never expires.
  [[nodiscard]] static Deadline infinite() { return Deadline(); }

  [[nodiscard]] bool isInfinite() const { return infinite_; }
  [[nodiscard]] bool expired() const {
    return !infinite_ && Clock::now() >= at_;
  }
  /// Remaining budget as a poll(2) timeout: milliseconds (rounded up so a
  /// sub-millisecond remainder still waits), 0 when expired, -1 for
  /// infinite.
  [[nodiscard]] int pollTimeoutMs() const;

 private:
  Deadline() : infinite_(true) {}
  explicit Deadline(Clock::time_point at) : at_(at), infinite_(false) {}

  Clock::time_point at_{};
  bool infinite_;
};

/// How an I/O operation ended.
enum class IoStatus {
  Ok,
  Timeout,     // deadline expired mid-operation
  Closed,      // orderly EOF / EPIPE from the peer
  Error,       // errno-level failure (message has the details)
  WouldBlock,  // nonblocking op would block; retry when the fd is ready
};

struct IoResult {
  IoStatus status = IoStatus::Ok;
  std::string message;  // errno description, empty on Ok/Timeout/Closed

  [[nodiscard]] bool ok() const { return status == IoStatus::Ok; }
};

/// Outcome of a single nonblocking read/write attempt: how far it got plus
/// why it stopped.  `bytes` is meaningful for every status — a short write
/// that hit a full send buffer reports WouldBlock with the count already
/// transferred, so the caller can resume from `buffer + bytes` later.
struct IoChunk {
  IoStatus status = IoStatus::Ok;
  std::size_t bytes = 0;
  std::string message;  // errno description, empty unless status == Error

  [[nodiscard]] bool ok() const { return status == IoStatus::Ok; }
};

[[nodiscard]] const char* toString(IoStatus status);

/// Owning wrapper for a connected stream-socket fd.  Move-only RAII.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }
  void close();
  /// shutdown(2) both directions: a thread blocked reading this socket
  /// wakes with EOF and a blocked writer with an error, while the fd
  /// number stays allocated until close().  That makes it the safe way for
  /// one thread to stop another's blocking read: closing the fd instead
  /// could hand its number to an unrelated open() mid-read.
  void shutdown();

  /// Reads exactly `n` bytes into `buffer` before `deadline`.  Timeout after
  /// partial data still reports Timeout (the stream is then desynchronized;
  /// callers must close).  EOF before any byte reports Closed; EOF
  /// mid-buffer reports Error.
  [[nodiscard]] IoResult readExact(void* buffer, std::size_t n,
                                   const Deadline& deadline);

  /// Blocks until at least one byte is readable (or EOF) before `deadline`.
  /// Distinguishes an idle wait from mid-message reads without consuming
  /// data.
  [[nodiscard]] IoResult waitReadable(const Deadline& deadline);

  /// Blocks until the send buffer has room before `deadline`.  The resume
  /// signal after a WouldBlock from writeSome() when no event loop is
  /// driving the fd.
  [[nodiscard]] IoResult waitWritable(const Deadline& deadline);

  /// Writes all `n` bytes before `deadline`.  Sends with SIGPIPE suppressed;
  /// a vanished peer reports Closed, never kills the process.  Tries the
  /// send first and polls only when the send buffer is full, so a write
  /// that fits costs one syscall.
  [[nodiscard]] IoResult writeAll(const void* buffer, std::size_t n,
                                  const Deadline& deadline);

  /// Switches the fd in or out of O_NONBLOCK mode.  The event-loop server
  /// runs every connection nonblocking; blocking clients leave this off.
  [[nodiscard]] IoResult setNonBlocking(bool enabled);

  /// Single nonblocking read attempt: at most one recv(2).  Ok carries the
  /// byte count (> 0); WouldBlock means no data is ready; Closed is orderly
  /// EOF.  Never polls — the caller's event loop decides when to retry.
  [[nodiscard]] IoChunk readSome(void* buffer, std::size_t n);

  /// readSome that never blocks, even on a blocking fd (MSG_DONTWAIT):
  /// WouldBlock when nothing is ready.
  [[nodiscard]] IoChunk readAvailable(void* buffer, std::size_t n);

  /// Nonblocking write attempt: sends as much of `buffer` as the kernel
  /// accepts right now.  A full send buffer reports WouldBlock with
  /// `bytes` already transferred — short writes are resumable, the caller
  /// continues from `buffer + bytes` once the fd is writable again.
  [[nodiscard]] IoChunk writeSome(const void* buffer, std::size_t n);

 private:
  int fd_ = -1;
};

/// Outcome of a connect attempt.
struct ConnectResult {
  Socket socket;
  std::string error;  // empty on success

  [[nodiscard]] bool ok() const { return socket.valid(); }
};

/// Connects to a Unix-domain stream socket at `path`.
[[nodiscard]] ConnectResult connectUnix(const std::string& path,
                                        const Deadline& deadline);

/// Connects to TCP `host:port` (numeric host, e.g. "127.0.0.1" — the
/// service is loopback-only by design, so no name resolution).
[[nodiscard]] ConnectResult connectTcp(const std::string& host,
                                       std::uint16_t port,
                                       const Deadline& deadline);

/// Listening socket (Unix-domain or TCP loopback).
class Listener {
 public:
  Listener() = default;
  ~Listener() { close(); }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;

  /// Binds and listens on a Unix-domain socket, replacing any stale file at
  /// `path` (the file is unlinked again on close).
  [[nodiscard]] static Listener listenUnix(const std::string& path,
                                           std::string* error);
  /// Binds and listens on 127.0.0.1:`port` (0 = ephemeral; see boundPort).
  [[nodiscard]] static Listener listenTcp(std::uint16_t port,
                                          std::string* error);

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  /// Actual bound TCP port (resolves port 0); 0 for Unix listeners.
  [[nodiscard]] std::uint16_t boundPort() const { return port_; }

  /// Accepts one connection before `deadline`.  On Timeout the caller can
  /// re-check its stop flag and call accept again.
  struct AcceptResult {
    Socket socket;
    IoStatus status = IoStatus::Ok;
    std::string message;
  };
  [[nodiscard]] AcceptResult accept(const Deadline& deadline);

  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::string unixPath_;  // unlinked on close
};

}  // namespace tprm::net
