// Length-prefixed message framing over a stream socket.
//
// Wire format: a 4-byte big-endian unsigned payload length followed by
// exactly that many payload bytes (JSON text in the negotiation protocol,
// but this layer is content-agnostic).  The length prefix is validated
// against a per-connection limit *before* any payload is read, so a
// malicious 4-GB declaration costs the server four bytes, not an
// allocation.  After a TooLarge or Error result the stream position is
// undefined and the connection must be closed; Timeout mid-frame likewise
// desynchronizes the stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "net/socket.h"

namespace tprm::net {

struct FrameLimits {
  /// Largest acceptable payload.  1 MiB comfortably holds a negotiation
  /// request with hundreds of execution paths while bounding per-connection
  /// memory.
  std::size_t maxPayloadBytes = 1 << 20;
};

enum class FrameStatus {
  Ok,
  Timeout,   // deadline expired (if mid-frame, the stream is desynced)
  Closed,    // clean EOF between frames
  TooLarge,  // declared length exceeds the limit; close the connection
  Error,     // I/O or protocol failure (message has the details)
};

struct FrameReadResult {
  FrameStatus status = FrameStatus::Ok;
  std::string payload;  // valid iff status == Ok
  std::string message;  // diagnostic for TooLarge/Error

  [[nodiscard]] bool ok() const { return status == FrameStatus::Ok; }
};

[[nodiscard]] const char* toString(FrameStatus status);

/// Reads one frame.  `idleDeadline` bounds the wait for the *first* byte
/// (how long a connection may sit silent); once a frame has started,
/// `ioDeadline` bounds the remainder (a peer that stalls mid-frame is cut
/// off).  Pass the same deadline twice for a single budget.
[[nodiscard]] FrameReadResult readFrame(Socket& socket,
                                        const FrameLimits& limits,
                                        const Deadline& idleDeadline,
                                        const Deadline& ioDeadline);

/// Writes one frame (length prefix + payload).  Refuses payloads over the
/// limit locally (FrameStatus::TooLarge) rather than sending them.
struct FrameWriteResult {
  FrameStatus status = FrameStatus::Ok;
  std::string message;

  [[nodiscard]] bool ok() const { return status == FrameStatus::Ok; }
};

[[nodiscard]] FrameWriteResult writeFrame(Socket& socket,
                                          std::string_view payload,
                                          const FrameLimits& limits,
                                          const Deadline& deadline);

/// Encodes one frame (4-byte big-endian length prefix + payload) into a
/// wire buffer, appending to `out`.  The event-loop server frames the
/// responses its workers encoded into its per-connection output buffers
/// with this (and encodes its own with appendFrameInPlace); TooLarge is
/// refused locally just like writeFrame.
[[nodiscard]] FrameWriteResult appendFrame(std::string& out,
                                           std::string_view payload,
                                           const FrameLimits& limits);

/// Appends one frame whose payload `encode(out)` appends to `out` in place,
/// behind a reserved length prefix that is patched afterwards: the same
/// bytes as appendFrame(out, payload) without building the payload
/// separately and copying it.  An oversized payload is rolled back (`out`
/// is left as it was) and refused with TooLarge.
template <typename Encode>
[[nodiscard]] FrameWriteResult appendFrameInPlace(std::string& out,
                                                  const FrameLimits& limits,
                                                  Encode&& encode);

/// appendFrameInPlace's second half: patches the prefix of the frame that
/// starts at `start` (its payload runs to the end of `out`), or rolls `out`
/// back to `start` when the payload is over the limit.
[[nodiscard]] FrameWriteResult sealFrame(std::string& out, std::size_t start,
                                         const FrameLimits& limits);

template <typename Encode>
FrameWriteResult appendFrameInPlace(std::string& out,
                                    const FrameLimits& limits,
                                    Encode&& encode) {
  const std::size_t start = out.size();
  out.append(4, '\0');
  encode(out);
  return sealFrame(out, start, limits);
}

/// Incremental frame decoder: read any number of bytes into it in any
/// chunking (a single byte at a time works) and pull complete frames out.  The
/// length prefix is validated against the limit as soon as next() sees its
/// fourth byte, so an oversized declaration is refused before its payload
/// is ever waited for, exactly like the blocking readFrame path.
///
/// Usage, reading a socket straight into the decoder's buffer:
///   const auto space = decoder.prepare();
///   const auto chunk = socket.readSome(space.data(), space.size());
///   decoder.commit(chunk.bytes);
///   std::string_view payload;
///   while (decoder.next(&payload)) { handle(payload); }
///   if (decoder.failed()) { close connection; }
///
/// After failed() reports true the stream is desynchronized and the
/// decoder refuses further input; the connection must be closed.
class FrameDecoder {
 public:
  /// The buffer grows only when a read fills the space prepare() offered:
  /// then to at least the read window, which starts at kMinReadWindow and
  /// doubles, up to kMaxReadWindow, with each filled read.  A connection
  /// that only ever carries small frames keeps a small buffer.
  static constexpr std::size_t kMinReadWindow = 4 * 1024;
  static constexpr std::size_t kMaxReadWindow = 64 * 1024;

  explicit FrameDecoder(FrameLimits limits = {}) : limits_(limits) {}

  /// Writable space after the buffered bytes (never empty), for the caller
  /// to read wire bytes into; commit() accepts them.  Invalidates every
  /// view next() returned.
  [[nodiscard]] std::span<char> prepare();

  /// Accepts the first `n` bytes of the space the last prepare() returned
  /// (`n` at most its size).  Bytes are dropped after a decode failure.
  void commit(std::size_t n);

  /// Points `payload` at the next complete frame, inside the decoder's own
  /// buffer: no copy is made, and the view stays valid until the next
  /// prepare().  Returns false when more bytes are needed (or after a
  /// failure — check failed()).
  [[nodiscard]] bool next(std::string_view* payload);

  /// True once an oversized declaration has been seen.
  [[nodiscard]] bool failed() const { return failed_; }
  /// Diagnostic for the failure, empty otherwise.
  [[nodiscard]] const std::string& message() const { return message_; }

  /// Bytes buffered but not yet returned (partial frame in progress).
  [[nodiscard]] std::size_t pendingBytes() const { return size_ - consumed_; }

  /// Bytes the buffer holds allocated (diagnostics, tests).
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  /// Makes room for `n` more bytes after the buffered ones.  Compacts once
  /// the consumed prefix dominates the buffer, so a long-lived connection
  /// does not grow its input buffer without bound; grows geometrically.
  void reserveTail(std::size_t n);

  FrameLimits limits_;
  std::unique_ptr<char[]> buffer_;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;      // bytes buffered, the consumed prefix included
  std::size_t consumed_ = 0;  // prefix of the buffer already handed out
  std::size_t window_ = kMinReadWindow;
  std::size_t prepared_ = 0;  // size of the last prepare()'s space
  bool filled_ = false;       // the last commit filled the prepared space
  bool failed_ = false;
  std::string message_;
};

}  // namespace tprm::net
