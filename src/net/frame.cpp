#include "net/frame.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace tprm::net {

namespace {

FrameStatus fromIo(IoStatus status) {
  switch (status) {
    case IoStatus::Ok: return FrameStatus::Ok;
    case IoStatus::Timeout: return FrameStatus::Timeout;
    case IoStatus::Closed: return FrameStatus::Closed;
    case IoStatus::Error: return FrameStatus::Error;
    // The blocking read/write paths never see WouldBlock (they poll first);
    // mapping it to Error keeps the switch exhaustive.
    case IoStatus::WouldBlock: return FrameStatus::Error;
  }
  return FrameStatus::Error;
}

}  // namespace

const char* toString(FrameStatus status) {
  switch (status) {
    case FrameStatus::Ok: return "ok";
    case FrameStatus::Timeout: return "timeout";
    case FrameStatus::Closed: return "closed";
    case FrameStatus::TooLarge: return "frame too large";
    case FrameStatus::Error: return "error";
  }
  return "unknown";
}

FrameReadResult readFrame(Socket& socket, const FrameLimits& limits,
                          const Deadline& idleDeadline,
                          const Deadline& ioDeadline) {
  FrameReadResult result;

  // Idle wait: nothing consumed yet, so a timeout here leaves the stream
  // clean and the caller may keep the connection.
  const IoResult readable = socket.waitReadable(idleDeadline);
  if (!readable.ok()) {
    result.status = fromIo(readable.status);
    result.message = readable.message;
    return result;
  }

  unsigned char prefix[4];
  IoResult io = socket.readExact(prefix, sizeof prefix, ioDeadline);
  if (!io.ok()) {
    result.status = fromIo(io.status);
    result.message = io.message;
    return result;
  }
  const std::uint32_t length = (static_cast<std::uint32_t>(prefix[0]) << 24) |
                               (static_cast<std::uint32_t>(prefix[1]) << 16) |
                               (static_cast<std::uint32_t>(prefix[2]) << 8) |
                               static_cast<std::uint32_t>(prefix[3]);
  if (length > limits.maxPayloadBytes) {
    result.status = FrameStatus::TooLarge;
    result.message = "declared payload of " + std::to_string(length) +
                     " bytes exceeds limit of " +
                     std::to_string(limits.maxPayloadBytes);
    return result;
  }
  result.payload.resize(length);
  if (length > 0) {
    io = socket.readExact(result.payload.data(), length, ioDeadline);
    if (!io.ok()) {
      result.payload.clear();
      // EOF or timeout inside a declared frame is a protocol violation, not
      // a clean close.
      result.status = io.status == IoStatus::Timeout ? FrameStatus::Timeout
                                                     : FrameStatus::Error;
      result.message = io.message.empty() ? "truncated frame" : io.message;
      return result;
    }
  }
  return result;
}

FrameWriteResult writeFrame(Socket& socket, std::string_view payload,
                            const FrameLimits& limits,
                            const Deadline& deadline) {
  // One buffer, one writeAll: avoids a short TCP segment for the prefix and
  // keeps the write atomic with respect to the deadline.
  std::string wire;
  wire.reserve(4 + payload.size());
  FrameWriteResult result = appendFrame(wire, payload, limits);
  if (!result.ok()) return result;
  const IoResult io = socket.writeAll(wire.data(), wire.size(), deadline);
  if (!io.ok()) {
    result.status = fromIo(io.status);
    result.message = io.message;
  }
  return result;
}

namespace {

FrameWriteResult refuseOversized(std::size_t payloadBytes,
                                 const FrameLimits& limits) {
  FrameWriteResult result;
  result.status = FrameStatus::TooLarge;
  result.message = "refusing to send " + std::to_string(payloadBytes) +
                   " byte payload (limit " +
                   std::to_string(limits.maxPayloadBytes) + ")";
  return result;
}

void putPrefix(char* at, std::size_t payloadBytes) {
  const auto length = static_cast<std::uint32_t>(payloadBytes);
  at[0] = static_cast<char>(length >> 24);
  at[1] = static_cast<char>(length >> 16);
  at[2] = static_cast<char>(length >> 8);
  at[3] = static_cast<char>(length);
}

}  // namespace

FrameWriteResult appendFrame(std::string& out, std::string_view payload,
                             const FrameLimits& limits) {
  if (payload.size() > limits.maxPayloadBytes) {
    return refuseOversized(payload.size(), limits);
  }
  char prefix[4];
  putPrefix(prefix, payload.size());
  out.append(prefix, sizeof prefix);
  out.append(payload.data(), payload.size());
  return {};
}

FrameWriteResult sealFrame(std::string& out, std::size_t start,
                           const FrameLimits& limits) {
  const std::size_t payloadBytes = out.size() - start - 4;
  if (payloadBytes > limits.maxPayloadBytes) {
    out.resize(start);
    return refuseOversized(payloadBytes, limits);
  }
  putPrefix(out.data() + start, payloadBytes);
  return {};
}

void FrameDecoder::reserveTail(std::size_t n) {
  if (consumed_ > 0 && consumed_ >= size_ / 2) {
    std::memmove(buffer_.get(), buffer_.get() + consumed_, size_ - consumed_);
    size_ -= consumed_;
    consumed_ = 0;
  }
  if (capacity_ - size_ >= n) return;
  const std::size_t grown = std::max(2 * capacity_, size_ + n);
  auto larger = std::make_unique_for_overwrite<char[]>(grown);
  if (size_ > consumed_) {
    std::memcpy(larger.get(), buffer_.get() + consumed_, size_ - consumed_);
  }
  size_ -= consumed_;
  consumed_ = 0;
  buffer_ = std::move(larger);
  capacity_ = grown;
}

std::span<char> FrameDecoder::prepare() {
  // Grow only when the last read filled the space it was offered (more is
  // probably waiting) or there is no buffer yet; otherwise offer the spare
  // room already there.
  reserveTail(filled_ || capacity_ == 0 ? window_ : 1);
  filled_ = false;
  prepared_ = capacity_ - size_;
  return {buffer_.get() + size_, prepared_};
}

void FrameDecoder::commit(std::size_t n) {
  TPRM_CHECK(n <= prepared_, "commit exceeds the prepared space");
  if (n == prepared_ && n > 0) {
    filled_ = true;
    window_ = std::min(2 * window_, kMaxReadWindow);
  }
  prepared_ = 0;
  if (!failed_) size_ += n;
}

bool FrameDecoder::next(std::string_view* payload) {
  if (failed_) return false;
  const std::size_t available = size_ - consumed_;
  if (available < 4) return false;
  const auto* p =
      reinterpret_cast<const unsigned char*>(buffer_.get() + consumed_);
  const std::uint32_t length = (static_cast<std::uint32_t>(p[0]) << 24) |
                               (static_cast<std::uint32_t>(p[1]) << 16) |
                               (static_cast<std::uint32_t>(p[2]) << 8) |
                               static_cast<std::uint32_t>(p[3]);
  if (length > limits_.maxPayloadBytes) {
    failed_ = true;
    message_ = "declared payload of " + std::to_string(length) +
               " bytes exceeds limit of " +
               std::to_string(limits_.maxPayloadBytes);
    return false;
  }
  if (available - 4 < length) return false;
  *payload = std::string_view(buffer_.get() + consumed_ + 4, length);
  consumed_ += 4 + static_cast<std::size_t>(length);
  return true;
}

}  // namespace tprm::net
