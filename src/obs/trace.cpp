#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "common/check.h"

namespace tprm::obs {

std::int64_t monotonicNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string TraceSpan::detailText() const {
  if (!granted) return detail;
  char text[64];
  std::snprintf(text, sizeof(text), "chain=%zu quality=%.3f", chainIndex,
                quality);
  return text;
}

TraceRing::TraceRing(std::size_t capacity) : capacity_(capacity) {
  TPRM_CHECK(capacity >= 1, "TraceRing needs capacity >= 1");
  ring_.reserve(capacity);
}

std::uint64_t TraceRing::record(TraceSpan span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  span.seq = next_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(span));
  } else {
    ring_[static_cast<std::size_t>(next_ % capacity_)] = std::move(span);
  }
  return next_++;
}

std::size_t TraceRing::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

std::uint64_t TraceRing::totalRecorded() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_;
}

std::vector<TraceSpan> TraceRing::recent() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceSpan> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;  // not yet wrapped: storage order is age order
  } else {
    // Oldest span sits at the next eviction slot.
    const std::size_t head = static_cast<std::size_t>(next_ % capacity_);
    for (std::size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(head + i) % capacity_]);
    }
  }
  return out;
}

JsonValue TraceRing::snapshot() const {
  JsonValue::Array spans;
  for (const auto& span : recent()) {
    JsonValue::Object s;
    s["seq"] = static_cast<std::int64_t>(span.seq);
    s["name"] = span.name;
    s["request_id"] = static_cast<std::int64_t>(span.requestId);
    s["arrival_seq"] = static_cast<std::int64_t>(span.arrivalSeq);
    s["job_id"] = static_cast<std::int64_t>(span.jobId);
    s["ok"] = span.ok;
    s["queue_wait_us"] = span.queueWaitUs();
    s["execute_us"] = span.executeUs();
    s["detail"] = span.detailText();
    spans.emplace_back(std::move(s));
  }
  return JsonValue(std::move(spans));
}

}  // namespace tprm::obs
