// Lightweight trace spans for recent negotiations.
//
// One `TraceSpan` records the life of a command through the service:
// queued (session thread handed it to the command queue), started
// (arbitrator thread picked it up), ended (decision made).  Timestamps are
// monotonic nanoseconds (steady clock), so queue-wait and execute durations
// are immune to wall-clock jumps.  Spans live in a bounded ring buffer —
// the newest `capacity` negotiations are inspectable at any time (SIGUSR1
// dump, --metrics-out snapshots) with O(capacity) memory, no matter how
// long the daemon has been up.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"

namespace tprm::obs {

/// Monotonic timestamp in nanoseconds (std::chrono::steady_clock).
[[nodiscard]] std::int64_t monotonicNanos();

struct TraceSpan {
  /// Ring-assigned sequence number (monotonic across evictions).
  std::uint64_t seq = 0;
  /// Command name, e.g. "NEGOTIATE".
  std::string name;
  std::int64_t queuedNs = 0;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::uint64_t requestId = 0;
  std::uint64_t arrivalSeq = 0;
  /// Job id for negotiations (0 otherwise).
  std::uint64_t jobId = 0;
  /// Negotiations: admitted.  Other commands: executed without error.
  bool ok = false;
  /// Free-form decision detail, e.g. "rejected".
  std::string detail;
  /// Admitted negotiations: the granted chain and its quality, kept as
  /// values so recording formats nothing; detailText() renders them.
  bool granted = false;
  std::size_t chainIndex = 0;
  double quality = 0.0;

  /// `detail`, or for a granted negotiation "chain=<i> quality=<q>" with
  /// q to three decimals, e.g. "chain=1 quality=0.700".
  [[nodiscard]] std::string detailText() const;

  [[nodiscard]] double queueWaitUs() const {
    return static_cast<double>(startNs - queuedNs) / 1'000.0;
  }
  [[nodiscard]] double executeUs() const {
    return static_cast<double>(endNs - startNs) / 1'000.0;
  }
};

/// Bounded, thread-safe ring of the most recent spans.
class TraceRing {
 public:
  /// `capacity` >= 1 spans are retained (older ones are evicted in order).
  explicit TraceRing(std::size_t capacity);

  /// Stamps `span.seq` and stores it, evicting the oldest span if full.
  /// Returns the assigned sequence number.
  std::uint64_t record(TraceSpan span);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Spans currently retained (<= capacity).
  [[nodiscard]] std::size_t size() const;
  /// Spans ever recorded (>= size()).
  [[nodiscard]] std::uint64_t totalRecorded() const;

  /// Retained spans, oldest first.
  [[nodiscard]] std::vector<TraceSpan> recent() const;

  /// JSON array of retained spans, oldest first; each element carries
  /// {"seq","name","request_id","arrival_seq","job_id","ok",
  ///  "queue_wait_us","execute_us","detail"}, "detail" from detailText().
  [[nodiscard]] JsonValue snapshot() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<TraceSpan> ring_;  // ring_[next_ % capacity_] is the eviction slot
  std::uint64_t next_ = 0;       // == totalRecorded
};

}  // namespace tprm::obs
