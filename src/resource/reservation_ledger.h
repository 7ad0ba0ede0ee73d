// Audit trail of committed reservations.
//
// The availability profile is the fast path; the ledger is the ground truth
// used to (a) verify that no instant is overcommitted and every task meets
// its deadline and precedence constraints, and (b) compute exact utilization
// metrics for the experiment harnesses.  Keeping both and cross-checking them
// is what lets the simulator assert its own correctness while running the
// paper's 10,000-job workloads.
//
// Cost model.  `add` is a plain append.  `annul` visits only the slots the
// caller hands it — the owner of a job (the QoS arbitrator) keeps its
// entries' slots, so a cancel or an elastic move costs O(the job's entries),
// not O(history).  An annulled entry is tombstoned in place; once
// tombstones make up more than a quarter of the entries, one stable
// compaction drops them all (O(n) per n/4 annulled entries: amortized O(1)
// each), keeping insertion order.  Compaction moves entries, so it bumps
// `layout()`: slots taken before it are stale and their owner re-reads them
// from `reservations()`.  The area total is kept running; the makespan is
// recomputed, lazily, only after an annul removed the entry that held it.
// Because `reservations()` and `makespan()` may compact or recompute, even
// the const queries need the owner's serialization (no concurrent readers).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/time.h"

namespace tprm::resource {

/// One committed processor reservation for one task of one job.
struct Reservation {
  std::uint64_t jobId = 0;
  /// Index of the task within its chain (0-based).
  int taskIndex = 0;
  /// Which of the job's alternative chains was chosen (0-based).
  int chainIndex = 0;
  TimeInterval interval;
  int processors = 0;
  /// Absolute deadline the task had to meet (kTimeInfinity if none).
  Time deadline = kTimeInfinity;

  /// Processor-ticks consumed by this reservation.
  [[nodiscard]] std::int64_t area() const {
    return static_cast<std::int64_t>(processors) * interval.length();
  }
};

/// Result of `ReservationLedger::verify`.
struct VerificationReport {
  bool ok = true;
  /// Human-readable description of the first violation found (empty if ok).
  std::string firstViolation;
  /// Number of distinct violations found.
  int violations = 0;
};

/// Record of committed reservations with exact verification and utilization
/// queries.  Entries are only ever removed by `annul` (cancellation of
/// not-yet-started work); everything else is append-only.
class ReservationLedger {
 public:
  /// Handle of one entry: its position in the ledger's storage, valid while
  /// `layout()` is unchanged (right after a compaction, its index in
  /// `reservations()`).
  using Slot = std::size_t;

  /// Ledger for a machine with `totalProcessors` processors.
  explicit ReservationLedger(int totalProcessors);

  /// Records one committed reservation and returns its slot.
  Slot add(const Reservation& r);

  /// Annuls (removes) the reservations among `slots` that begin at or after
  /// `from` — the bookkeeping counterpart of a cancellation returning
  /// not-yet-started capacity to the profile.  Started reservations stay:
  /// their capacity remains committed.  `slots` must hold, under the
  /// current layout, every live entry of `jobId` that may be annulled (and
  /// only `jobId`'s entries); the annulled ones are erased from it.  Returns
  /// the number of entries removed.  May compact, changing `layout()`.
  std::size_t annul(std::uint64_t jobId, Time from, std::vector<Slot>& slots);

  /// Live entries in insertion order (compacts pending tombstones first).
  [[nodiscard]] const std::vector<Reservation>& reservations() const {
    if (dead_ != 0) compact();
    return entries_;
  }
  /// Changes exactly when compaction moves entries (slots go stale).
  [[nodiscard]] std::uint64_t layout() const { return layout_; }
  [[nodiscard]] int totalProcessors() const { return total_; }

  /// Total processor-ticks across all reservations.
  [[nodiscard]] std::int64_t totalArea() const { return totalArea_; }

  /// Latest reservation end time (0 if empty).
  [[nodiscard]] Time makespan() const;

  /// Utilization over [0, horizon): reserved processor-ticks clipped to the
  /// window divided by capacity.  `horizon` must be positive.
  [[nodiscard]] double utilization(Time horizon) const;

  /// Exhaustive verification:
  ///  * capacity: at no instant does the reserved processor sum exceed total;
  ///  * deadlines: every reservation finishes by its recorded deadline;
  ///  * precedence: within each (jobId, chainIndex), task k+1 starts no
  ///    earlier than task k ends.
  /// O(n log n); intended for test/validation runs, not per-arrival use.
  [[nodiscard]] VerificationReport verify() const;

 private:
  /// Tombstone marker: `add` rejects negative processor counts.
  static constexpr int kAnnulled = -1;
  [[nodiscard]] static bool annulled(const Reservation& r) {
    return r.processors == kAnnulled;
  }
  /// Drops every tombstone, keeping insertion order; bumps the layout.
  void compact() const;

  // Compaction is invisible to the ledger's value (`reservations()` never
  // shows a tombstone), so the const queries may perform it.
  mutable std::vector<Reservation> entries_;
  mutable std::size_t dead_ = 0;
  mutable std::uint64_t layout_ = 0;
  int total_;
  std::int64_t totalArea_ = 0;
  mutable Time makespan_ = 0;
  /// An annul removed the entry holding `makespan_`; recompute on demand.
  mutable bool makespanStale_ = false;
};

}  // namespace tprm::resource
