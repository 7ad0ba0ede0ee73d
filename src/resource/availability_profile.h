// Processor-availability profile over time: the QoS arbitrator's view of the
// machine.
//
// Section 5.2 of the paper describes the heuristic as tracking "available
// maximal holes in the processor-time 2D space", each hole a triple
// (t_b, t_e, m).  This module keeps the *availability step function*
// (free processors as a piecewise-constant function of time) as the
// authoritative representation; maximal holes are derived from it on demand
// (`maximalHoles`), and first-fit probes walk the step function directly
// (`findEarliestFit`), which is equivalent to first-fit over maximal holes
// but needs no hole list maintenance on reserve/release.
//
// Storage is a flat sorted vector of segments (binary-search lookup,
// in-place splice on reserve/release) rather than a node-based tree: the
// admission loop probes and mutates the profile thousands of times per
// simulated job stream, and the segment count stays small (it is garbage
// collected behind the simulation clock), so contiguous storage wins on
// every access.  A reference `std::map` implementation with identical
// semantics is retained in reference_profile.h for differential testing and
// before/after benchmarking.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/time.h"

namespace tprm::obs {
struct ProfileMetrics;  // obs/metrics.h; nullable observation hook
}  // namespace tprm::obs

namespace tprm::resource {

/// A maximal rectangle of free capacity: `processors` are simultaneously free
/// throughout [begin, end), and the rectangle is not contained in any other
/// such rectangle (Section 5.2's (t_b, t_e, m) triple).  `end` may be
/// `kTimeInfinity` for the trailing hole.
struct MaximalHole {
  Time begin = 0;
  Time end = 0;
  int processors = 0;

  [[nodiscard]] constexpr TimeInterval interval() const {
    return TimeInterval{begin, end};
  }
  constexpr bool operator==(const MaximalHole&) const = default;
};

/// Caller-owned resume hint for `findEarliestFit`.  A probe records where its
/// scan entered the step function; the next probe with the same or a later
/// `earliest` resumes there instead of binary-searching from scratch.  The
/// hint is validated against both the issuing profile's identity token and
/// its mutation counter, so a stale hint (any reserve/release/discard since
/// it was written) or a foreign hint (written by a *different* profile whose
/// mutation counter coincidentally matches) silently degrades to the full
/// lookup — it can never change the result.
struct FitHint {
  /// Identity of the profile that wrote the hint (see
  /// AvailabilityProfile::profileId).  0 never matches a live profile.
  std::uint64_t profile = 0;
  std::uint64_t version = 0;
  Time time = 0;
  std::size_t index = 0;
};

/// Piecewise-constant "free processors over time" function for a homogeneous
/// machine with a fixed processor count (the paper's machine model).
///
/// Invariants:
///  * every point in time has availability in [0, totalProcessors];
///  * adjacent segments with equal availability are coalesced;
///  * beyond the last reservation the availability is `totalProcessors`
///    (reservations are finite).
///
/// Planning is read-only: the greedy arbitrator probes every chain of a
/// job with `findEarliestFit` against the committed profile and reserves
/// only the winner (a chain's tasks run back to back, so reserving one task
/// never changes the probe for the next).  Speculation that must compose
/// mutations uses a `Trial` scope, an undo log of the applied operations:
/// an elastic victim shrink followed by a newcomer admission, a resize, a
/// cross-shard gang fragment, and DAG placement (whose sibling tasks
/// overlap in time).  Rolling back replays the inverse operations, which
/// costs O(touched segments).
class AvailabilityProfile {
 public:
  /// RAII undo-log scope for speculative placement.  While a Trial is open,
  /// every reserve/release on the profile is logged; `rollback()` undoes all
  /// logged operations (the scope stays open for the next candidate), and
  /// `commit()` keeps them and closes the scope.  Destruction without commit
  /// rolls back.  Scopes do not nest, and `discardBefore` is forbidden while
  /// one is open.
  class Trial {
   public:
    explicit Trial(AvailabilityProfile& profile);
    ~Trial();
    Trial(const Trial&) = delete;
    Trial& operator=(const Trial&) = delete;

    /// Undoes every operation logged since the scope opened (or since the
    /// last rollback).  The scope stays open.
    void rollback();

    /// Opaque marker into the undo log (see savepoint/rollbackTo).
    using Savepoint = std::size_t;

    /// Marks the current undo-log position.  A later `rollbackTo` undoes
    /// only the operations logged after the mark, keeping everything before
    /// it — the building block for layered speculation (e.g. shrink a victim,
    /// then try a newcomer, then abandon just the newcomer's placements).
    /// Savepoints taken before a full `rollback()` are invalidated by it.
    [[nodiscard]] Savepoint savepoint() const;

    /// Undoes every operation logged after `mark` (most recent first).  The
    /// scope stays open and operations logged before `mark` remain pending.
    void rollbackTo(Savepoint mark);

    /// Accepts the logged operations and closes the scope.
    void commit();

   private:
    AvailabilityProfile* profile_;
  };

  /// A machine with `totalProcessors` processors, fully free from time 0.
  /// `totalProcessors` must be positive.
  explicit AvailabilityProfile(int totalProcessors);

  /// Copies take a fresh identity: a FitHint written by the source must not
  /// validate against the copy once their histories diverge (their mutation
  /// counters can collide).  Moves keep the identity — the target is the
  /// same profile continued, and outstanding hints stay exact.
  AvailabilityProfile(const AvailabilityProfile& other);
  AvailabilityProfile& operator=(const AvailabilityProfile& other);
  AvailabilityProfile(AvailabilityProfile&&) = default;
  AvailabilityProfile& operator=(AvailabilityProfile&&) = default;

  [[nodiscard]] int totalProcessors() const { return total_; }

  /// Free processors at instant `t` (t >= horizon start).
  [[nodiscard]] int availableAt(Time t) const;

  /// Minimum free processors over [iv.begin, iv.end).  Empty interval
  /// yields `totalProcessors`.
  [[nodiscard]] int minAvailable(TimeInterval iv) const;

  /// Subtracts `processors` from availability over `iv`.
  /// Aborts if any instant would go negative (callers must probe first) or if
  /// `iv` starts before the garbage-collected horizon.
  void reserve(TimeInterval iv, int processors);

  /// Adds `processors` back over `iv` (inverse of reserve).  Aborts if any
  /// instant would exceed `totalProcessors`.
  void release(TimeInterval iv, int processors);

  /// Earliest start time s >= `earliest` such that `processors` are free over
  /// [s, s + duration) and s + duration <= `deadline`.  Returns nullopt when
  /// no such s exists.  Zero-duration tasks fit at `earliest` provided
  /// earliest <= deadline.  `hint`, when given, caches the scan entry point
  /// across probes with non-decreasing `earliest` (see FitHint).
  [[nodiscard]] std::optional<Time> findEarliestFit(
      Time earliest, Time duration, int processors, Time deadline,
      FitHint* hint = nullptr) const;

  /// Busy processor-ticks (reserved capacity) over the window:
  /// integral of (totalProcessors - available) dt.  Used by the heuristic's
  /// window-utilization tie-break and by the simulator's metrics.
  [[nodiscard]] std::int64_t busyProcessorTicks(TimeInterval window) const;

  /// All maximal holes that intersect `window`, clipped to it, ordered by
  /// begin time then by processor count.  The paper's hole representation;
  /// O(segments^2) worst case, intended for inspection, tests, and
  /// small-window tie-break analysis rather than the hot scheduling path.
  [[nodiscard]] std::vector<MaximalHole> maximalHoles(TimeInterval window) const;

  /// Drops all profile detail before `t` (the simulation clock can never
  /// schedule in the past).  Busy capacity discarded this way is accumulated
  /// and retrievable via `retiredBusyTicks` so utilization metrics stay
  /// exact.  Forbidden while a Trial scope is open.
  void discardBefore(Time t);

  /// Busy processor-ticks already discarded by `discardBefore`.
  [[nodiscard]] std::int64_t retiredBusyTicks() const { return retiredBusy_; }

  /// Earliest time the profile still represents (advanced by discardBefore).
  [[nodiscard]] Time horizonStart() const { return segments_.front().start; }

  /// Number of internal segments (diagnostics; bounded under steady state).
  [[nodiscard]] std::size_t segmentCount() const { return segments_.size(); }

  /// True while a Trial scope is open (diagnostics).
  [[nodiscard]] bool inTrial() const { return inTrial_; }

  /// Mutation counter; any state change invalidates outstanding FitHints.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// Process-unique identity token (never 0).  Copies get a fresh token,
  /// moves keep it; FitHints validate against it (see FitHint).
  [[nodiscard]] std::uint64_t profileId() const { return id_; }

  /// Attaches (or with nullptr detaches) observation counters for the
  /// search machinery: fit probes, hint hits/misses, segments scanned,
  /// holes materialised, trial rollbacks/commits.  Counters only observe —
  /// they never influence a result — so attaching cannot change any
  /// scheduling decision.  Copies share the attachment (their probe work
  /// aggregates into the same counters); detach on the copy if unwanted.
  void attachMetrics(obs::ProfileMetrics* metrics) { metrics_ = metrics; }
  [[nodiscard]] obs::ProfileMetrics* metrics() const { return metrics_; }

  /// Times at which availability changes, in increasing order, including the
  /// horizon start.  Mostly for tests and debugging output.
  [[nodiscard]] std::vector<Time> breakpoints() const;
  /// Appends breakpoints() to `out` (which keeps its capacity across calls).
  void appendBreakpoints(std::vector<Time>& out) const;

  /// Multi-line human-readable dump, e.g. "[0, 25) 12 free".
  [[nodiscard]] std::string dump() const;

 private:
  /// One step of the availability function: `avail` free processors from
  /// `start` until the next segment's start (the last segment extends to
  /// infinity and always has value `total_`).
  struct Segment {
    Time start;
    int avail;
  };

  /// One logged trial operation (delta applied over iv).
  struct TrialOp {
    TimeInterval iv;
    int delta;
  };

  /// Segments per skip-index block.  Each block stores the maximum
  /// availability of its segments so `findEarliestFit` can leap over whole
  /// blocks that cannot satisfy a request.
  static constexpr std::size_t kBlockSize = 32;

  /// Index of the segment containing `t` (t >= horizon start).
  [[nodiscard]] std::size_t indexFor(Time t) const;

  /// Ensures a segment boundary exists exactly at `t` (t >= horizon start,
  /// t < infinity).  Returns the index of the segment starting at `t`.
  std::size_t splitAt(Time t);

  /// Applies +/-delta over iv with bounds checking, boundary coalescing,
  /// trial logging, and skip-index maintenance.
  void apply(TimeInterval iv, int delta);

  /// Recomputes block maxima for every block at or after the one containing
  /// `firstSegment` (earlier blocks are untouched by a splice at
  /// `firstSegment`).
  void rebuildBlocksFrom(std::size_t firstSegment);

  void beginTrialImpl();
  void rollbackTrialImpl();
  void rollbackTrialToImpl(std::size_t mark);
  void commitTrialImpl();

  // Sorted by start; never empty; coalesced; last segment has avail total_.
  std::vector<Segment> segments_;
  // blockMax_[b] = max avail over segments [b*kBlockSize, (b+1)*kBlockSize).
  std::vector<int> blockMax_;
  int total_;
  std::int64_t retiredBusy_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t id_ = 0;  // process-unique; fresh per construction/copy
  bool inTrial_ = false;
  bool replaying_ = false;  // suppress logging while rollback replays
  std::vector<TrialOp> trialLog_;
  obs::ProfileMetrics* metrics_ = nullptr;  // nullable observation hook
};

}  // namespace tprm::resource
