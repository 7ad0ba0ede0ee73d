#include "resource/availability_profile.h"

#include <algorithm>
#include <atomic>
#include <sstream>

#include "common/check.h"
#include "obs/metrics.h"

namespace tprm::resource {

namespace {

/// Process-unique profile identity tokens (FitHint validation).  Atomic so
/// profiles may be constructed from any thread; starts at 1 so a
/// default-constructed FitHint (profile == 0) never validates.
std::uint64_t nextProfileId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Accumulates locally (a register increment on the scan path) and flushes
/// once into the counter — when one is attached — on scope exit.
struct CounterFlush {
  obs::Counter* sink;
  std::uint64_t n = 0;
  ~CounterFlush() {
    if (sink != nullptr && n > 0) sink->add(n);
  }
};

}  // namespace

AvailabilityProfile::AvailabilityProfile(int totalProcessors)
    : total_(totalProcessors), id_(nextProfileId()) {
  TPRM_CHECK(totalProcessors > 0, "machine needs at least one processor");
  segments_.push_back(Segment{Time{0}, total_});
  blockMax_.push_back(total_);
}

AvailabilityProfile::AvailabilityProfile(const AvailabilityProfile& other)
    : segments_(other.segments_),
      blockMax_(other.blockMax_),
      total_(other.total_),
      retiredBusy_(other.retiredBusy_),
      version_(other.version_),
      id_(nextProfileId()),
      inTrial_(other.inTrial_),
      replaying_(other.replaying_),
      trialLog_(other.trialLog_),
      metrics_(other.metrics_) {}

AvailabilityProfile& AvailabilityProfile::operator=(
    const AvailabilityProfile& other) {
  if (this == &other) return *this;
  segments_ = other.segments_;
  blockMax_ = other.blockMax_;
  total_ = other.total_;
  retiredBusy_ = other.retiredBusy_;
  version_ = other.version_;
  id_ = nextProfileId();  // old hints against *this must not survive
  inTrial_ = other.inTrial_;
  replaying_ = other.replaying_;
  trialLog_ = other.trialLog_;
  metrics_ = other.metrics_;
  return *this;
}

std::size_t AvailabilityProfile::indexFor(Time t) const {
  TPRM_CHECK(t >= segments_.front().start,
             "query before the garbage-collected horizon");
  // Last segment whose start is <= t.
  const auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](Time value, const Segment& s) { return value < s.start; });
  return static_cast<std::size_t>(it - segments_.begin()) - 1;
}

int AvailabilityProfile::availableAt(Time t) const {
  return segments_[indexFor(t)].avail;
}

int AvailabilityProfile::minAvailable(TimeInterval iv) const {
  if (iv.empty()) return total_;
  int minFree = total_;
  for (std::size_t i = indexFor(iv.begin);
       i < segments_.size() && segments_[i].start < iv.end; ++i) {
    minFree = std::min(minFree, segments_[i].avail);
  }
  return minFree;
}

std::size_t AvailabilityProfile::splitAt(Time t) {
  const auto it = std::lower_bound(
      segments_.begin(), segments_.end(), t,
      [](const Segment& s, Time value) { return s.start < value; });
  if (it != segments_.end() && it->start == t) {
    return static_cast<std::size_t>(it - segments_.begin());
  }
  TPRM_CHECK(it != segments_.begin(), "split before horizon start");
  const std::size_t idx = static_cast<std::size_t>(it - segments_.begin());
  segments_.insert(it, Segment{t, segments_[idx - 1].avail});
  return idx;
}

void AvailabilityProfile::apply(TimeInterval iv, int delta) {
  if (iv.empty()) return;
  TPRM_CHECK(iv.begin >= segments_.front().start,
             "reservation before the garbage-collected horizon");
  TPRM_CHECK(iv.end < kTimeInfinity, "reservations must be finite");
  if (delta == 0) return;  // value-preserving; avoid pointless splits

  const std::size_t first = splitAt(iv.begin);
  std::size_t last = splitAt(iv.end);  // one past the touched range
  for (std::size_t i = first; i < last; ++i) {
    const int updated = segments_[i].avail + delta;
    TPRM_CHECK(updated >= 0, "overcommitted: reservation exceeds free capacity");
    TPRM_CHECK(updated <= total_, "release exceeds reserved capacity");
    segments_[i].avail = updated;
  }

  if (inTrial_ && !replaying_) trialLog_.push_back(TrialOp{iv, delta});

  // Interior pairs shifted by the same delta keep their inequality, and the
  // boundaries split above become unequal once delta lands, so only the two
  // range-boundary pairs can need coalescing.
  if (last < segments_.size() &&
      segments_[last - 1].avail == segments_[last].avail) {
    segments_.erase(segments_.begin() + static_cast<std::ptrdiff_t>(last));
  }
  if (first > 0 && segments_[first - 1].avail == segments_[first].avail) {
    segments_.erase(segments_.begin() + static_cast<std::ptrdiff_t>(first));
  }

  ++version_;
  rebuildBlocksFrom(first > 0 ? first - 1 : 0);
}

void AvailabilityProfile::rebuildBlocksFrom(std::size_t firstSegment) {
  const std::size_t blocks =
      (segments_.size() + kBlockSize - 1) / kBlockSize;
  blockMax_.resize(blocks);
  for (std::size_t b = firstSegment / kBlockSize; b < blocks; ++b) {
    const std::size_t lo = b * kBlockSize;
    const std::size_t hi = std::min(lo + kBlockSize, segments_.size());
    int m = 0;
    for (std::size_t i = lo; i < hi; ++i) m = std::max(m, segments_[i].avail);
    blockMax_[b] = m;
  }
}

void AvailabilityProfile::reserve(TimeInterval iv, int processors) {
  TPRM_CHECK(processors >= 0, "negative processor count");
  apply(iv, -processors);
}

void AvailabilityProfile::release(TimeInterval iv, int processors) {
  TPRM_CHECK(processors >= 0, "negative processor count");
  apply(iv, processors);
}

std::optional<Time> AvailabilityProfile::findEarliestFit(Time earliest,
                                                         Time duration,
                                                         int processors,
                                                         Time deadline,
                                                         FitHint* hint) const {
  TPRM_CHECK(duration >= 0, "negative duration");
  TPRM_CHECK(processors >= 0, "negative processor count");
  if (metrics_ != nullptr) metrics_->fitProbes->add();
  if (processors > total_) return std::nullopt;
  if (earliest + duration > deadline) return std::nullopt;
  if (duration == 0 || processors == 0) return earliest;

  earliest = std::max(earliest, segments_.front().start);
  if (earliest + duration > deadline) return std::nullopt;

  const std::size_t n = segments_.size();
  CounterFlush scanned{metrics_ != nullptr ? metrics_->segmentsScanned
                                           : nullptr};
  std::size_t i;
  // A hint is honoured only when written by THIS profile (identity token)
  // at its CURRENT state (mutation counter): equal counters on different
  // profiles are a coincidence, not equivalence.
  if (hint != nullptr && hint->profile == id_ && hint->version == version_ &&
      hint->time <= earliest && hint->index < n) {
    // Resume: successive probes only move forward in time, so the segment
    // containing `earliest` is at or after the hinted one.
    if (metrics_ != nullptr) metrics_->fitHintHits->add();
    i = hint->index;
    while (i + 1 < n && segments_[i + 1].start <= earliest) ++i;
  } else {
    if (metrics_ != nullptr && hint != nullptr) metrics_->fitHintMisses->add();
    i = indexFor(earliest);
  }
  if (hint != nullptr) *hint = FitHint{id_, version_, earliest, i};

  // Scan segments accumulating a contiguous run of sufficient availability.
  // Between runs, whole skip-index blocks whose maximum availability is
  // below the request are leapt over (their first insufficient segment
  // would only reset the run again).
  std::optional<Time> runStart;
  while (i < n) {
    if (!runStart && i % kBlockSize == 0) {
      while (i < n && blockMax_[i / kBlockSize] < processors) {
        const std::size_t nextBlock = i + kBlockSize;
        const Time blockEnd =
            nextBlock < n ? segments_[nextBlock].start : kTimeInfinity;
        // The earliest start after an insufficient block is its end; bail if
        // that already busts the deadline (the per-segment scan would bail
        // inside the block for exactly the same windows).
        if (blockEnd + duration > deadline) return std::nullopt;
        i = nextBlock;
      }
      if (i >= n) break;  // unreachable: tail segment has full availability
    }
    ++scanned.n;
    const Segment& seg = segments_[i];
    const Time segBegin = std::max(seg.start, earliest);
    const Time segEnd = i + 1 < n ? segments_[i + 1].start : kTimeInfinity;
    if (seg.avail >= processors) {
      if (!runStart) runStart = segBegin;
      if (*runStart + duration > deadline) return std::nullopt;
      if (segEnd - *runStart >= duration) return *runStart;
    } else {
      runStart.reset();
      // Earliest possible start is now segEnd; bail if that already busts
      // the deadline.
      if (segEnd + duration > deadline) return std::nullopt;
    }
    ++i;
  }
  return std::nullopt;  // unreachable: tail segment has full availability
}

std::int64_t AvailabilityProfile::busyProcessorTicks(TimeInterval window) const {
  if (window.empty()) return 0;
  const Time start = std::max(window.begin, segments_.front().start);
  if (start >= window.end) return 0;
  std::int64_t busy = 0;
  for (std::size_t i = indexFor(start);
       i < segments_.size() && segments_[i].start < window.end; ++i) {
    const Time segBegin = std::max(segments_[i].start, start);
    const Time segEnd = std::min(
        i + 1 < segments_.size() ? segments_[i + 1].start : kTimeInfinity,
        window.end);
    if (segEnd > segBegin) {
      busy += static_cast<std::int64_t>(total_ - segments_[i].avail) *
              (segEnd - segBegin);
    }
  }
  return busy;
}

std::vector<MaximalHole> AvailabilityProfile::maximalHoles(
    TimeInterval window) const {
  std::vector<MaximalHole> holes;
  // Early-outs: an empty request window, or one that clips to nothing
  // against the garbage-collected horizon, has no holes to report.
  if (window.empty()) return holes;
  const Time lo = std::max(window.begin, segments_.front().start);
  const Time hi = window.end;
  if (lo >= hi) return holes;
  // Fully-free profile: the single clipped segment is the only hole; skip
  // the quadratic run-growing pass.
  if (segments_.size() == 1) {
    holes.push_back(MaximalHole{lo, hi, total_});
    return holes;
  }

  // Materialise the clipped step function as (begin, end, avail) triples.
  struct Seg {
    Time begin;
    Time end;
    int avail;
  };
  std::vector<Seg> segs;
  for (std::size_t i = indexFor(lo);
       i < segments_.size() && segments_[i].start < hi; ++i) {
    const Time e =
        i + 1 < segments_.size() ? segments_[i + 1].start : kTimeInfinity;
    segs.push_back(Seg{std::max(segments_[i].start, lo), std::min(e, hi),
                       segments_[i].avail});
  }

  // For each segment i, grow the widest run [l, r] whose minimum equals
  // segs[i].avail with segs[i] as (one of) the minima.  Each distinct
  // (run, level=min) pair is a maximal hole: widening the run drops the
  // minimum below the level, raising the level is impossible since some
  // segment equals it.  Skip level 0 (no capacity => not a hole).
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const int level = segs[i].avail;
    if (level <= 0) continue;
    std::size_t l = i;
    while (l > 0 && segs[l - 1].avail >= level) --l;
    // Dedup: the same (run, level) hole is reachable from every segment in
    // the run whose availability equals `level`; emit from the first only.
    bool emittedEarlier = false;
    for (std::size_t j = l; j < i; ++j) {
      if (segs[j].avail == level) {
        emittedEarlier = true;
        break;
      }
    }
    if (emittedEarlier) continue;
    std::size_t r = i;
    while (r + 1 < segs.size() && segs[r + 1].avail >= level) ++r;
    holes.push_back(MaximalHole{segs[l].begin, segs[r].end, level});
  }

  std::sort(holes.begin(), holes.end(), [](const MaximalHole& a,
                                           const MaximalHole& b) {
    if (a.begin != b.begin) return a.begin < b.begin;
    return a.processors < b.processors;
  });
  if (metrics_ != nullptr && !holes.empty()) {
    metrics_->holesScanned->add(holes.size());
  }
  return holes;
}

void AvailabilityProfile::discardBefore(Time t) {
  TPRM_CHECK(!inTrial_, "discardBefore is forbidden inside a Trial scope");
  if (t <= segments_.front().start) return;
  retiredBusy_ +=
      busyProcessorTicks(TimeInterval{segments_.front().start, t});
  // Keep the segment covering t, re-keyed to start at t.
  const std::size_t keep = indexFor(t);
  segments_.erase(segments_.begin(),
                  segments_.begin() + static_cast<std::ptrdiff_t>(keep));
  segments_.front().start = t;
  ++version_;
  rebuildBlocksFrom(0);
}

std::vector<Time> AvailabilityProfile::breakpoints() const {
  std::vector<Time> out;
  out.reserve(segments_.size());
  appendBreakpoints(out);
  return out;
}

void AvailabilityProfile::appendBreakpoints(std::vector<Time>& out) const {
  for (const auto& seg : segments_) out.push_back(seg.start);
}

std::string AvailabilityProfile::dump() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    os << '[' << formatTime(segments_[i].start) << ", "
       << (i + 1 < segments_.size() ? formatTime(segments_[i + 1].start)
                                    : std::string("inf"))
       << ") " << segments_[i].avail << " free\n";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Trial scope
// ---------------------------------------------------------------------------

void AvailabilityProfile::beginTrialImpl() {
  TPRM_CHECK(!inTrial_, "Trial scopes do not nest");
  TPRM_CHECK(trialLog_.empty(), "stale trial log");
  inTrial_ = true;
}

void AvailabilityProfile::rollbackTrialImpl() {
  TPRM_CHECK(inTrial_, "rollback without an open trial");
  if (metrics_ != nullptr) {
    metrics_->trialRollbacks->add();
    if (!trialLog_.empty()) metrics_->trialOpsUndone->add(trialLog_.size());
  }
  replaying_ = true;
  for (auto it = trialLog_.rbegin(); it != trialLog_.rend(); ++it) {
    apply(it->iv, -it->delta);
  }
  replaying_ = false;
  trialLog_.clear();
}

void AvailabilityProfile::rollbackTrialToImpl(std::size_t mark) {
  TPRM_CHECK(inTrial_, "rollbackTo without an open trial");
  TPRM_CHECK(mark <= trialLog_.size(), "savepoint from a different epoch");
  if (mark == trialLog_.size()) return;
  if (metrics_ != nullptr) {
    metrics_->trialRollbacks->add();
    metrics_->trialOpsUndone->add(trialLog_.size() - mark);
  }
  replaying_ = true;
  while (trialLog_.size() > mark) {
    const TrialOp op = trialLog_.back();
    trialLog_.pop_back();
    apply(op.iv, -op.delta);
  }
  replaying_ = false;
}

void AvailabilityProfile::commitTrialImpl() {
  TPRM_CHECK(inTrial_, "commit without an open trial");
  if (metrics_ != nullptr) metrics_->trialCommits->add();
  trialLog_.clear();
  inTrial_ = false;
}

AvailabilityProfile::Trial::Trial(AvailabilityProfile& profile)
    : profile_(&profile) {
  profile_->beginTrialImpl();
}

AvailabilityProfile::Trial::~Trial() {
  if (profile_ != nullptr) {
    profile_->rollbackTrialImpl();
    profile_->inTrial_ = false;
  }
}

void AvailabilityProfile::Trial::rollback() { profile_->rollbackTrialImpl(); }

AvailabilityProfile::Trial::Savepoint AvailabilityProfile::Trial::savepoint()
    const {
  return profile_->trialLog_.size();
}

void AvailabilityProfile::Trial::rollbackTo(Savepoint mark) {
  profile_->rollbackTrialToImpl(mark);
}

void AvailabilityProfile::Trial::commit() {
  profile_->commitTrialImpl();
  profile_ = nullptr;
}

}  // namespace tprm::resource
