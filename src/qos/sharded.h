// Sharded admission: K independent QoSArbitrators, each owning a static
// partition of the processor pool.
//
// One arbitrator on one decision thread caps negotiation throughput — every
// admission walks one global availability profile.  Dynamic-resizing
// schedulers (ReSHAPE, the SLURM dynamic-resource extension) scale admission
// by partitioning the machine among cooperating scheduler instances, and the
// same shape works here because the paper's arbitrator is already
// partition-friendly: a job's guarantee only ever depends on the profile it
// was admitted against.
//
// Job ids are global: every shard keys its jobs by the id the caller drew,
// so a job is known by one name on its home shard, on a spill shard, and on
// every shard that holds a fragment of it.  Four mechanisms on top of the
// plain partition:
//  * routing — a job's *home* shard is `jobId % K`, so a deterministic id
//    assignment (the service stamps ids in arrival order) gives a
//    deterministic route;
//  * spill — a job its home shard rejects is offered to the shard with the
//    most free area before final rejection, recovering most of the admission
//    rate a partition would otherwise lose to fragmentation;
//  * rebalance — a periodic sweep moves whole processors from the most-idle
//    shard to the busiest one through the existing resize() hook, never
//    dropping a commitment (the donor only gives up processors that are idle
//    from now on);
//  * gang (opt-in) — a job no single shard's partition could ever hold is
//    placed as width fragments on several shards under a two-phase trial
//    reserve: phase 1 reserves each fragment under its shard's undo-log
//    Trial scope (shards visited in index order — the same total order every
//    multi-shard path uses, so the protocol is deadlock-free without a
//    global lock), phase 2 commits all fragments or rolls every one back
//    bit-for-bit.  Fragments are pinned on their shards under the job's id:
//    cancel releases all of them, resize treats them verbatim-or-drop
//    (dropping one cancels the siblings), and the elastic layer never
//    demotes or promotes a fragment independently.
//
// With K=1 every operation forwards to the single QoSArbitrator with the
// same ids, clocks, and counters — byte-identical decisions to the unsharded
// arbitrator (the service's replay-equivalence tests pin this).
//
// Thread-safe: each shard has its own lock; submit locks one shard at a
// time, cancel at most two (hand over hand, in index order), and
// resize/rebalance/verify/gang admission lock all shards in index order.
// Gang eligibility is checked before any lock is taken, so the narrow jobs
// that make up nearly every rejection never lock all shards.
//
// Spec ownership: planning on every shard borrows the caller's spec.  An
// admitted job keeps one shared copy, made once on admission; the
// fragments of a gang all share that one copy.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "qos/qos.h"

namespace tprm::obs {
struct ShardedMetrics;  // obs/metrics.h; nullable observation hook
}  // namespace tprm::obs

namespace tprm::qos {

struct ShardedOptions {
  /// Number of independent arbitrator shards (>= 1).
  int shards = 1;
  /// Admission heuristic configuration shared by every shard.
  sched::GreedyOptions greedy = {};
  /// Offer home-shard rejections to the emptiest other shard before finally
  /// rejecting.  Off, the shards are fully independent (and per-shard replay
  /// is exact) at the cost of admission rate.
  bool spill = true;
  /// rebalance() moves processors only when the most-idle and least-idle
  /// shards differ by at least this many always-free processors.
  int rebalanceThreshold = 2;
  /// Cross-shard gang admission: when home and spill both reject and no
  /// chain of the spec fits any single shard's partition by width, place one
  /// chain as width fragments on several shards under a two-phase trial
  /// reserve — every fragment commits or every fragment rolls back
  /// bit-for-bit.  Only engages with shards > 1, so K=1 decisions stay
  /// byte-identical to the unsharded arbitrator.
  bool gang = false;
};

/// Outcome of one rebalance() sweep.
struct ShardRebalanceReport {
  bool moved = false;
  int fromShard = -1;
  int toShard = -1;
  /// Whole processors moved (0 unless `moved`).
  int processors = 0;
  /// The single instant both shards resized at — the later of the sweep
  /// time and both shard clocks (0 unless `moved`).  Resizing the donor and
  /// the receiver at one common time is what keeps machine-wide capacity
  /// from transiently dipping below the total.
  Time at = 0;
  /// Idle processors (free from `when` on) of the extreme shards observed.
  int maxIdle = 0;
  int minIdle = 0;
};

/// K independent QoSArbitrator shards behind the QoSArbitrator surface,
/// plus spill and rebalance.  Job ids are global, and each shard holds its
/// jobs under those same ids.
class ShardedArbitrator {
 public:
  /// Partitions `processors` across `options.shards` shards (first
  /// `processors % shards` shards get the extra one).  Requires at least one
  /// processor per shard.
  explicit ShardedArbitrator(int processors, ShardedOptions options = {});

  [[nodiscard]] int shardCount() const {
    return static_cast<int>(shards_.size());
  }
  /// Current total machine size (sum over shards; rebalance preserves it).
  [[nodiscard]] int processors() const;
  /// Current per-shard machine sizes.
  [[nodiscard]] std::vector<int> shardProcessors() const;

  /// Global logical clock: max release/resize time seen by any operation.
  /// Shard clocks trail it (each shard only sees its own traffic), so
  /// operations clamp to the target shard's clock on entry.
  [[nodiscard]] Time clock() const {
    return clock_.load(std::memory_order_acquire);
  }

  /// Draws the next global job id.  The service reserves ids at enqueue time
  /// (in arrival order) so that the id — and therefore the home shard — of a
  /// negotiation is fixed before it is queued.
  [[nodiscard]] std::uint64_t reserveJobId() {
    return nextJobId_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Next id reserveJobId() would return.
  [[nodiscard]] std::uint64_t peekNextJobId() const {
    return nextJobId_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::optional<std::uint64_t> lastJobId() const {
    const auto next = nextJobId_.load(std::memory_order_relaxed);
    if (next == 0) return std::nullopt;
    return next - 1;
  }
  /// Home shard of a job id.
  [[nodiscard]] int homeShard(std::uint64_t jobId) const {
    return static_cast<int>(jobId % shards_.size());
  }

  /// Admission for a pre-reserved global id: tries the home shard, then (if
  /// enabled) spills to the shard with the most free area.  `release` is
  /// clamped to the target shard's clock; the value actually used is
  /// returned through `effectiveRelease` when non-null.
  ///
  /// With a ReshapePolicy attached (attachReshapePolicy), each shard submit
  /// is elastic: the home shard promotes/demotes under its own lock before
  /// the spill scan ever runs, and the spill shard does the same before the
  /// final rejection.  Committed moves are appended to `moves` when
  /// non-null.
  [[nodiscard]] sched::AdmissionDecision submit(
      std::uint64_t jobId, const task::TunableJobSpec& spec, Time release,
      Time* effectiveRelease = nullptr,
      std::vector<QualityMove>* moves = nullptr) {
    return submitJob(jobId, spec, nullptr, release, effectiveRelease, moves);
  }
  /// As above for a spec the caller already holds as a shared copy: an
  /// admission (on any shard, or as a gang) stores `spec` itself and copies
  /// nothing.
  [[nodiscard]] sched::AdmissionDecision submit(
      std::uint64_t jobId,
      const std::shared_ptr<const task::TunableJobSpec>& spec, Time release,
      Time* effectiveRelease = nullptr,
      std::vector<QualityMove>* moves = nullptr) {
    return submitJob(jobId, *spec, &spec, release, effectiveRelease, moves);
  }
  /// Convenience overload that reserves the id itself (see lastJobId()).
  [[nodiscard]] sched::AdmissionDecision submit(
      const task::TunableJobSpec& spec, Time release) {
    return submit(reserveJobId(), spec, release);
  }

  /// Cancels a job wherever it was admitted.  A job live and unpinned on its
  /// home shard is cancelled there under that one lock; otherwise (spilled,
  /// gang, or unknown) every shard is visited in index order, hand over
  /// hand, and the job is cancelled wherever it is live — every fragment of
  /// a gang, and one cancel wins against another.  Returns freed
  /// processor-ticks (0 for unknown/finished jobs, counted as one miss on
  /// the home shard, as unsharded).  With a ReshapePolicy attached, freed
  /// capacity feeds the owning shard's promotion pass (moves appended when
  /// non-null).
  std::int64_t cancel(std::uint64_t jobId,
                      std::vector<QualityMove>* moves = nullptr);

  /// Attaches (or with nullptr detaches) the elastic renegotiation policy on
  /// every shard.  The policy must be thread-safe: shards consult it
  /// concurrently, each under its own lock.  With K=1 the behavior is
  /// byte-identical to a single QoSArbitrator with the same policy.
  void attachReshapePolicy(const ReshapePolicy* policy);

  /// Resizes the whole machine: splits `processors` evenly across shards and
  /// renegotiates each shard.  A gang dropped on any shard is cancelled on
  /// the others and reported dropped once.  Requires
  /// `processors >= shardCount()`.
  RenegotiationReport resize(int processors, Time when);

  /// One rebalance sweep at time `when`: if the always-idle gap between the
  /// extreme shards reaches the threshold, moves half the gap (whole
  /// processors, donor keeps >= 1) from the most-idle to the least-idle
  /// shard.  Never drops a commitment.
  ShardRebalanceReport rebalance(Time when);

  /// Verifies every shard's commitments (all machine eras).
  [[nodiscard]] resource::VerificationReport verify() const;

  /// Global job outcomes (a spilled admission counts once, for the job).
  [[nodiscard]] std::uint64_t admittedCount() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t rejectedCount() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  /// Jobs admitted by a shard other than their home shard.
  [[nodiscard]] std::uint64_t spillCount() const {
    return spills_.load(std::memory_order_relaxed);
  }

  /// Gang jobs admitted so far.
  [[nodiscard]] std::uint64_t gangAdmittedCount() const {
    return gangAdmitted_.load(std::memory_order_relaxed);
  }

  /// Test-only race seams, both invoked with no shard lock held: the spill
  /// seam fires between the spill scoring scan and the candidate submit; the
  /// rebalance seam fires between the rebalance clock advance and the
  /// all-shard lock acquisition.  They deterministically reproduce the
  /// score->submit and clock->lock interleavings the regression tests pin.
  /// A seam that re-enters this arbitrator must not recurse into its own
  /// trigger (e.g. a spill seam should only submit jobs their home shard
  /// admits).  Production callers leave them unset (zero cost).
  void setSpillRaceSeamForTest(std::function<void()> seam) {
    spillRaceSeam_ = std::move(seam);
  }
  void setRebalanceRaceSeamForTest(std::function<void()> seam) {
    rebalanceRaceSeam_ = std::move(seam);
  }

  /// Per-shard negotiation counters plus the cross-shard bundle.
  /// `perShard` must be empty (detach) or hold shardCount() entries.  Note
  /// shard counters count *local* admission attempts: a spilled job shows up
  /// as a rejection on its home shard and an admission on the spill shard.
  void attachMetrics(std::vector<obs::NegotiationMetrics*> perShard,
                     obs::ShardedMetrics* sharded);

  /// Read access to one shard for diagnostics and tests.  The reference is
  /// only safe to use while no other thread operates on the arbitrator.
  [[nodiscard]] const QoSArbitrator& shard(int k) const {
    return shards_[static_cast<std::size_t>(k)]->arb;
  }

 private:
  struct Shard {
    explicit Shard(int processors, sched::GreedyOptions options)
        : arb(processors, options) {}
    mutable std::mutex mu;
    QoSArbitrator arb;
  };

  /// Advances the global clock to at least `t`; returns the new value.
  Time advanceClock(Time t);
  /// Locks every shard in index order.
  [[nodiscard]] std::vector<std::unique_lock<std::mutex>> lockAll() const;
  /// Re-reads the widest shard's size into widestShard_.  Requires every
  /// shard lock (or, in the constructor, no other thread).
  void refreshWidestShard();
  /// Narrowest chain of the spec, by widest task.  A shard with fewer
  /// processors than this can never admit the job.
  static int minChainWidth(const task::TunableJobSpec& spec);
  /// Both submit overloads: plans against `spec`; an admission stores
  /// `*stored` when given, else one copy of `spec`.
  [[nodiscard]] sched::AdmissionDecision submitJob(
      std::uint64_t jobId, const task::TunableJobSpec& spec,
      const std::shared_ptr<const task::TunableJobSpec>* stored, Time release,
      Time* effectiveRelease, std::vector<QualityMove>* moves);
  /// Cross-shard gang admission: plans the best chain as width fragments
  /// over all shards, then two-phase reserves/commits it (all locks taken
  /// in index order for the whole protocol).  Returns a rejection when the
  /// spec is not gang-eligible or no chain fits machine-wide.
  [[nodiscard]] sched::AdmissionDecision gangSubmit(
      std::uint64_t jobId, const task::TunableJobSpec& spec,
      const std::shared_ptr<const task::TunableJobSpec>* stored, Time release,
      Time* effectiveRelease);

  ShardedOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<Time> clock_{0};
  std::atomic<std::uint64_t> nextJobId_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> spills_{0};
  std::atomic<std::uint64_t> gangAdmitted_{0};
  /// Processors of the widest shard: the gang-eligibility bound, read
  /// without locks.  Written only with every shard lock held (construction,
  /// resize, rebalance), so a reader holding every lock sees it exact.
  std::atomic<int> widestShard_{0};
  std::function<void()> spillRaceSeam_;      // test-only, see setter
  std::function<void()> rebalanceRaceSeam_;  // test-only, see setter
  obs::ShardedMetrics* shardedMetrics_ = nullptr;  // nullable observation hook
};

}  // namespace tprm::qos
