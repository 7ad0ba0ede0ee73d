// The MILAN resource-management architecture (Section 3): per-application
// QoS agents negotiating with a system-wide QoS arbitrator.
//
// The negotiation model implemented is the paper's static one: at job
// startup the agent communicates every execution path (with resource
// requirements, deadlines and qualities) up front, and receives either a
// rejection or a resource-allocation profile for one of the paths.  The
// agent then configures the application (assigns control parameters) and the
// application runs along that path.
//
// Hooks beyond the static model (release of reservations, renegotiation on
// resource-level changes) are provided because Section 3 describes them as
// part of the architecture, and the adaptive examples use them.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "resource/availability_profile.h"
#include "resource/reservation_ledger.h"
#include "sched/greedy_arbitrator.h"
#include "tunable/program.h"

namespace tprm::obs {
struct NegotiationMetrics;  // obs/metrics.h; nullable observation hook
}  // namespace tprm::obs

namespace tprm::qos {

/// The arbitrator's answer to a negotiation: which path won, when each task
/// will run, and the achieved quality.
struct Allocation {
  std::uint64_t jobId = 0;
  std::size_t pathIndex = 0;
  sched::ChainSchedule schedule;
  double quality = 0.0;
  /// Control-parameter assignment realising the chosen path.
  tunable::Env bindings;
};

/// Outcome of a machine-size renegotiation (Section 3.1: the arbitrator
/// "monitors system resources, and triggers renegotiation on detecting a
/// significant change in resource levels (e.g., on a fault, or when new
/// resources become available ...)").
struct RenegotiationReport {
  int processorsBefore = 0;
  int processorsAfter = 0;
  /// Jobs whose reservations carried over unchanged.
  std::vector<std::uint64_t> kept;
  /// Jobs whose remaining tasks were re-placed (possibly on a different
  /// chain if no task had started yet).
  std::vector<std::uint64_t> reconfigured;
  /// Jobs whose guarantees could not be preserved on the new machine.
  std::vector<std::uint64_t> dropped;
};

/// An admitted-but-not-yet-started malleable job the elastic layer may move
/// along its quality ladder.  `quality`/`chainIndex` describe the current
/// commitment; `admittedQuality` is the quality granted at original
/// admission (the promotion ceiling); `floorQuality` is the lowest quality
/// the job *offered* — its contract floor: demotion never goes below an
/// offered chain, so the floor holds by construction.
struct ElasticCandidate {
  std::uint64_t jobId = 0;
  std::size_t chainIndex = 0;
  double quality = 0.0;
  double admittedQuality = 0.0;
  double floorQuality = 0.0;
  /// Best strictly-lower offered chain quality (the next rung down);
  /// negative when the job is already on its lowest rung.
  double nextQuality = -1.0;
  Time release = 0;
  /// Reserved processor-ticks of the not-yet-started placements — what a
  /// demotion could free.
  std::int64_t futureArea = 0;
};

/// One committed quality move (demotion or promotion) of a live job.
struct QualityMove {
  std::uint64_t jobId = 0;
  bool promotion = false;
  std::size_t fromChain = 0;
  std::size_t toChain = 0;
  double fromQuality = 0.0;
  double toQuality = 0.0;
  /// The job's new schedule (chainIndex is in original-spec numbering).
  sched::ChainSchedule schedule;
};

/// Victim-selection / fairness policy for arbitrator-initiated renegotiation
/// (the elastic model).  The arbitrator owns the *mechanism* — undo-logged
/// trial demotion, floor discipline, commit — and consults a policy only for
/// ordering.  Implementations must be deterministic pure functions of their
/// arguments (decisions replay byte-identically) and thread-safe (shards
/// consult one shared instance concurrently, each under its own lock).
class ReshapePolicy {
 public:
  virtual ~ReshapePolicy() = default;

  /// Orders demotion victims for a rejected newcomer released at `release`:
  /// the arbitrator demotes greedily in this order, retrying the newcomer
  /// after each shrink, and commits at the first fit.  Return an empty
  /// vector to decline.
  [[nodiscard]] virtual std::vector<std::uint64_t> demotionOrder(
      const std::vector<ElasticCandidate>& candidates, Time release) const = 0;

  /// Fairness order for the promotion pass over currently-demoted jobs.
  [[nodiscard]] virtual std::vector<std::uint64_t> promotionOrder(
      const std::vector<ElasticCandidate>& demoted) const = 0;
};

/// System-wide QoS arbitrator: owns the machine's availability profile,
/// performs admission control, and records every commitment.
///
/// The arbitrator's clock only moves forward (negotiations carry release
/// times); profile detail behind the clock is garbage-collected.
class QoSArbitrator {
 public:
  /// `processors`: machine size.  `options`: heuristic configuration
  /// (Section 5.2 defaults).
  explicit QoSArbitrator(int processors,
                         sched::GreedyOptions options = {});

  /// Admission control + scheduling for a job that can run any chain of
  /// `spec`, released `release`.  On admission the reservations are
  /// committed.  Thread-compatible (callers serialize).
  ///
  /// With a ReshapePolicy attached, submission is *elastic*: a promotion
  /// pass first walks demoted jobs back up the quality ladder, and a
  /// rejection triggers a demotion reshape (shrink victims inside one trial
  /// scope, commit only if the newcomer then fits).  Every committed move is
  /// appended to `moves` when non-null.
  ///
  /// Numbers the job itself: the id is the next of 0, 1, 2, ... (see
  /// lastJobId()), drawn whether or not the job is admitted.
  ///
  /// Planning reads `spec` through this thread's scratch shape; only an
  /// admission stores anything of it: one compact task::JobShape (see
  /// liveShape()).  A rejection stores nothing, and the caller may destroy
  /// `spec` as soon as the call returns.
  [[nodiscard]] sched::AdmissionDecision submit(
      const task::TunableJobSpec& spec, Time release,
      std::vector<QualityMove>* moves = nullptr) {
    return submit(nextJobId_++, spec, release, moves);
  }
  /// As above, under the caller's id, which must not be live here.  Ids
  /// only order jobs (elastic candidates, renegotiation), so a caller that
  /// submits in increasing id gets the decisions the self-numbering
  /// overload would give.  Does not draw from lastJobId()'s sequence.
  [[nodiscard]] sched::AdmissionDecision submit(
      std::uint64_t jobId, const task::TunableJobSpec& spec, Time release,
      std::vector<QualityMove>* moves = nullptr) {
    const task::ScratchShape shape(spec);
    return submit(jobId, *shape, release, moves);
  }
  /// As above for a job the caller already holds as a shape: an admission
  /// stores one copy of it.
  [[nodiscard]] sched::AdmissionDecision submit(
      std::uint64_t jobId, const task::JobShape& shape, Time release,
      std::vector<QualityMove>* moves = nullptr);

  /// Cancels the remaining (not-yet-started) reservations of a job, freeing
  /// the capacity — the renegotiation hook.  Returns freed processor-ticks.
  /// With a ReshapePolicy attached, freed capacity immediately feeds a
  /// promotion pass (moves appended to `moves` when non-null).
  std::int64_t cancel(std::uint64_t jobId,
                      std::vector<QualityMove>* moves = nullptr);

  /// Changes the machine size at time `when` (>= clock), renegotiating every
  /// live commitment:
  ///  * growing never drops a job (all reservations still fit);
  ///  * shrinking keeps running tasks in place when possible (they are
  ///    non-preemptible), then re-places each affected job's remaining
  ///    tasks — jobs with no started task may switch to a different chain;
  ///  * jobs that cannot be preserved are dropped (their guarantee is lost)
  ///    and reported.
  /// Commitments are re-verified per machine era: `verify()` checks every
  /// era against the capacity that was in force.
  RenegotiationReport resize(int processors, Time when);

  /// Current logical clock (max release time seen).
  [[nodiscard]] Time clock() const { return clock_; }
  [[nodiscard]] int processors() const { return profile_.totalProcessors(); }

  /// Read access for diagnostics and tests.
  [[nodiscard]] const resource::AvailabilityProfile& profile() const {
    return profile_;
  }
  /// Ledger of the current machine era.
  [[nodiscard]] const resource::ReservationLedger& ledger() const {
    return ledger_;
  }
  /// Verifies every commitment made so far, across all machine eras.
  [[nodiscard]] resource::VerificationReport verify() const;

  /// Jobs admitted / rejected so far.
  [[nodiscard]] std::uint64_t admittedCount() const { return admitted_; }
  [[nodiscard]] std::uint64_t rejectedCount() const { return rejected_; }

  /// True while the job holds live (renegotiable) commitments: admitted and
  /// neither finished, cancelled, nor dropped.
  [[nodiscard]] bool live(std::uint64_t jobId) const {
    return live_.count(jobId) != 0;
  }
  /// True while `jobId` is a live gang fragment (see gangCommit).
  [[nodiscard]] bool pinned(std::uint64_t jobId) const {
    const auto it = live_.find(jobId);
    return it != live_.end() && it->second.pinned;
  }
  /// The shape a live job keeps (shared by every gang fragment of one
  /// job); nullptr when the job is not live here.  Diagnostics and tests.
  [[nodiscard]] const task::JobShape* liveShape(std::uint64_t jobId) const {
    const auto it = live_.find(jobId);
    return it == live_.end() ? nullptr : it->second.shape.get();
  }

  /// Id the self-numbering submit() gave the most recently submitted job
  /// (admitted or not); nullopt before the first such submission.
  [[nodiscard]] std::optional<std::uint64_t> lastJobId() const {
    if (nextJobId_ == 0) return std::nullopt;
    return nextJobId_ - 1;
  }

  /// Attaches (or with nullptr detaches) the full negotiation counter
  /// bundle, wiring the nested profile and heuristic hooks too.  Counters
  /// only observe; attaching cannot change any decision.  Survives resize
  /// (the fresh per-era profile is re-attached).
  void attachMetrics(obs::NegotiationMetrics* metrics);
  [[nodiscard]] obs::NegotiationMetrics* metrics() const { return metrics_; }

  /// Attaches (or with nullptr detaches) the elastic renegotiation policy.
  /// The policy instance must outlive the arbitrator's use of it.
  void attachReshapePolicy(const ReshapePolicy* policy) { policy_ = policy; }
  [[nodiscard]] const ReshapePolicy* reshapePolicy() const { return policy_; }

  /// Not-yet-started live jobs the elastic layer may move.  `demotedOnly`
  /// restricts to jobs below their admitted quality (promotion candidates);
  /// otherwise only jobs with a lower rung to move to are listed (demotion
  /// candidates).  Pinned jobs (gang fragments) are never listed.
  /// Ascending job id (deterministic).
  [[nodiscard]] std::vector<ElasticCandidate> elasticCandidates(
      bool demotedOnly) const;

  // -- Cross-shard gang fragment surface (used by ShardedArbitrator) --------
  //
  // A gang admission places width fragments of one job on several shards,
  // each under the job's own id.  Each participating shard goes through a
  // two-phase protocol: phase 1 opens an undo-log Trial and reserves this
  // shard's fragments verbatim (gangReserve); phase 2 either commits them as
  // a *pinned* job (gangCommit) or rolls the profile back bit-for-bit
  // (gangAbort).
  // While a gang reserve is open no other operation may run on this
  // arbitrator (the sharded wrapper holds every shard lock for the whole
  // protocol).

  /// Phase 1: opens a Trial and reserves `placements`.  Returns false — and
  /// closes the trial, restoring the profile exactly — if any placement does
  /// not fit.  Requires no gang reserve already open.
  [[nodiscard]] bool gangReserve(
      const std::vector<sched::TaskPlacement>& placements);

  /// Phase 2 (success): commits the open reserve and registers the fragments
  /// as one pinned live job `jobId` on this shard (which must not be live
  /// here) — never demoted, promoted, or renegotiated; verbatim-or-drop on
  /// resize.  `taskIndices[i]` is the spec task index `placements[i]` is a
  /// fragment of (fragments skip tasks the shard contributes nothing to).
  /// `shape` is the job's one stored copy, shared by all of its fragments.
  void gangCommit(std::uint64_t jobId,
                  std::shared_ptr<const task::JobShape> shape,
                  std::size_t chainIndex, double quality, Time release,
                  const std::vector<sched::TaskPlacement>& placements,
                  const std::vector<std::size_t>& taskIndices);

  /// Phase 2 (failure): closes the open reserve, rolling every reserved
  /// fragment back bit-for-bit.
  void gangAbort();

  /// True while a phase-1 gang reserve is open (diagnostics, tests).
  [[nodiscard]] bool gangReserveOpen() const { return gangTrial_.has_value(); }

  /// Entries in the finish heap, stale ones included (diagnostics, tests).
  [[nodiscard]] std::size_t finishHeapSize() const { return finishes_.size(); }

 private:
  /// Everything needed to renegotiate a job after a resource-level change.
  struct LiveJob {
    /// The job's one stored shape, copied at admission (planning only ever
    /// reads the caller's); a gang's fragments share one.
    std::shared_ptr<const task::JobShape> shape;
    Time release = 0;
    std::size_t chainIndex = 0;
    std::vector<sched::TaskPlacement> placements;
    /// Quality of the chain granted at original admission (promotion cap).
    double admittedQuality = 0.0;
    /// Quality of the currently committed chain.
    double currentQuality = 0.0;
    /// Gang fragment: the placements are one shard's share of a cross-shard
    /// job.  Pinned jobs are invisible to the elastic layer and are
    /// verbatim-or-drop on resize (a fragment renegotiated alone would
    /// desynchronise from its siblings on other shards).
    bool pinned = false;
    /// Spec task index of each placement (empty: placement k is task k).
    /// Non-trivial only for gang fragments, whose placements may skip tasks.
    std::vector<std::size_t> taskIndices;
    /// Rung ladder, fixed at admission so that listing candidates computes
    /// no chain quality: the lowest offered quality, and the best one
    /// strictly below `currentQuality` (negative when on the lowest rung;
    /// setQuality recomputes it when a move or a resize changes that).
    double lowestRung = 0.0;
    double nextRung = -1.0;
    /// Current-era ledger slots of the job's entries that a later annul may
    /// still reach; valid while `slotsLayout_` equals the ledger's layout.
    std::vector<resource::ReservationLedger::Slot> slots;
  };

  /// Spec task index of `job.placements[k]`.
  [[nodiscard]] static std::size_t taskIndexOf(const LiveJob& job,
                                               std::size_t k) {
    return job.taskIndices.empty() ? k : job.taskIndices[k];
  }

  /// Retires finished jobs from the live map: pops the finish heap up to
  /// the clock, skipping entries a move or cancel made stale.
  void retireFinished();
  /// Registers a newly live job: computes its rung ladder and files its
  /// finish.
  LiveJob& insertLive(std::uint64_t jobId, LiveJob job);
  /// Removes a job from the live map and every index over it.
  void eraseLive(std::map<std::uint64_t, LiveJob>::iterator it);
  /// Files the job's current last placement end in the finish heap.
  void trackFinish(std::uint64_t jobId, const LiveJob& job);
  /// Sets the committed quality, keeping the next rung and the demoted set
  /// in step.
  void setQuality(std::uint64_t jobId, LiveJob& job, double quality);
  /// Records `placements` of `job` (on its current chain) in the
  /// current-era ledger, appending the new entries' slots to `job.slots`.
  void record(std::uint64_t jobId, LiveJob& job,
              const std::vector<sched::TaskPlacement>& placements,
              std::size_t firstTaskIndex = 0);
  /// Re-reads every live job's ledger slots if a compaction moved entries
  /// since they were taken.  Entries beginning before the clock are left
  /// out: every annul starts at the clock, which never moves back.
  void syncSlots();

  /// True when no placement of the job has started (all movable).
  [[nodiscard]] bool notStarted(const LiveJob& job) const;

  /// Inside an open trial: releases the job's placements and re-admits it
  /// through a view of its shape restricted to offered chains with quality
  /// in (demote: below current; promote: above current, at most
  /// admittedQuality), released at the clock with deadlines still anchored
  /// at the job's release.  On success the new reservations are left pending in the
  /// trial and the move is returned; otherwise the trial is rolled back to
  /// the entry savepoint and the job is untouched.
  [[nodiscard]] std::optional<QualityMove> tryMoveInTrial(
      resource::AvailabilityProfile::Trial& trial, std::uint64_t jobId,
      const LiveJob& job, bool promote);

  /// Applies a committed move to the ledger and live map (after trial
  /// commit; the ledger is not undo-logged, so this must not run before).
  void applyMove(const QualityMove& move);

  /// Demotion reshape for a rejected newcomer: consults the policy, shrinks
  /// victims greedily inside one trial, commits only if the newcomer fits.
  [[nodiscard]] sched::AdmissionDecision reshapeAdmit(
      task::JobView newcomer, std::vector<QualityMove>* moves);

  /// Promotion pass: walks demoted jobs in policy fairness order, restoring
  /// quality where capacity allows (one trial per job, committed per job).
  void promotePass(std::vector<QualityMove>* moves);

  resource::AvailabilityProfile profile_;
  resource::ReservationLedger ledger_;
  std::vector<resource::ReservationLedger> pastEras_;
  sched::GreedyOptions options_;
  sched::GreedyArbitrator heuristic_;
  /// Quality-maximizing heuristic for elastic moves: a demotion lands on the
  /// *best* lower rung and a promotion on the best restorable one.  Kept
  /// separate from `heuristic_` so elastic probes never perturb admission
  /// metrics or the Random chain choice's RNG stream.
  sched::GreedyArbitrator elasticHeuristic_;
  Time clock_ = 0;
  std::uint64_t nextJobId_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::map<std::uint64_t, LiveJob> live_;
  /// Ids of live, unpinned jobs below their admitted quality: the promotion
  /// pass's candidates (ascending, as a walk of `live_` would list them).
  std::set<std::uint64_t> demoted_;
  /// Min-heap of (last placement end, job id).  An entry is stale once its
  /// job left `live_` or moved to a different end; retireFinished skips it,
  /// and trackFinish rebuilds the heap once it holds more than
  /// 2 * live_.size() + kFinishHeapSlack entries.
  std::priority_queue<std::pair<Time, std::uint64_t>,
                      std::vector<std::pair<Time, std::uint64_t>>,
                      std::greater<>>
      finishes_;
  static constexpr std::size_t kFinishHeapSlack = 64;
  /// Ledger layout under which the live jobs' slots were taken.
  std::uint64_t slotsLayout_ = 0;
  /// Open phase-1 gang reserve (see gangReserve); destruction rolls back.
  std::optional<resource::AvailabilityProfile::Trial> gangTrial_;
  obs::NegotiationMetrics* metrics_ = nullptr;  // nullable observation hook
  const ReshapePolicy* policy_ = nullptr;       // nullable elastic hook

  friend struct ArbitratorIndexProbe;  // index-invariant tests
};

/// Per-application QoS agent: wraps a tunable program, negotiates with the
/// arbitrator, and configures the program along the granted path.
class QoSAgent {
 public:
  /// The agent is generated from the program (in MILAN, by the Calypso
  /// preprocessor; here, from the embedded DSL).
  explicit QoSAgent(tunable::Program& program);

  /// Static negotiation: communicates all paths, returns the allocation (and
  /// configures the program's control parameters) or nullopt on rejection.
  [[nodiscard]] std::optional<Allocation> negotiate(QoSArbitrator& arbitrator,
                                                    Time release);

  /// Runs the program along the negotiated path (task bodies execute with
  /// the bound control parameters).  Requires a successful negotiate().
  void run();

  /// The enumerated paths (diagnostics; recomputed at construction).
  [[nodiscard]] const std::vector<tunable::ExecutionPath>& paths() const {
    return paths_;
  }
  [[nodiscard]] const std::optional<Allocation>& allocation() const {
    return allocation_;
  }

 private:
  tunable::Program* program_;
  std::vector<tunable::ExecutionPath> paths_;
  task::TunableJobSpec jobSpec_;
  std::optional<Allocation> allocation_;
};

}  // namespace tprm::qos
