#include "qos/qos.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/log.h"
#include "obs/metrics.h"

namespace tprm::qos {

// ---------------------------------------------------------------------------
// QoSArbitrator
// ---------------------------------------------------------------------------

namespace {

/// Elastic moves always maximize restored/retained quality; everything else
/// (malleability, fit policy) follows the configured heuristic.
sched::GreedyOptions elasticOptions(sched::GreedyOptions options) {
  options.chainChoice = sched::ChainChoice::QualityFirst;
  return options;
}

/// A job's rung ladder around its current `quality`: the lowest offered
/// chain quality, and the best one strictly below `quality` (negative when
/// there is none).
struct Rungs {
  double lowest = std::numeric_limits<double>::infinity();
  double next = -1.0;
};
Rungs rungsAround(const task::TunableJobSpec& spec, double quality) {
  Rungs rungs;
  for (const auto& chain : spec.chains) {
    const double q = chain.quality(spec.qualityComposition);
    rungs.lowest = std::min(rungs.lowest, q);
    if (q < quality && q > rungs.next) rungs.next = q;
  }
  return rungs;
}

}  // namespace

QoSArbitrator::QoSArbitrator(int processors, sched::GreedyOptions options)
    : profile_(processors), ledger_(processors), options_(options),
      heuristic_(options), elasticHeuristic_(elasticOptions(options)) {}

void QoSArbitrator::attachMetrics(obs::NegotiationMetrics* metrics) {
  metrics_ = metrics;
  profile_.attachMetrics(metrics != nullptr ? &metrics->profile : nullptr);
  heuristic_.attachMetrics(metrics != nullptr ? &metrics->arbitrator
                                              : nullptr);
}

void QoSArbitrator::retireFinished() {
  while (!finishes_.empty() && finishes_.top().first <= clock_) {
    const auto [end, jobId] = finishes_.top();
    finishes_.pop();
    const auto it = live_.find(jobId);
    if (it == live_.end()) continue;  // cancelled or dropped
    const auto& placements = it->second.placements;
    if (placements.back().interval.end != end) continue;  // moved since
    eraseLive(it);
  }
}

QoSArbitrator::LiveJob& QoSArbitrator::insertLive(std::uint64_t jobId,
                                                  LiveJob job) {
  const Rungs rungs = rungsAround(*job.spec, job.currentQuality);
  job.lowestRung = rungs.lowest;
  job.nextRung = rungs.next;
  trackFinish(jobId, job);
  return live_.insert_or_assign(jobId, std::move(job)).first->second;
}

void QoSArbitrator::eraseLive(std::map<std::uint64_t, LiveJob>::iterator it) {
  demoted_.erase(it->first);
  live_.erase(it);
}

void QoSArbitrator::trackFinish(std::uint64_t jobId, const LiveJob& job) {
  if (job.placements.empty()) return;
  if (finishes_.size() > 2 * live_.size() + kFinishHeapSlack) {
    // Stale entries (cancelled or moved jobs) dominate, and a clock that
    // stands still never pops them: rebuild from the live jobs, one entry
    // each.  Retirement skips stale entries anyway, so nothing changes but
    // the heap's size; amortized O(1) per tracked finish.
    std::vector<std::pair<Time, std::uint64_t>> current;
    current.reserve(live_.size() + 1);
    for (const auto& [id, live] : live_) {
      if (!live.placements.empty()) {
        current.emplace_back(live.placements.back().interval.end, id);
      }
    }
    finishes_ = decltype(finishes_)(std::greater<>{}, std::move(current));
  }
  finishes_.emplace(job.placements.back().interval.end, jobId);
}

void QoSArbitrator::setQuality(std::uint64_t jobId, LiveJob& job,
                               double quality) {
  job.currentQuality = quality;
  job.nextRung = rungsAround(*job.spec, quality).next;
  if (!job.pinned && quality < job.admittedQuality) {
    demoted_.insert(jobId);
  } else {
    demoted_.erase(jobId);
  }
}

void QoSArbitrator::record(
    std::uint64_t jobId, LiveJob& job,
    const std::vector<sched::TaskPlacement>& placements,
    std::size_t firstTaskIndex) {
  job.slots.reserve(job.slots.size() + placements.size());
  for (std::size_t k = 0; k < placements.size(); ++k) {
    const auto& p = placements[k];
    job.slots.push_back(ledger_.add(resource::Reservation{
        jobId, static_cast<int>(firstTaskIndex + k),
        static_cast<int>(job.chainIndex), p.interval, p.processors,
        p.deadline}));
  }
}

void QoSArbitrator::syncSlots() {
  if (slotsLayout_ == ledger_.layout()) return;
  const auto& entries = ledger_.reservations();  // compacts what is pending
  for (auto& [jobId, job] : live_) {
    (void)jobId;
    job.slots.clear();
  }
  for (std::size_t slot = 0; slot < entries.size(); ++slot) {
    if (entries[slot].interval.begin < clock_) continue;
    const auto it = live_.find(entries[slot].jobId);
    if (it != live_.end()) it->second.slots.push_back(slot);
  }
  slotsLayout_ = ledger_.layout();
}

sched::AdmissionDecision QoSArbitrator::submitJob(
    std::uint64_t jobId, const task::TunableJobSpec& spec,
    const std::shared_ptr<const task::TunableJobSpec>* stored, Time release,
    std::vector<QualityMove>* moves) {
  TPRM_CHECK(!gangTrial_.has_value(),
             "submit is forbidden while a gang reserve is open");
  TPRM_CHECK(release >= clock_,
             "negotiations must arrive in non-decreasing release order");
  clock_ = release;
  profile_.discardBefore(clock_);
  retireFinished();
  TPRM_CHECK(!live(jobId), "job id is already live on this arbitrator");

  // Elastic model: load may have dropped since the last demotion — walk
  // demoted jobs back up the ladder before admitting new work.
  promotePass(moves);

  const task::JobView job(jobId, release, spec);
  if (metrics_ != nullptr) metrics_->negotiations->add();
  auto decision = heuristic_.admit(job, profile_);
  if (!decision.admitted && policy_ != nullptr) {
    // Elastic model: turn the rejection into a quality trade if the policy
    // can name victims whose demotion makes room.
    auto reshaped = reshapeAdmit(job, moves);
    if (reshaped.admitted) decision = std::move(reshaped);
  }
  if (!decision.admitted) {
    ++rejected_;
    if (metrics_ != nullptr) metrics_->rejectedNoChain->add();
    return decision;
  }
  ++admitted_;
  if (metrics_ != nullptr) metrics_->admitted->add();
  LiveJob admittedJob;
  admittedJob.spec = stored != nullptr
                        ? *stored
                        : std::make_shared<const task::TunableJobSpec>(spec);
  admittedJob.release = release;
  admittedJob.chainIndex = decision.schedule.chainIndex;
  admittedJob.placements = decision.schedule.placements;
  admittedJob.admittedQuality = decision.quality;
  admittedJob.currentQuality = decision.quality;
  LiveJob& live = insertLive(jobId, std::move(admittedJob));
  record(jobId, live, live.placements);
  return decision;
}

std::int64_t QoSArbitrator::cancel(std::uint64_t jobId,
                                   std::vector<QualityMove>* moves) {
  TPRM_CHECK(!gangTrial_.has_value(),
             "cancel is forbidden while a gang reserve is open");
  const auto it = live_.find(jobId);
  if (it == live_.end()) {
    if (metrics_ != nullptr) metrics_->cancelMisses->add();
    return 0;
  }
  if (metrics_ != nullptr) metrics_->cancels->add();
  std::int64_t freed = 0;
  for (const auto& placement : it->second.placements) {
    // Only not-yet-started reservations can be returned.  A running task is
    // non-preemptible (the same rule resize() phase 1 enforces), so its
    // remainder stays reserved until the task completes; finished placements
    // have nothing left to give back.
    if (placement.interval.begin < clock_) continue;
    profile_.release(placement.interval, placement.processors);
    freed += static_cast<std::int64_t>(placement.processors) *
             placement.interval.length();
  }
  // Keep the audit trail in step: the returned capacity is no longer a
  // commitment, so later admissions may legitimately reuse it.
  syncSlots();
  (void)ledger_.annul(jobId, clock_, it->second.slots);
  eraseLive(it);
  // Elastic model: the freed capacity is exactly the signal a demoted job is
  // waiting on — promote immediately rather than on the next submission.
  if (freed > 0) promotePass(moves);
  return freed;
}

RenegotiationReport QoSArbitrator::resize(int processors, Time when) {
  TPRM_CHECK(!gangTrial_.has_value(),
             "resize is forbidden while a gang reserve is open");
  TPRM_CHECK(processors > 0, "machine needs at least one processor");
  TPRM_CHECK(when >= clock_, "resize cannot happen in the past");
  clock_ = when;
  retireFinished();
  if (metrics_ != nullptr) metrics_->resizes->add();

  RenegotiationReport report;
  report.processorsBefore = profile_.totalProcessors();
  report.processorsAfter = processors;

  // Start a new machine era: fresh profile and ledger at the new capacity.
  // Every live job's entries are re-added below, slots and all.
  pastEras_.push_back(std::move(ledger_));
  ledger_ = resource::ReservationLedger(processors);
  slotsLayout_ = ledger_.layout();
  for (auto& [jobId, job] : live_) {
    (void)jobId;
    job.slots.clear();
  }
  resource::AvailabilityProfile fresh(processors);
  fresh.discardBefore(clock_);
  profile_ = std::move(fresh);
  // The new era's profile starts unattached; re-wire the observation hook.
  if (metrics_ != nullptr) profile_.attachMetrics(&metrics_->profile);

  // Phase 1: running tasks are non-preemptible — pin their remainders where
  // they are.  A running task that no longer fits kills its job outright.
  std::vector<std::uint64_t> doomed;
  for (auto& [jobId, job] : live_) {
    for (std::size_t t = 0; t < job.placements.size(); ++t) {
      const auto& p = job.placements[t];
      // Strictly-started only: a task beginning exactly at the resize
      // instant has consumed nothing and is re-placed in phase 2 instead.
      if (p.interval.begin < clock_ && clock_ < p.interval.end) {
        const TimeInterval rest{clock_, p.interval.end};
        if (profile_.minAvailable(rest) >= p.processors) {
          profile_.reserve(rest, p.processors);
          job.slots.push_back(ledger_.add(resource::Reservation{
              jobId, static_cast<int>(taskIndexOf(job, t)),
              static_cast<int>(job.chainIndex), rest, p.processors,
              p.deadline}));
        } else {
          doomed.push_back(jobId);
        }
        break;  // at most one task of a chain runs at a time
      }
    }
  }
  for (const auto jobId : doomed) {
    eraseLive(live_.find(jobId));
    report.dropped.push_back(jobId);
    if (metrics_ != nullptr) metrics_->droppedRunningNoFit->add();
  }

  // Phase 2: re-place each job's future tasks, in job-id (arrival) order.
  std::vector<std::uint64_t> ids;
  ids.reserve(live_.size());
  for (const auto& [jobId, job] : live_) {
    (void)job;
    ids.push_back(jobId);
  }
  std::sort(ids.begin(), ids.end());

  for (const auto jobId : ids) {
    LiveJob& job = live_.at(jobId);
    // Partition this job's placements.
    std::size_t firstFuture = 0;
    Time earliestStart = clock_;
    while (firstFuture < job.placements.size() &&
           job.placements[firstFuture].interval.begin < clock_) {
      earliestStart =
          std::max(earliestStart, job.placements[firstFuture].interval.end);
      ++firstFuture;
    }
    if (firstFuture == job.placements.size()) {
      // Fully running/finished; phase 1 already pinned what matters.
      report.kept.push_back(jobId);
      if (metrics_ != nullptr) metrics_->resizeKept->add();
      continue;
    }

    // Cheapest outcome: the original future placements still fit verbatim.
    // Probed under an undo-log trial scope: committed if they all fit,
    // rolled back (by the scope's destructor) otherwise.
    bool verbatim = true;
    {
      resource::AvailabilityProfile::Trial trial(profile_);
      for (std::size_t k = firstFuture; k < job.placements.size(); ++k) {
        const auto& p = job.placements[k];
        if (profile_.minAvailable(p.interval) >= p.processors) {
          profile_.reserve(p.interval, p.processors);
        } else {
          verbatim = false;
          break;
        }
      }
      if (verbatim) {
        trial.commit();
        for (std::size_t k = firstFuture; k < job.placements.size(); ++k) {
          const auto& p = job.placements[k];
          job.slots.push_back(ledger_.add(resource::Reservation{
              jobId, static_cast<int>(taskIndexOf(job, k)),
              static_cast<int>(job.chainIndex), p.interval, p.processors,
              p.deadline}));
        }
        report.kept.push_back(jobId);
        if (metrics_ != nullptr) metrics_->resizeKept->add();
        continue;
      }
    }

    if (job.pinned) {
      // A gang fragment is one shard's share of a cross-shard job; its spec
      // describes the whole job, so renegotiating it here alone would
      // desynchronise it from the sibling fragments on other shards (or
      // re-admit the full job on this shard).  Verbatim-or-drop: the sharded
      // wrapper cancels the siblings of a dropped fragment.
      report.dropped.push_back(jobId);
      eraseLive(live_.find(jobId));
      if (metrics_ != nullptr) metrics_->droppedRenegotiation->add();
      continue;
    }

    // Full renegotiation.  If nothing has started, every chain of the
    // original spec is still on the table; otherwise only the suffix of the
    // committed chain (outputs of earlier tasks fix the path).
    const task::TunableJobSpec& spec = *job.spec;
    task::TunableJobSpec rebased;
    bool feasibleSpec = true;
    // When chains are filtered during rebasing (firstFuture == 0), maps the
    // rebased spec's chain index back to the original spec's chain index.
    std::vector<std::size_t> originalChain;
    if (firstFuture == 0) {
      rebased.name = spec.name;
      // Rebase deadlines: relativeDeadline was relative to the original
      // release; make it relative to the new one.  A chain whose rebased
      // deadline can no longer be met is off the table, but the surviving
      // chains are exactly the freedom tunability exists to exploit — the
      // job is infeasible only when no chain survives.
      for (std::size_t c = 0; c < spec.chains.size(); ++c) {
        task::Chain chain = spec.chains[c];
        bool chainFeasible = true;
        for (auto& taskSpec : chain.tasks) {
          if (taskSpec.relativeDeadline >= kTimeInfinity) continue;
          const Time absolute = job.release + taskSpec.relativeDeadline;
          if (absolute <= earliestStart + taskSpec.request.duration) {
            chainFeasible = false;
            break;
          }
          taskSpec.relativeDeadline = absolute - earliestStart;
        }
        if (!chainFeasible) continue;
        originalChain.push_back(c);
        rebased.chains.push_back(std::move(chain));
      }
      feasibleSpec = !rebased.chains.empty();
    } else {
      const auto& chain = spec.chains[job.chainIndex];
      task::Chain suffix;
      suffix.name = chain.name + "-suffix";
      for (std::size_t k = firstFuture; k < chain.tasks.size(); ++k) {
        task::TaskSpec taskSpec = chain.tasks[k];
        if (taskSpec.relativeDeadline < kTimeInfinity) {
          const Time absolute = job.release + taskSpec.relativeDeadline;
          if (absolute <= earliestStart + taskSpec.request.duration) {
            feasibleSpec = false;
          }
          taskSpec.relativeDeadline = absolute - earliestStart;
        }
        suffix.tasks.push_back(std::move(taskSpec));
      }
      rebased.name = spec.name;
      rebased.chains = {std::move(suffix)};
    }

    if (!feasibleSpec) {
      report.dropped.push_back(jobId);
      eraseLive(live_.find(jobId));
      if (metrics_ != nullptr) metrics_->droppedInfeasible->add();
      continue;
    }

    const auto decision = heuristic_.admit(
        task::JobView(jobId, earliestStart, rebased), profile_);
    if (!decision.admitted) {
      report.dropped.push_back(jobId);
      eraseLive(live_.find(jobId));
      if (metrics_ != nullptr) metrics_->droppedRenegotiation->add();
      continue;
    }
    report.reconfigured.push_back(jobId);
    if (metrics_ != nullptr) metrics_->resizeReconfigured->add();
    // Splice the new placements (and possibly new chain) into the live job.
    if (firstFuture == 0) {
      job.chainIndex = originalChain[decision.schedule.chainIndex];
      job.release = earliestStart;
      job.placements = decision.schedule.placements;
      setQuality(jobId, job, decision.quality);
      record(jobId, job, job.placements);
    } else {
      job.placements.resize(firstFuture);
      job.placements.insert(job.placements.end(),
                            decision.schedule.placements.begin(),
                            decision.schedule.placements.end());
      record(jobId, job, decision.schedule.placements, firstFuture);
    }
    trackFinish(jobId, job);
  }
  return report;
}

// ---------------------------------------------------------------------------
// Elastic renegotiation (arbitrator-initiated quality trades)
// ---------------------------------------------------------------------------

bool QoSArbitrator::notStarted(const LiveJob& job) const {
  // Chain tasks are sequential, so the first placement is the earliest; a
  // placement beginning exactly at the clock has consumed nothing yet (the
  // same strictness resize() phase 1 uses).
  return job.placements.empty() ||
         job.placements.front().interval.begin >= clock_;
}

std::vector<ElasticCandidate> QoSArbitrator::elasticCandidates(
    bool demotedOnly) const {
  std::vector<ElasticCandidate> out;
  const auto consider = [&](std::uint64_t jobId, const LiveJob& job) {
    if (job.pinned) return;  // gang fragments never move independently
    if (!notStarted(job)) return;
    if (!demotedOnly && job.nextRung < 0) return;  // lowest rung
    ElasticCandidate candidate;
    candidate.jobId = jobId;
    candidate.chainIndex = job.chainIndex;
    candidate.quality = job.currentQuality;
    candidate.admittedQuality = job.admittedQuality;
    candidate.release = job.release;
    candidate.floorQuality = std::min(job.currentQuality, job.lowestRung);
    candidate.nextQuality = job.nextRung;
    for (const auto& p : job.placements) {
      candidate.futureArea += static_cast<std::int64_t>(p.processors) *
                              p.interval.length();
    }
    out.push_back(std::move(candidate));
  };
  if (demotedOnly) {
    for (const auto jobId : demoted_) consider(jobId, live_.at(jobId));
  } else {
    for (const auto& [jobId, job] : live_) consider(jobId, job);
  }
  return out;
}

std::optional<QualityMove> QoSArbitrator::tryMoveInTrial(
    resource::AvailabilityProfile::Trial& trial, std::uint64_t jobId,
    const LiveJob& job, bool promote) {
  const auto mark = trial.savepoint();
  for (const auto& p : job.placements) {
    profile_.release(p.interval, p.processors);
  }

  // Restrict the job to the target rung band, rebasing deadlines exactly as
  // resize() does for unstarted jobs: absolute deadlines are preserved, only
  // their anchor moves to the clock.  job.release is deliberately left alone
  // by applyMove, so repeated moves keep rebasing against the original
  // contract rather than compounding drift.
  const task::TunableJobSpec& spec = *job.spec;
  task::TunableJobSpec band;
  band.name = spec.name;
  band.qualityComposition = spec.qualityComposition;
  std::vector<std::size_t> originalChain;
  for (std::size_t c = 0; c < spec.chains.size(); ++c) {
    const double q = spec.chains[c].quality(spec.qualityComposition);
    const bool inBand = promote
                            ? q > job.currentQuality &&
                                  q <= job.admittedQuality
                            : q < job.currentQuality;
    if (!inBand) continue;
    task::Chain chain = spec.chains[c];
    bool chainFeasible = true;
    for (auto& taskSpec : chain.tasks) {
      if (taskSpec.relativeDeadline >= kTimeInfinity) continue;
      const Time absolute = job.release + taskSpec.relativeDeadline;
      if (absolute <= clock_ + taskSpec.request.duration) {
        chainFeasible = false;
        break;
      }
      taskSpec.relativeDeadline = absolute - clock_;
    }
    if (!chainFeasible) continue;
    originalChain.push_back(c);
    band.chains.push_back(std::move(chain));
  }
  if (band.chains.empty()) {
    trial.rollbackTo(mark);
    return std::nullopt;
  }

  auto decision = elasticHeuristic_.admitInTrial(
      task::JobView(jobId, clock_, band), profile_, trial);
  if (!decision.admitted) {
    trial.rollbackTo(mark);
    return std::nullopt;
  }
  QualityMove move;
  move.jobId = jobId;
  move.promotion = promote;
  move.fromChain = job.chainIndex;
  move.toChain = originalChain[decision.schedule.chainIndex];
  move.fromQuality = job.currentQuality;
  move.toQuality = decision.quality;
  move.schedule = std::move(decision.schedule);
  move.schedule.chainIndex = move.toChain;
  return move;
}

void QoSArbitrator::applyMove(const QualityMove& move) {
  auto& job = live_.at(move.jobId);
  syncSlots();
  (void)ledger_.annul(move.jobId, clock_, job.slots);
  job.chainIndex = move.toChain;
  job.placements = move.schedule.placements;
  record(move.jobId, job, job.placements);
  setQuality(move.jobId, job, move.toQuality);
  trackFinish(move.jobId, job);
  if (metrics_ != nullptr) {
    if (move.promotion) {
      metrics_->elastic.promotions->add();
      metrics_->elastic.promotionQualityDelta->record(move.toQuality -
                                                      move.fromQuality);
    } else {
      metrics_->elastic.demotions->add();
      metrics_->elastic.demotionQualityDelta->record(move.fromQuality -
                                                     move.toQuality);
    }
  }
}

sched::AdmissionDecision QoSArbitrator::reshapeAdmit(
    task::JobView newcomer, std::vector<QualityMove>* moves) {
  sched::AdmissionDecision rejected;
  rejected.chainsConsidered = static_cast<int>(newcomer.spec.chains.size());
  const auto candidates = elasticCandidates(/*demotedOnly=*/false);
  if (candidates.empty()) return rejected;
  const auto order =
      policy_->demotionOrder(candidates, newcomer.spec, newcomer.release);
  if (order.empty()) return rejected;
  if (metrics_ != nullptr) metrics_->elastic.reshapeAttempts->add();

  // One undo-log scope covers every victim shrink and the newcomer's
  // placement: nothing is visible until the newcomer fits, and a failed
  // reshape leaves no trace.  Ledger/live bookkeeping (not undo-logged) is
  // deferred until after the commit.
  resource::AvailabilityProfile::Trial trial(profile_);
  std::vector<QualityMove> pending;
  sched::AdmissionDecision decision;
  for (const auto victimId : order) {
    const auto it = live_.find(victimId);
    if (it == live_.end() || victimId == newcomer.id) continue;
    if (!notStarted(it->second)) continue;
    auto move = tryMoveInTrial(trial, victimId, it->second,
                               /*promote=*/false);
    if (!move) continue;
    pending.push_back(std::move(*move));
    decision = heuristic_.admitInTrial(newcomer, profile_, trial);
    if (decision.admitted) break;
  }
  if (!decision.admitted) {
    if (metrics_ != nullptr) metrics_->elastic.reshapeFailed->add();
    return rejected;  // ~Trial rolls every shrink back
  }
  trial.commit();
  for (const auto& move : pending) {
    applyMove(move);
    if (moves != nullptr) moves->push_back(move);
  }
  if (metrics_ != nullptr) metrics_->elastic.reshapeAdmitted->add();
  return decision;
}

void QoSArbitrator::promotePass(std::vector<QualityMove>* moves) {
  if (policy_ == nullptr) return;
  const auto demoted = elasticCandidates(/*demotedOnly=*/true);
  if (demoted.empty()) return;
  for (const auto jobId : policy_->promotionOrder(demoted)) {
    const auto it = live_.find(jobId);
    if (it == live_.end()) continue;
    const auto& job = it->second;
    if (!notStarted(job) || !(job.currentQuality < job.admittedQuality)) {
      continue;
    }
    resource::AvailabilityProfile::Trial trial(profile_);
    auto move = tryMoveInTrial(trial, jobId, job, /*promote=*/true);
    if (!move) continue;  // ~Trial restores the job's reservations
    trial.commit();
    applyMove(*move);
    if (moves != nullptr) moves->push_back(std::move(*move));
  }
}

// ---------------------------------------------------------------------------
// Cross-shard gang fragment surface
// ---------------------------------------------------------------------------

bool QoSArbitrator::gangReserve(
    const std::vector<sched::TaskPlacement>& placements) {
  TPRM_CHECK(!gangTrial_.has_value(), "gang reserve already open");
  TPRM_CHECK(!placements.empty(), "a gang fragment reserves something");
  gangTrial_.emplace(profile_);
  for (const auto& p : placements) {
    if (profile_.minAvailable(p.interval) < p.processors) {
      gangTrial_.reset();  // ~Trial rolls the partial reserve back
      return false;
    }
    profile_.reserve(p.interval, p.processors);
  }
  return true;
}

void QoSArbitrator::gangCommit(
    std::uint64_t jobId, std::shared_ptr<const task::TunableJobSpec> spec,
    std::size_t chainIndex, double quality, Time release,
    const std::vector<sched::TaskPlacement>& placements,
    const std::vector<std::size_t>& taskIndices) {
  TPRM_CHECK(gangTrial_.has_value(), "gangCommit needs an open reserve");
  TPRM_CHECK(placements.size() == taskIndices.size(),
             "every gang placement needs its spec task index");
  TPRM_CHECK(spec != nullptr, "a gang fragment keeps its job's spec");
  TPRM_CHECK(release >= clock_, "gang release cannot precede the clock");
  gangTrial_->commit();
  gangTrial_.reset();
  clock_ = release;
  profile_.discardBefore(clock_);
  retireFinished();
  TPRM_CHECK(!live(jobId), "job id is already live on this arbitrator");

  LiveJob job;
  job.spec = std::move(spec);
  job.release = release;
  job.chainIndex = chainIndex;
  job.placements = placements;
  job.admittedQuality = quality;
  job.currentQuality = quality;
  job.pinned = true;
  job.taskIndices = taskIndices;
  LiveJob& live = insertLive(jobId, std::move(job));
  live.slots.reserve(placements.size());
  for (std::size_t k = 0; k < placements.size(); ++k) {
    const auto& p = placements[k];
    live.slots.push_back(ledger_.add(resource::Reservation{
        jobId, static_cast<int>(taskIndices[k]),
        static_cast<int>(chainIndex), p.interval, p.processors, p.deadline}));
  }
  ++admitted_;
}

void QoSArbitrator::gangAbort() {
  TPRM_CHECK(gangTrial_.has_value(), "gangAbort needs an open reserve");
  gangTrial_.reset();  // ~Trial rolls back bit-for-bit
}

resource::VerificationReport QoSArbitrator::verify() const {
  for (const auto& era : pastEras_) {
    const auto report = era.verify();
    if (!report.ok) return report;
  }
  return ledger_.verify();
}

// ---------------------------------------------------------------------------
// QoSAgent
// ---------------------------------------------------------------------------

QoSAgent::QoSAgent(tunable::Program& program) : program_(&program) {
  paths_ = program.enumeratePaths();
  TPRM_CHECK(!paths_.empty(), "program has no feasible execution path");
  jobSpec_.name = program.name();
  jobSpec_.chains.reserve(paths_.size());
  for (const auto& path : paths_) {
    jobSpec_.chains.push_back(path.chain);
    jobSpec_.chains.back().bindings = path.bindings;
  }
  const auto errors = task::validate(jobSpec_);
  TPRM_CHECK(errors.empty(), "program job spec failed validation");
}

std::optional<Allocation> QoSAgent::negotiate(QoSArbitrator& arbitrator,
                                              Time release) {
  const auto decision = arbitrator.submit(jobSpec_, release);
  if (!decision.admitted) {
    allocation_.reset();
    return std::nullopt;
  }
  Allocation allocation;
  allocation.jobId = arbitrator.lastJobId().value();
  allocation.pathIndex = decision.schedule.chainIndex;
  allocation.quality = decision.quality;
  allocation.bindings = paths_[decision.schedule.chainIndex].bindings;
  allocation.schedule = decision.schedule;
  // Configure the application: assign the control parameters of the granted
  // path (Section 3.2: "application configuration just requires setting
  // values for the ... parameters").
  program_->parameters().assign(allocation.bindings);
  allocation_ = std::move(allocation);
  return allocation_;
}

void QoSAgent::run() {
  TPRM_CHECK(allocation_.has_value(),
             "run() requires a successful negotiation");
  program_->execute(paths_[allocation_->pathIndex]);
}

}  // namespace tprm::qos
