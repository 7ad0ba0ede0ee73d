#include "qos/sharded.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <limits>

#include "common/check.h"
#include "obs/metrics.h"

namespace tprm::qos {

namespace {

/// Free-area window used to pick the spill target, from the job's release.
constexpr Time kSpillHorizon = 256 * kTicksPerUnit;

/// Spill scores for up to this many other shards live on the stack; only a
/// larger machine pays for a heap buffer.
constexpr std::size_t kInlineSpillCandidates = 15;

}  // namespace

ShardedArbitrator::ShardedArbitrator(int processors, ShardedOptions options)
    : options_(options) {
  TPRM_CHECK(options.shards >= 1, "need at least one shard");
  TPRM_CHECK(processors >= options.shards,
             "need at least one processor per shard");
  const int base = processors / options.shards;
  const int extra = processors % options.shards;
  shards_.reserve(static_cast<std::size_t>(options.shards));
  for (int k = 0; k < options.shards; ++k) {
    shards_.push_back(
        std::make_unique<Shard>(base + (k < extra ? 1 : 0), options.greedy));
  }
  refreshWidestShard();
}

void ShardedArbitrator::refreshWidestShard() {
  int widest = 0;
  for (const auto& shard : shards_) {
    widest = std::max(widest, shard->arb.processors());
  }
  widestShard_.store(widest, std::memory_order_release);
}

Time ShardedArbitrator::advanceClock(Time t) {
  Time seen = clock_.load(std::memory_order_relaxed);
  while (seen < t &&
         !clock_.compare_exchange_weak(seen, t, std::memory_order_acq_rel)) {
  }
  return std::max(seen, t);
}

std::vector<std::unique_lock<std::mutex>> ShardedArbitrator::lockAll() const {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) {
    locks.emplace_back(shard->mu);
  }
  return locks;
}

int ShardedArbitrator::processors() const {
  int total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->arb.processors();
  }
  return total;
}

std::vector<int> ShardedArbitrator::shardProcessors() const {
  std::vector<int> sizes;
  sizes.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    sizes.push_back(shard->arb.processors());
  }
  return sizes;
}

sched::AdmissionDecision ShardedArbitrator::submitJob(
    std::uint64_t jobId, const task::TunableJobSpec& spec,
    const std::shared_ptr<const task::TunableJobSpec>* stored, Time release,
    Time* effectiveRelease, std::vector<QualityMove>* moves) {
  // One shard admits at most once, so the caller's shared copy (when there
  // is one) goes to whichever shard that is.
  const auto submitOn = [&](QoSArbitrator& arb, Time local) {
    return stored != nullptr ? arb.submit(jobId, *stored, local, moves)
                             : arb.submit(jobId, spec, local, moves);
  };
  const Time r = advanceClock(release);
  const int home = homeShard(jobId);
  sched::AdmissionDecision decision;
  {
    auto& shard = *shards_[static_cast<std::size_t>(home)];
    std::lock_guard<std::mutex> lock(shard.mu);
    // The shard's clock trails the global one (it only sees its own
    // traffic); clamping keeps the per-shard non-decreasing-release invariant
    // without forcing global serialization.
    const Time local = std::max(r, shard.arb.clock());
    if (effectiveRelease != nullptr) *effectiveRelease = local;
    decision = submitOn(shard.arb, local);
    if (decision.admitted) {
      admitted_.fetch_add(1, std::memory_order_relaxed);
      return decision;
    }
  }

  if (options_.spill && shards_.size() > 1) {
    // Offer the job to the shard with the most free area near its release.
    // Scoring takes each shard's lock briefly and releases it, so the score
    // can go stale before the submit lock is re-acquired (a competing admit
    // can land in the gap).  The submit therefore re-validates the free-area
    // estimate under the held lock and falls back to the currently best
    // candidate on mismatch, bounded to one re-rank per shard; a sequential
    // caller always validates on the first pass and submits to exactly the
    // shard the old single-scan argmax would have picked.
    struct Candidate {
      int shard = -1;
      std::int64_t freeTicks = -1;
    };
    const std::size_t others = shards_.size() - 1;
    std::array<Candidate, kInlineSpillCandidates> inlineCandidates;
    std::unique_ptr<Candidate[]> heapCandidates;
    Candidate* candidates = inlineCandidates.data();
    if (others > inlineCandidates.size()) {
      heapCandidates = std::make_unique<Candidate[]>(others);
      candidates = heapCandidates.get();
    }
    std::size_t count = 0;
    const int narrowest = minChainWidth(spec);
    for (int k = 0; k < shardCount(); ++k) {
      if (k == home) continue;
      auto& shard = *shards_[static_cast<std::size_t>(k)];
      std::lock_guard<std::mutex> lock(shard.mu);
      const Time from = std::max(r, shard.arb.clock());
      const TimeInterval window{from, from + kSpillHorizon};
      candidates[count++] = Candidate{
          k,
          static_cast<std::int64_t>(shard.arb.processors()) *
                  window.length() -
              shard.arb.profile().busyProcessorTicks(window)};
    }
    if (spillRaceSeam_) spillRaceSeam_();  // test-only score->submit gap
    // Argmax by free ticks; ties to the lowest shard index (scan order).
    const auto bestOf = [candidates, count]() {
      std::size_t best = 0;
      for (std::size_t i = 1; i < count; ++i) {
        if (candidates[i].freeTicks > candidates[best].freeTicks) best = i;
      }
      return best;
    };
    for (int pass = 0; pass < shardCount() && count > 0; ++pass) {
      auto& candidate = candidates[bestOf()];
      auto& shard = *shards_[static_cast<std::size_t>(candidate.shard)];
      std::lock_guard<std::mutex> lock(shard.mu);
      const Time local = std::max(r, shard.arb.clock());
      const TimeInterval window{local, local + kSpillHorizon};
      const std::int64_t freeNow =
          static_cast<std::int64_t>(shard.arb.processors()) *
              window.length() -
          shard.arb.profile().busyProcessorTicks(window);
      if (freeNow < candidate.freeTicks && pass + 1 < shardCount()) {
        // Stale score: something was admitted here since the scan.  Re-rank
        // with the fresh value; if another shard now leads, try it instead
        // (the final pass submits regardless, guaranteeing progress).
        candidate.freeTicks = freeNow;
        if (&candidates[bestOf()] != &candidate) continue;
      }
      if (narrowest > shard.arb.processors()) {
        // Even an idle shard of this size cannot hold any chain of the
        // spec: the submit is a guaranteed rejection, so skip it and do not
        // count a spill attempt.
        if (shardedMetrics_ != nullptr) {
          shardedMetrics_->spillNoCandidate->add();
        }
        break;
      }
      if (shardedMetrics_ != nullptr) shardedMetrics_->spillAttempts->add();
      const auto spilled = submitOn(shard.arb, local);
      if (spilled.admitted) {
        if (effectiveRelease != nullptr) *effectiveRelease = local;
        admitted_.fetch_add(1, std::memory_order_relaxed);
        spills_.fetch_add(1, std::memory_order_relaxed);
        if (shardedMetrics_ != nullptr) shardedMetrics_->spillAdmitted->add();
        return spilled;
      }
      break;  // the chosen candidate rejected: final rejection, as before
    }
  }

  if (options_.gang && shards_.size() > 1) {
    auto gang = gangSubmit(jobId, spec, stored, r, effectiveRelease);
    if (gang.admitted) return gang;
  }

  rejected_.fetch_add(1, std::memory_order_relaxed);
  return decision;
}

int ShardedArbitrator::minChainWidth(const task::TunableJobSpec& spec) {
  int narrowest = std::numeric_limits<int>::max();
  for (const auto& chain : spec.chains) {
    narrowest = std::min(narrowest, chain.maxProcessors());
  }
  return narrowest;
}

namespace {

/// One shard's share of one task of a gang placement.
struct GangFragment {
  int shard = 0;
  std::size_t taskIndex = 0;
  sched::TaskPlacement placement;
};

/// A fully planned gang chain: the full-width schedule (the decision
/// surface) plus its per-shard width fragments.
struct GangPlan {
  std::size_t chainIndex = 0;
  double quality = 0.0;
  Time finish = 0;
  std::vector<sched::TaskPlacement> fullWidth;
  std::vector<GangFragment> fragments;
};

}  // namespace

sched::AdmissionDecision ShardedArbitrator::gangSubmit(
    std::uint64_t jobId, const task::TunableJobSpec& spec,
    const std::shared_ptr<const task::TunableJobSpec>* stored, Time release,
    Time* effectiveRelease) {
  sched::AdmissionDecision rejection;
  rejection.chainsConsidered = static_cast<int>(spec.chains.size());

  // Gang eligibility: only jobs the regular per-shard path could never
  // admit — no chain of the spec fits even the widest shard.  Everything
  // narrower already had its shot at the home shard and the spill target.
  // Checked once without locks, so a narrow rejection never locks every
  // shard, and again under them: widestShard_ only changes with every lock
  // held, so the second read is exact.
  const int narrowest = minChainWidth(spec);
  if (narrowest <= widestShard_.load(std::memory_order_acquire)) {
    return rejection;
  }
  const auto locks = lockAll();
  if (narrowest <= widestShard_.load(std::memory_order_relaxed)) {
    return rejection;
  }
  if (shardedMetrics_ != nullptr) shardedMetrics_->gangAttempts->add();

  // One common release for every fragment: no shard may be asked to commit
  // behind its own clock.
  Time rGang = release;
  for (const auto& shard : shards_) {
    rGang = std::max(rGang, shard->arb.clock());
  }

  // Availability changes only at profile breakpoints, so the earliest start
  // of each task is either its predecessor's finish or a breakpoint (the
  // planner is exact first-fit over the aggregated availability).  The
  // profiles are immutable while every lock is held, so one merged list
  // serves the whole plan.
  std::size_t segments = 0;
  for (const auto& shard : shards_) {
    segments += shard->arb.profile().segmentCount();
  }
  std::vector<Time> breakpoints;
  breakpoints.reserve(segments);
  for (const auto& shard : shards_) {
    shard->arb.profile().appendBreakpoints(breakpoints);
  }
  std::sort(breakpoints.begin(), breakpoints.end());
  breakpoints.erase(std::unique(breakpoints.begin(), breakpoints.end()),
                    breakpoints.end());

  // Plan each chain read-only; keep the best by quality, then earliest
  // finish, then chain declaration order (gang admission is the machine's
  // last word on a job, so it maximizes achieved quality like
  // ChainChoice::QualityFirst).
  std::optional<GangPlan> best;
  int schedulable = 0;
  for (std::size_t c = 0; c < spec.chains.size(); ++c) {
    const auto& chain = spec.chains[c];
    GangPlan plan;
    plan.chainIndex = c;
    plan.quality = chain.quality(spec.qualityComposition);
    Time prevEnd = rGang;
    bool feasible = true;
    for (std::size_t t = 0; t < chain.tasks.size(); ++t) {
      const auto& taskSpec = chain.tasks[t];
      const int width = taskSpec.request.processors;
      const Time duration = taskSpec.request.duration;
      const Time deadline = taskSpec.relativeDeadline >= kTimeInfinity
                                ? kTimeInfinity
                                : rGang + taskSpec.relativeDeadline;
      std::optional<Time> start;
      Time candidateStart = prevEnd;
      auto next = std::upper_bound(breakpoints.begin(), breakpoints.end(),
                                   prevEnd);
      while (true) {
        if (deadline < kTimeInfinity && candidateStart + duration > deadline) {
          break;  // later candidates only finish later
        }
        const TimeInterval window{candidateStart, candidateStart + duration};
        int total = 0;
        for (const auto& shard : shards_) {
          total += shard->arb.profile().minAvailable(window);
        }
        if (total >= width) {
          start = candidateStart;
          break;
        }
        if (next == breakpoints.end()) break;
        candidateStart = *next++;
      }
      if (!start.has_value()) {
        feasible = false;
        break;
      }
      const TimeInterval window{*start, *start + duration};
      plan.fullWidth.push_back(
          sched::TaskPlacement{window, width, deadline});
      // Greedy fragmentation in shard index order: deterministic, and the
      // sum of per-shard minima over the window covers the width by
      // construction.
      int remaining = width;
      for (int k = 0; k < shardCount() && remaining > 0; ++k) {
        const int take = std::min(
            remaining,
            shards_[static_cast<std::size_t>(k)]->arb.profile().minAvailable(
                window));
        if (take <= 0) continue;
        plan.fragments.push_back(GangFragment{
            k, t, sched::TaskPlacement{window, take, deadline}});
        remaining -= take;
      }
      TPRM_CHECK(remaining == 0, "gang fragmentation lost width");
      prevEnd = window.end;
    }
    if (!feasible) continue;
    plan.finish = prevEnd;
    ++schedulable;
    if (!best.has_value() || plan.quality > best->quality ||
        (plan.quality == best->quality && plan.finish < best->finish)) {
      best = std::move(plan);
    }
  }
  rejection.chainsSchedulable = schedulable;
  if (!best.has_value()) return rejection;

  // Group fragments per shard (they are already in shard index order).
  std::vector<std::vector<sched::TaskPlacement>> perShard(
      static_cast<std::size_t>(shardCount()));
  std::vector<std::vector<std::size_t>> perShardTasks(
      static_cast<std::size_t>(shardCount()));
  for (const auto& fragment : best->fragments) {
    perShard[static_cast<std::size_t>(fragment.shard)].push_back(
        fragment.placement);
    perShardTasks[static_cast<std::size_t>(fragment.shard)].push_back(
        fragment.taskIndex);
  }

  // Phase 1: trial-reserve each participating shard's fragments under that
  // shard's undo log, in shard index order.  Any failure aborts every
  // reserve taken so far — the profiles come back bit-for-bit.
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    if (perShard[k].empty() || shards_[k]->arb.gangReserve(perShard[k])) {
      continue;
    }
    for (std::size_t j = 0; j < k; ++j) {
      if (!perShard[j].empty()) shards_[j]->arb.gangAbort();
    }
    if (shardedMetrics_ != nullptr) shardedMetrics_->gangRollbacks->add();
    return rejection;
  }

  // Phase 2: commit every fragment under the job's own id.  The job's one
  // stored spec (the caller's shared copy, or one made here, on admission)
  // is shared by every fragment.
  const auto shared = stored != nullptr
                          ? *stored
                          : std::make_shared<const task::TunableJobSpec>(spec);
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    if (perShard[k].empty()) continue;
    shards_[k]->arb.gangCommit(jobId, shared, best->chainIndex,
                               best->quality, rGang, perShard[k],
                               perShardTasks[k]);
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  gangAdmitted_.fetch_add(1, std::memory_order_relaxed);
  if (shardedMetrics_ != nullptr) {
    shardedMetrics_->gangAdmitted->add();
    shardedMetrics_->gangFragmentsPlaced->add(
        static_cast<std::uint64_t>(best->fragments.size()));
  }
  if (effectiveRelease != nullptr) *effectiveRelease = rGang;

  sched::AdmissionDecision decision;
  decision.admitted = true;
  decision.quality = best->quality;
  decision.chainsConsidered = static_cast<int>(spec.chains.size());
  decision.chainsSchedulable = schedulable;
  decision.schedule.chainIndex = best->chainIndex;
  decision.schedule.placements = std::move(best->fullWidth);
  return decision;
}

std::int64_t ShardedArbitrator::cancel(std::uint64_t jobId,
                                       std::vector<QualityMove>* moves) {
  auto& home = *shards_[static_cast<std::size_t>(homeShard(jobId))];
  {
    std::lock_guard<std::mutex> lock(home.mu);
    if (home.arb.live(jobId) && !home.arb.pinned(jobId)) {
      return home.arb.cancel(jobId, moves);
    }
  }
  // Spilled, gang, or unknown: visit every shard in index order and cancel
  // wherever the id is live — a gang's fragments all carry it.  The next
  // shard is locked before the previous one is released, so a concurrent
  // cancel of the same job trails this one and finds nothing left.
  std::int64_t freed = 0;
  bool found = false;
  {
    std::unique_lock<std::mutex> held;
    for (const auto& shard : shards_) {
      held = std::unique_lock<std::mutex>(shard->mu);
      if (!shard->arb.live(jobId)) continue;
      found = true;
      freed += shard->arb.cancel(jobId, moves);
    }
  }
  if (found) return freed;
  // Unknown, rejected, or already finished: account the miss on the home
  // shard, like the unsharded arbitrator would.
  std::lock_guard<std::mutex> lock(home.mu);
  auto* metrics = home.arb.metrics();
  if (metrics != nullptr && metrics->cancelMisses != nullptr) {
    metrics->cancelMisses->add();
  }
  return 0;
}

RenegotiationReport ShardedArbitrator::resize(int processors, Time when) {
  TPRM_CHECK(processors >= shardCount(),
             "resize needs at least one processor per shard");
  const Time w = advanceClock(when);
  const auto locks = lockAll();

  RenegotiationReport report;
  report.processorsAfter = processors;
  const int base = processors / shardCount();
  const int extra = processors % shardCount();
  for (int k = 0; k < shardCount(); ++k) {
    auto& shard = *shards_[static_cast<std::size_t>(k)];
    report.processorsBefore += shard.arb.processors();
    const auto shardReport = shard.arb.resize(
        base + (k < extra ? 1 : 0), std::max(w, shard.arb.clock()));
    report.kept.insert(report.kept.end(), shardReport.kept.begin(),
                       shardReport.kept.end());
    report.reconfigured.insert(report.reconfigured.end(),
                               shardReport.reconfigured.begin(),
                               shardReport.reconfigured.end());
    report.dropped.insert(report.dropped.end(), shardReport.dropped.begin(),
                          shardReport.dropped.end());
  }
  refreshWidestShard();
  // Locks still held.  A gang whose fragment was dropped anywhere has lost
  // its machine-wide guarantee: cancel the surviving sibling fragments and
  // report the gang dropped once, not kept.  A gang kept on every shard is
  // reported kept once (each shard listed it).
  std::sort(report.dropped.begin(), report.dropped.end());
  report.dropped.erase(
      std::unique(report.dropped.begin(), report.dropped.end()),
      report.dropped.end());
  for (const auto jobId : report.dropped) {
    for (auto& shard : shards_) {
      if (shard->arb.live(jobId)) (void)shard->arb.cancel(jobId, nullptr);
    }
  }
  std::sort(report.kept.begin(), report.kept.end());
  report.kept.erase(std::unique(report.kept.begin(), report.kept.end()),
                    report.kept.end());
  std::vector<std::uint64_t> kept;
  std::set_difference(report.kept.begin(), report.kept.end(),
                      report.dropped.begin(), report.dropped.end(),
                      std::back_inserter(kept));
  report.kept = std::move(kept);
  std::sort(report.reconfigured.begin(), report.reconfigured.end());
  return report;
}

ShardRebalanceReport ShardedArbitrator::rebalance(Time when) {
  ShardRebalanceReport report;
  if (shardCount() < 2) return report;
  if (shardedMetrics_ != nullptr) shardedMetrics_->rebalanceChecks->add();
  const Time w = advanceClock(when);
  if (rebalanceRaceSeam_) rebalanceRaceSeam_();  // test-only clock->lock gap
  const auto locks = lockAll();

  // A shard's idle count is the capacity free from `when` on — processors
  // the donor can give up without touching any commitment.
  int donor = -1;
  int receiver = -1;
  std::vector<int> idle(static_cast<std::size_t>(shardCount()), 0);
  for (int k = 0; k < shardCount(); ++k) {
    const auto& arb = shards_[static_cast<std::size_t>(k)]->arb;
    const Time from = std::max(w, arb.clock());
    idle[static_cast<std::size_t>(k)] =
        arb.profile().minAvailable(TimeInterval{from, kTimeInfinity});
    if (donor < 0 || idle[static_cast<std::size_t>(k)] >
                         idle[static_cast<std::size_t>(donor)]) {
      donor = k;
    }
    if (receiver < 0 || idle[static_cast<std::size_t>(k)] <
                            idle[static_cast<std::size_t>(receiver)]) {
      receiver = k;
    }
  }
  report.maxIdle = idle[static_cast<std::size_t>(donor)];
  report.minIdle = idle[static_cast<std::size_t>(receiver)];
  const int gap = report.maxIdle - report.minIdle;
  if (donor == receiver || gap < options_.rebalanceThreshold) return report;

  auto& donorArb = shards_[static_cast<std::size_t>(donor)]->arb;
  auto& receiverArb = shards_[static_cast<std::size_t>(receiver)]->arb;
  const int move = std::min({gap / 2, report.maxIdle,
                             donorArb.processors() - 1});
  if (move <= 0) return report;

  // Both resizes happen at one common instant — the later of the sweep time
  // and both shard clocks — and the receiver grows before the donor shrinks,
  // so machine-wide capacity never transiently dips below the total.  (The
  // old per-shard times shrank the donor at max(w, donorClock) while the
  // receiver only grew at max(w, receiverClock): with the receiver's clock
  // ahead, the machine was short `move` processors over the interval between
  // the two instants, and a submit racing the sweep could be spuriously
  // rejected.)  Donor idleness measured from an earlier instant still holds
  // from the later one: always-idle-from-t is always-idle-from-t' for any
  // t' >= t.
  const Time at = std::max({w, donorArb.clock(), receiverArb.clock()});
  (void)receiverArb.resize(receiverArb.processors() + move, at);
  const auto shrink = donorArb.resize(donorArb.processors() - move, at);
  // The donor only gives up always-idle processors, so the shrink must keep
  // every reservation in place.
  TPRM_CHECK(shrink.dropped.empty(), "rebalance shrink dropped a commitment");
  refreshWidestShard();
  report.moved = true;
  report.fromShard = donor;
  report.toShard = receiver;
  report.processors = move;
  report.at = at;
  if (shardedMetrics_ != nullptr) {
    shardedMetrics_->rebalanceMoves->add();
    shardedMetrics_->rebalanceProcessorsMoved->add(
        static_cast<std::uint64_t>(move));
  }
  return report;
}

resource::VerificationReport ShardedArbitrator::verify() const {
  const auto locks = lockAll();
  for (const auto& shard : shards_) {
    auto report = shard->arb.verify();
    if (!report.ok) return report;
  }
  return resource::VerificationReport{};
}

void ShardedArbitrator::attachReshapePolicy(const ReshapePolicy* policy) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->arb.attachReshapePolicy(policy);
  }
}

void ShardedArbitrator::attachMetrics(
    std::vector<obs::NegotiationMetrics*> perShard,
    obs::ShardedMetrics* sharded) {
  TPRM_CHECK(perShard.empty() ||
                 perShard.size() == static_cast<std::size_t>(shardCount()),
             "per-shard metrics bundle count must match shard count");
  for (int k = 0; k < shardCount(); ++k) {
    auto& shard = *shards_[static_cast<std::size_t>(k)];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.arb.attachMetrics(
        perShard.empty() ? nullptr : perShard[static_cast<std::size_t>(k)]);
  }
  shardedMetrics_ = sharded;
}

}  // namespace tprm::qos
