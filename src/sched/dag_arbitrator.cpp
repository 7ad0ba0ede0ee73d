#include "sched/dag_arbitrator.h"

#include <algorithm>

#include "common/check.h"
#include "obs/metrics.h"

namespace tprm::sched {

DagArbitrator::DagArbitrator(DagOptions options) : options_(options) {}

std::string DagArbitrator::name() const {
  return options_.malleable ? "dag-greedy-malleable" : "dag-greedy";
}

std::optional<std::vector<TaskPlacement>> DagArbitrator::placeAlternative(
    const task::DagJobInstance& job, std::size_t alternativeIndex,
    resource::AvailabilityProfile& profile) const {
  TPRM_CHECK(profile.inTrial(), "placeAlternative requires an open Trial");
  const task::DagSpec& dag = job.spec.alternatives[alternativeIndex];
  const auto order = dag.topologicalOrder();
  std::vector<TaskPlacement> placements(dag.tasks.size());

  resource::FitHint hint;
  for (const std::size_t v : order) {
    const task::DagTask& t = dag.tasks[v];
    Time earliest = job.release;
    for (const std::size_t p : t.predecessors) {
      earliest = std::max(earliest, placements[p].interval.end);
    }
    const Time deadline =
        t.spec.relativeDeadline >= kTimeInfinity
            ? kTimeInfinity
            : job.release + t.spec.relativeDeadline;

    std::optional<TaskPlacement> placement;
    if (options_.malleable && t.spec.malleable) {
      // Widest-fit (Section 5.4 default): descend from the degree of
      // concurrency, take the first configuration that fits.  The probes
      // share `hint` (no reservation happens between them).
      const auto& spec = *t.spec.malleable;
      for (int q = spec.maxConcurrency; q >= 1; --q) {
        const Time duration = spec.durationOn(q);
        const auto start =
            profile.findEarliestFit(earliest, duration, q, deadline, &hint);
        if (start) {
          placement = TaskPlacement{TimeInterval{*start, *start + duration},
                                    q, deadline};
          break;
        }
      }
    } else {
      const auto start = profile.findEarliestFit(
          earliest, t.spec.request.duration, t.spec.request.processors,
          deadline, &hint);
      if (start) {
        placement =
            TaskPlacement{TimeInterval{*start, *start + t.spec.request.duration},
                          t.spec.request.processors, deadline};
      }
    }
    if (!placement) return std::nullopt;
    profile.reserve(placement->interval, placement->processors);
    placements[v] = *placement;
  }
  return placements;
}

std::optional<std::vector<TaskPlacement>> DagArbitrator::tryAlternative(
    const task::DagJobInstance& job, std::size_t alternativeIndex,
    resource::AvailabilityProfile& profile) const {
  resource::AvailabilityProfile::Trial trial(profile);
  return placeAlternative(job, alternativeIndex, profile);
  // ~Trial rolls the speculative reservations back.
}

DagAdmissionDecision DagArbitrator::admit(
    const task::DagJobInstance& job,
    resource::AvailabilityProfile& profile) const {
  DagAdmissionDecision decision;
  decision.alternativesConsidered =
      static_cast<int>(job.spec.alternatives.size());

  struct Candidate {
    std::size_t index;
    std::vector<TaskPlacement> placements;
    Time finish;
    std::int64_t busyWindowTicks;
    std::vector<std::int64_t> prefixAreas;  // in placement-start order
  };
  std::vector<Candidate> candidates;

  // One trial scope for the whole alternative set; rolled back between
  // candidates, committed for the winner.  Unlike a chain, an alternative
  // cannot be planned read-only: sibling tasks overlap in time, so each
  // placement must be reserved before the next sibling is probed.
  resource::AvailabilityProfile::Trial trial(profile);

  for (std::size_t a = 0; a < job.spec.alternatives.size(); ++a) {
    if (metrics_ != nullptr) metrics_->chainsEvaluated->add();
    auto placements = placeAlternative(job, a, profile);
    trial.rollback();
    if (!placements) continue;
    Candidate candidate;
    candidate.index = a;
    candidate.finish = 0;
    std::int64_t area = 0;
    for (const auto& p : *placements) {
      candidate.finish = std::max(candidate.finish, p.interval.end);
      area += static_cast<std::int64_t>(p.processors) * p.interval.length();
    }
    candidate.busyWindowTicks =
        profile.busyProcessorTicks(
            TimeInterval{job.release, candidate.finish}) +
        area;
    // Prefix areas in start-time order (the dag analogue of the chain's
    // task-order prefix).
    std::vector<const TaskPlacement*> byStart;
    byStart.reserve(placements->size());
    for (const auto& p : *placements) byStart.push_back(&p);
    std::sort(byStart.begin(), byStart.end(),
              [](const TaskPlacement* x, const TaskPlacement* y) {
                return x->interval.begin < y->interval.begin;
              });
    std::int64_t running = 0;
    for (const auto* p : byStart) {
      running += static_cast<std::int64_t>(p->processors) *
                 p->interval.length();
      candidate.prefixAreas.push_back(running);
    }
    candidate.placements = std::move(*placements);
    candidates.push_back(std::move(candidate));
  }

  decision.alternativesSchedulable = static_cast<int>(candidates.size());
  if (metrics_ != nullptr && !candidates.empty()) {
    metrics_->chainsSchedulable->add(candidates.size());
  }
  if (candidates.empty()) {
    if (metrics_ != nullptr) metrics_->jobsRejected->add();
    return decision;
  }

  std::size_t chosen = 0;
  auto better = [](const Candidate& a, const Candidate& b) {
    if (a.finish != b.finish) return a.finish < b.finish;
    if (a.busyWindowTicks != b.busyWindowTicks) {
      return a.busyWindowTicks > b.busyWindowTicks;
    }
    return std::lexicographical_compare(
        a.prefixAreas.begin(), a.prefixAreas.end(), b.prefixAreas.begin(),
        b.prefixAreas.end());
  };
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    if (better(candidates[i], candidates[chosen])) chosen = i;
  }

  Candidate& winner = candidates[chosen];
  for (const auto& placement : winner.placements) {
    profile.reserve(placement.interval, placement.processors);
  }
  trial.commit();
  if (metrics_ != nullptr) metrics_->jobsAdmitted->add();
  decision.admitted = true;
  decision.alternativeIndex = winner.index;
  decision.finish = winner.finish;
  decision.placements = std::move(winner.placements);
  // Quality composes over the alternative's tasks.
  const auto& dag = job.spec.alternatives[decision.alternativeIndex];
  double quality = 1.0;
  double minQuality = 1.0;
  for (const auto& t : dag.tasks) {
    quality *= t.spec.quality;
    minQuality = std::min(minQuality, t.spec.quality);
  }
  decision.quality =
      job.spec.qualityComposition == task::QualityComposition::Multiplicative
          ? quality
          : minQuality;
  return decision;
}

}  // namespace tprm::sched
