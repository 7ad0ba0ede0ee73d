#include "sched/greedy_arbitrator.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"

namespace tprm::sched {
namespace {

/// Best-fit placement: among maximal holes that can host the task, pick the
/// one whose processor level exceeds the request by the least (then the
/// earliest), and place the task at the earliest feasible start inside it.
std::optional<TaskPlacement> bestFitPlace(
    const resource::AvailabilityProfile& profile, Time earliest, Time duration,
    int processors, Time deadline) {
  const Time windowEnd = deadline >= kTimeInfinity ? kTimeInfinity : deadline;
  const auto holes =
      profile.maximalHoles(TimeInterval{earliest, windowEnd});
  std::optional<TaskPlacement> best;
  int bestSlack = 0;
  for (const auto& hole : holes) {
    if (hole.processors < processors) continue;
    const Time start = std::max(hole.begin, earliest);
    if (start + duration > hole.end || start + duration > deadline) continue;
    const int slack = hole.processors - processors;
    if (!best || slack < bestSlack ||
        (slack == bestSlack && start < best->interval.begin)) {
      best = TaskPlacement{TimeInterval{start, start + duration}, processors,
                           deadline};
      bestSlack = slack;
    }
  }
  return best;
}

}  // namespace

GreedyArbitrator::GreedyArbitrator(GreedyOptions options)
    : options_(options) {}

std::string GreedyArbitrator::name() const {
  std::string n = "greedy";
  switch (options_.chainChoice) {
    case ChainChoice::Paper: n += "-paper"; break;
    case ChainChoice::WindowUtilization: n += "-windowutil"; break;
    case ChainChoice::FirstSchedulable: n += "-firstchain"; break;
    case ChainChoice::Random: n += "-randomchain"; break;
    case ChainChoice::QualityFirst: n += "-quality"; break;
  }
  if (options_.fitPolicy == FitPolicy::BestFit) n += "-bestfit";
  if (options_.malleable) {
    n += "-malleable";
    // The malleable policy is active only when malleability is on; the name
    // reflects only options that can influence decisions.
    if (options_.malleablePolicy == MalleablePolicy::EarliestFinish) {
      n += "-earliestfinish";
    }
  }
  return n;
}

std::optional<TaskPlacement> GreedyArbitrator::placeTask(
    const task::ShapeTask& task, Time earliest, Time deadline,
    const resource::AvailabilityProfile& profile,
    resource::FitHint* hint) const {
  auto placeRigid = [&](int processors,
                        Time duration) -> std::optional<TaskPlacement> {
    if (options_.fitPolicy == FitPolicy::BestFit) {
      return bestFitPlace(profile, earliest, duration, processors, deadline);
    }
    const auto start =
        profile.findEarliestFit(earliest, duration, processors, deadline,
                                hint);
    if (!start) return std::nullopt;
    return TaskPlacement{TimeInterval{*start, *start + duration}, processors,
                         deadline};
  };

  if (!options_.malleable || !task.malleable) {
    return placeRigid(task.request.processors, task.request.duration);
  }

  // Malleable placement (Section 5.4): try processor counts from the degree
  // of concurrency downward.  The probes share `hint`: the profile does not
  // change between them, so each q after the first resumes the step-function
  // scan at `earliest` without a fresh binary search.
  const auto& spec = task.malleableSpec;
  std::optional<TaskPlacement> best;
  for (int q = spec.maxConcurrency; q >= 1; --q) {
    const Time duration = spec.durationOn(q);
    const auto candidate = placeRigid(q, duration);
    if (!candidate) continue;
    if (options_.malleablePolicy == MalleablePolicy::WidestFit) {
      // First fit in descending-q order.
      return candidate;
    }
    if (!best || candidate->interval.end < best->interval.end) {
      best = candidate;
    }
  }
  return best;
}

bool GreedyArbitrator::planChain(task::JobView job, std::size_t chainIndex,
                                 const resource::AvailabilityProfile& profile,
                                 ChainSchedule& out) const {
  const auto tasks = job.shape.tasks(chainIndex);
  out.chainIndex = chainIndex;
  out.placements.clear();

  Time earliest = job.release;
  resource::FitHint hint;
  for (std::size_t k = job.firstTask(); k < tasks.size(); ++k) {
    const Time deadline = job.absoluteDeadline(tasks[k].relativeDeadline);
    const auto placement =
        placeTask(tasks[k], earliest, deadline, profile, &hint);
    if (!placement) return false;
    earliest = placement->interval.end;
    out.placements.push_back(*placement);
  }
  return true;
}

std::optional<ChainSchedule> GreedyArbitrator::tryChain(
    task::JobView job, std::size_t chainIndex,
    const resource::AvailabilityProfile& profile) const {
  ChainSchedule schedule;
  if (!planChain(job, chainIndex, profile, schedule)) return std::nullopt;
  return schedule;
}

AdmissionDecision GreedyArbitrator::admit(
    task::JobView job, resource::AvailabilityProfile& profile) {
  AdmissionDecision decision = choose(job, profile);
  if (decision.admitted) {
    for (const auto& placement : decision.schedule.placements) {
      profile.reserve(placement.interval, placement.processors);
    }
  }
  return decision;
}

AdmissionDecision GreedyArbitrator::admitInTrial(
    task::JobView job, resource::AvailabilityProfile& profile,
    resource::AvailabilityProfile::Trial& /*trial*/) {
  TPRM_CHECK(profile.inTrial(), "admitInTrial requires an open Trial scope");
  // The winner's reservations land in the open trial's log.
  return admit(job, profile);
}

AdmissionDecision GreedyArbitrator::choose(
    task::JobView job, const resource::AvailabilityProfile& profile) {
  AdmissionDecision decision;
  decision.chainsConsidered = static_cast<int>(job.offeredCount());
  const task::JobShape& shape = job.shape;

  // Per-candidate scalars; the placements live in plan_ / best_.
  struct Candidate {
    std::size_t chain = 0;
    Time finish = 0;
    std::int64_t area = 0;  // the chain's reserved processor-ticks
  };

  // The paper's tie-break chain (earliest finish, densest window, smaller
  // resource prefix), reused by the quality-maximizing policy.  Equal finish
  // means an identical window [release, finish], whose committed busy ticks
  // are the same for both candidates, so the denser window is the one with
  // the larger area.
  auto paperBetter = [&shape](const Candidate& a, const Candidate& b) {
    if (a.finish != b.finish) return a.finish < b.finish;
    if (a.area != b.area) return a.area > b.area;
    return shape.prefixAreasLess(a.chain, b.chain);
  };
  // Busy ticks over [release, finish]: committed + this chain.
  auto utilization = [&](const Candidate& c) {
    const Time window = c.finish - job.release;
    if (window <= 0) return 1.0;
    const std::int64_t busy =
        profile.busyProcessorTicks(TimeInterval{job.release, c.finish}) +
        c.area;
    return static_cast<double>(busy) / static_cast<double>(window);
  };
  auto better = [&](const Candidate& a, const Candidate& b) {
    switch (options_.chainChoice) {
      case ChainChoice::Paper:
        return paperBetter(a, b);
      case ChainChoice::QualityFirst: {
        const double qa = shape.chain(a.chain).quality;
        const double qb = shape.chain(b.chain).quality;
        if (qa != qb) return qa > qb;
        return paperBetter(a, b);
      }
      case ChainChoice::WindowUtilization: {
        const double ua = utilization(a);
        const double ub = utilization(b);
        if (ua != ub) return ua > ub;
        if (a.finish != b.finish) return a.finish < b.finish;
        return shape.prefixAreasLess(a.chain, b.chain);
      }
      case ChainChoice::FirstSchedulable:
      case ChainChoice::Random:
        break;  // never compared
    }
    return false;
  };

  // Random keeps only the indices of the schedulable chains and re-plans
  // its pick (planning is deterministic).
  std::vector<std::size_t> schedulable;
  std::optional<Candidate> best;
  for (std::size_t c = 0; c < shape.chainCount(); ++c) {
    if (!job.offers(c)) continue;
    if (metrics_ != nullptr) metrics_->chainsEvaluated->add();
    if (!planChain(job, c, profile, plan_)) continue;
    ++decision.chainsSchedulable;
    if (options_.chainChoice == ChainChoice::Random) {
      schedulable.push_back(c);
      continue;
    }
    const Candidate candidate{c, plan_.finishTime(), plan_.area()};
    if (!best || better(candidate, *best)) {
      best = candidate;
      std::swap(plan_, best_);
    }
    if (options_.chainChoice == ChainChoice::FirstSchedulable) break;
  }

  if (metrics_ != nullptr && decision.chainsSchedulable > 0) {
    metrics_->chainsSchedulable->add(
        static_cast<std::uint64_t>(decision.chainsSchedulable));
  }
  if (decision.chainsSchedulable == 0) {
    if (metrics_ != nullptr) metrics_->jobsRejected->add();
    return decision;
  }
  if (options_.chainChoice == ChainChoice::Random) {
    if (!rng_) rng_.emplace(options_.seed);
    const std::size_t pick = schedulable[static_cast<std::size_t>(
        rng_->uniformBelow(static_cast<std::uint64_t>(schedulable.size())))];
    const bool planned = planChain(job, pick, profile, best_);
    TPRM_CHECK(planned, "re-planning a schedulable chain failed");
  }

  if (metrics_ != nullptr) metrics_->jobsAdmitted->add();
  decision.admitted = true;
  decision.quality = shape.chain(best_.chainIndex).quality;
  decision.schedule = best_;
  return decision;
}

}  // namespace tprm::sched
