#include "sched/baselines.h"

#include <algorithm>

#include "common/check.h"

namespace tprm::sched {

// ---------------------------------------------------------------------------
// BestEffortArbitrator
// ---------------------------------------------------------------------------

AdmissionDecision BestEffortArbitrator::admit(
    task::JobView job, resource::AvailabilityProfile& profile) {
  AdmissionDecision decision;
  decision.chainsConsidered = static_cast<int>(job.offeredCount());
  const task::JobShape& shape = job.shape;

  // Earliest-finishing chain, ignoring all deadlines.  Each chain is planned
  // read-only: its tasks run back to back, so a reservation for task k
  // (which ends where task k+1's probe begins) could never change that
  // probe.  Only the winner is reserved.
  std::optional<ChainSchedule> best;
  for (std::size_t c = 0; c < shape.chainCount(); ++c) {
    if (!job.offers(c)) continue;
    const auto tasks = shape.tasks(c);
    ChainSchedule schedule;
    schedule.chainIndex = c;
    Time earliest = job.release;
    bool ok = true;
    resource::FitHint hint;
    for (std::size_t k = job.firstTask(); k < tasks.size(); ++k) {
      const auto& taskSpec = tasks[k];
      const auto start = profile.findEarliestFit(
          earliest, taskSpec.request.duration, taskSpec.request.processors,
          kTimeInfinity, &hint);
      if (!start) {  // only possible if the task exceeds the machine
        ok = false;
        break;
      }
      const TimeInterval iv{*start, *start + taskSpec.request.duration};
      // No guarantee attached: deadline recorded as infinity.
      schedule.placements.push_back(
          TaskPlacement{iv, taskSpec.request.processors, kTimeInfinity});
      earliest = iv.end;
    }
    if (!ok) continue;
    ++decision.chainsSchedulable;
    if (!best || schedule.finishTime() < best->finishTime()) {
      best = std::move(schedule);
    }
  }
  if (!best) return decision;

  for (const auto& p : best->placements) {
    profile.reserve(p.interval, p.processors);
  }
  decision.admitted = true;
  decision.quality = shape.chain(best->chainIndex).quality;
  decision.schedule = std::move(*best);
  return decision;
}

// ---------------------------------------------------------------------------
// ConservativeArbitrator
// ---------------------------------------------------------------------------

// Conservative admission never speculates: each chain is probed with one
// read-only minAvailable over its dedicated block, and only the chosen block
// is reserved, so it needs neither a Trial nor the chain planner.
AdmissionDecision ConservativeArbitrator::admit(
    task::JobView job, resource::AvailabilityProfile& profile) {
  AdmissionDecision decision;
  decision.chainsConsidered = static_cast<int>(job.offeredCount());
  const task::JobShape& shape = job.shape;

  // Order chains by peak demand: the conservative scheduler wants the
  // cheapest block that still guarantees the job.
  std::vector<std::size_t> order;
  order.reserve(shape.chainCount());
  for (std::size_t i = 0; i < shape.chainCount(); ++i) {
    if (job.offers(i)) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return shape.chain(a).maxProcessors < shape.chain(b).maxProcessors;
  });

  for (const std::size_t c : order) {
    const auto tasks = shape.tasks(c).subspan(job.firstTask());
    const int peak = shape.chain(c).maxProcessors;
    const Time lastRelDeadline = tasks.back().relativeDeadline;
    // Without a finite deadline there is no lifetime to dedicate; fall back
    // to the critical path.
    Time criticalPath = 0;
    for (const auto& taskSpec : tasks) criticalPath += taskSpec.request.duration;
    const Time blockEnd = lastRelDeadline >= kTimeInfinity
                              ? job.release + criticalPath
                              : job.absoluteDeadline(lastRelDeadline);
    const TimeInterval block{job.release, blockEnd};
    if (block.empty()) continue;
    if (profile.minAvailable(block) < peak) continue;

    ++decision.chainsSchedulable;
    // Dedicate the peak for the whole block; tasks run back-to-back inside.
    profile.reserve(block, peak);
    ChainSchedule schedule;
    schedule.chainIndex = c;
    Time clock = job.release;
    for (const auto& taskSpec : tasks) {
      const Time deadline = job.absoluteDeadline(taskSpec.relativeDeadline);
      schedule.placements.push_back(TaskPlacement{
          TimeInterval{clock, clock + taskSpec.request.duration},
          taskSpec.request.processors, deadline});
      clock += taskSpec.request.duration;
    }
    // The dedicated block outlives the tasks; account the tail as part of
    // the job's consumption by extending the last placement's hold to the
    // block end at the *peak* width minus what the placements already
    // claim... keeping it simple and honest: placements reflect execution;
    // the conservative scheme's wasted tail shows up as reserved-but-idle
    // capacity in the profile (captured by the utilization metric via the
    // profile, and by `admittedArea` via the block, below).
    TPRM_CHECK(clock <= blockEnd, "conservative block too small");
    decision.admitted = true;
    decision.quality = shape.chain(c).quality;
    decision.schedule = std::move(schedule);
    return decision;
  }
  return decision;
}

}  // namespace tprm::sched
