// Arbitrator interface: admission control + chain selection + placement.
//
// The QoS arbitrator (Section 3.1) receives, at job arrival, the set of
// alternative execution paths (chains) a job can take, decides whether the
// job can be admitted at all, and if so which chain to run and exactly when
// each task will hold which processors.  Decisions are reservations: once a
// job is admitted its deadline is guaranteed (the system is fault-free and
// non-preemptive in the paper's evaluation model).
#pragma once

#include <string>
#include <vector>

#include "common/time.h"
#include "resource/availability_profile.h"
#include "taskmodel/chain.h"

namespace tprm::sched {

/// Placement of one task: which interval it holds `processors` processors.
struct TaskPlacement {
  TimeInterval interval;
  int processors = 0;
  /// Absolute deadline the placement had to meet (for auditing).
  Time deadline = kTimeInfinity;

  constexpr bool operator==(const TaskPlacement&) const = default;
};

/// A fully placed chain.
struct ChainSchedule {
  /// Which of the job's chains was selected.
  std::size_t chainIndex = 0;
  std::vector<TaskPlacement> placements;

  /// Completion time of the last task (0 for an empty schedule).
  [[nodiscard]] Time finishTime() const {
    return placements.empty() ? 0 : placements.back().interval.end;
  }
  /// Total reserved processor-ticks.
  [[nodiscard]] std::int64_t area() const {
    std::int64_t a = 0;
    for (const auto& p : placements) {
      a += static_cast<std::int64_t>(p.processors) * p.interval.length();
    }
    return a;
  }
};

/// Outcome of one admission attempt.
struct AdmissionDecision {
  /// True iff the job was admitted (some chain fit all its deadlines).
  bool admitted = false;
  /// Valid iff admitted.
  ChainSchedule schedule;
  /// Quality of the selected chain (0 if rejected).
  double quality = 0.0;
  /// Diagnostics: how many chains were evaluated / were schedulable.
  int chainsConsidered = 0;
  int chainsSchedulable = 0;
};

/// Abstract QoS arbitrator.  `admit` must be transactional: on rejection the
/// profile is left untouched; on admission exactly the returned placements
/// have been reserved.
class Arbitrator {
 public:
  virtual ~Arbitrator() = default;

  /// Attempts to admit `job` against `profile` (the machine's committed
  /// reservations).  On success, reserves the chosen placements in `profile`.
  /// `job` borrows the caller's spec for the call; nothing keeps it after.
  virtual AdmissionDecision admit(task::JobView job,
                                  resource::AvailabilityProfile& profile) = 0;

  /// Short identifier for reports, e.g. "greedy-paper".
  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace tprm::sched
