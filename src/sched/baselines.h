// The two traditional resource-management approaches the paper positions
// itself against (Section 1):
//
//  * Parallel systems "focus primarily on improving application performance
//    and/or system utilization at the cost of providing only best effort
//    guarantees ... a specific application can experience arbitrary delay".
//    -> BestEffortArbitrator: admits everything, packs tasks at the
//    earliest fit with no deadline checks, makes no guarantee.  Whether a
//    job met its deadline is only known after the fact (the simulator
//    counts it).
//
//  * Real-time systems "provide predictable guarantees ... by being overly
//    conservative, ensuring that enough resources are available for each
//    application ... admission control is used to ensure an underloaded
//    system".
//    -> ConservativeArbitrator: admits a job only if its PEAK processor
//    demand can be dedicated to it for its whole lifetime (release to final
//    deadline).  Deadlines are trivially guaranteed; utilization suffers.
//
// Both run against the same availability profile and simulator as the
// paper's reservation-based greedy heuristic, so `bench/abl_approaches` can
// reproduce the introduction's qualitative comparison.
#pragma once

#include "sched/arbitrator.h"

namespace tprm::sched {

/// Best-effort space-sharing scheduler: every job is accepted; each task is
/// placed at its earliest fit after its predecessor with NO deadline
/// constraint.  For tunable jobs the earliest-finishing chain is used.
/// Placements carry `deadline = kTimeInfinity` because no guarantee is
/// given; the simulator judges timeliness against the job's declared
/// deadlines after the fact.
class BestEffortArbitrator final : public Arbitrator {
 public:
  AdmissionDecision admit(task::JobView job,
                          resource::AvailabilityProfile& profile) override;
  [[nodiscard]] std::string name() const override { return "best-effort"; }
};

/// Conservative real-time admission control: a job is admitted iff its peak
/// processor demand fits *continuously* from its release to its final
/// absolute deadline (dedicated processors for the whole lifetime, the
/// no-knowledge worst case).  Tasks then run back-to-back inside the
/// dedicated block.  For tunable jobs the chain with the smallest peak
/// demand that fits is chosen.
class ConservativeArbitrator final : public Arbitrator {
 public:
  AdmissionDecision admit(task::JobView job,
                          resource::AvailabilityProfile& profile) override;
  [[nodiscard]] std::string name() const override { return "conservative"; }
};

}  // namespace tprm::sched
