// The paper's greedy scheduling heuristic (Section 5.2) and its malleable
// variant (Section 5.4).
//
// For each chain of the job, tasks are placed one by one at the earliest
// start that fits their processor request into the availability profile
// ("first fit" into the maximal holes of the processor-time plane) subject to
// the task's absolute deadline and its predecessor's finish time.  Among the
// chains that fit, the heuristic picks the one with the earliest finish time;
// ties go to the chain that maximizes system utilization over the window
// [release, finish], then to the chain with lexicographically smaller
// cumulative resource prefix ("fewer total resources for some prefix of
// their tasks").
//
// With `malleable = true`, each task is additionally free to run on any
// q in [1, degreeOfConcurrency] processors with linearly scaled duration; the
// heuristic tries q from the highest value downward and keeps the placement
// that finishes earliest (ties to more processors, i.e. the first tried).
//
// Plan, then commit.  Each chain is planned read-only against the profile:
// a chain's tasks run back to back (task k+1 starts no earlier than task k
// ends), and a reservation over [begin_k, end_k) leaves the availability
// from end_k onward untouched, so reserving task k could never change the
// probe for task k+1.  Nothing is reserved until the winner is known, the
// chain's probes share one FitHint that stays valid across them, and only
// the winner is reserved.  The job is read through a task::JobView that
// borrows the caller's spec, so planning copies nothing (the simulator's
// owned JobInstance streams convert to the same view: one planner path).
// AvailabilityProfile::Trial remains for composed speculation (elastic
// shrink-then-admit, resize, gang, and DAG placement, whose sibling tasks
// overlap in time).
#pragma once

#include <optional>

#include "common/rng.h"
#include "sched/arbitrator.h"

namespace tprm::obs {
struct ArbitratorMetrics;  // obs/metrics.h; nullable observation hook
}  // namespace tprm::obs

namespace tprm::sched {

/// Chain-selection rule among schedulable chains.
enum class ChainChoice {
  /// Paper heuristic: earliest finish, then window utilization, then smaller
  /// resource prefix.  (Section 5.2 states the heuristic "finds the job
  /// configuration which achieves the earliest finish time".)
  Paper,
  /// Alternative reading of Section 5.2 ("the one that most efficiently uses
  /// the system"): maximize utilization over [release, finish] as the primary
  /// criterion, then earliest finish, then smaller resource prefix.
  WindowUtilization,
  /// Take the first schedulable chain in declaration order (ablation).
  FirstSchedulable,
  /// Uniformly random schedulable chain (ablation).
  Random,
  /// Maximize achieved job quality first (Section 5.1: with unequal-quality
  /// chains "the issue then is of maximizing the achieved job quality"),
  /// breaking quality ties with the paper rule.
  QualityFirst,
};

/// How a malleable task picks its processor count (Section 5.4: the
/// heuristic "tries various configurations of the task, starting from the
/// highest number of processors the task can use").
enum class MalleablePolicy {
  /// Literal reading: walk q from the degree of concurrency downward and
  /// take the first configuration that is schedulable within the deadline.
  WidestFit,
  /// Alternative reading: evaluate every q and keep the placement with the
  /// earliest finish time (ties to the configuration tried first, i.e. the
  /// widest).
  EarliestFinish,
};

/// Per-task placement rule within a chain (ablation hook).
enum class FitPolicy {
  /// Earliest feasible start (the paper's first fit).
  FirstFit,
  /// Among feasible starts at hole boundaries, minimize leftover capacity in
  /// the hole the task lands in ("best fit"; ablation only, slower).
  BestFit,
};

/// Options for GreedyArbitrator.
struct GreedyOptions {
  /// Treat tasks with a MalleableSpec as malleable (Section 5.4).  Tasks
  /// without a MalleableSpec are always placed rigidly.
  bool malleable = false;
  ChainChoice chainChoice = ChainChoice::Paper;
  MalleablePolicy malleablePolicy = MalleablePolicy::WidestFit;
  FitPolicy fitPolicy = FitPolicy::FirstFit;
  /// Seed for ChainChoice::Random (unused — and never materialised — by the
  /// deterministic chain choices).
  std::uint64_t seed = 1;
};

/// Greedy first-fit arbitrator over availability holes.
class GreedyArbitrator final : public Arbitrator {
 public:
  explicit GreedyArbitrator(GreedyOptions options = {});

  AdmissionDecision admit(task::JobView job,
                          resource::AvailabilityProfile& profile) override;

  /// The admission heuristic run inside a caller-owned Trial scope: plans
  /// every chain read-only, and on success leaves the winner's reservations
  /// *pending in the trial log* — the caller decides whether to commit.  On
  /// rejection the profile is untouched.  This is the composition point for
  /// elastic renegotiation, which stacks a victim shrink and a newcomer
  /// admission inside one trial; `admit()` is the same walk with the winner
  /// reserved directly.
  AdmissionDecision admitInTrial(task::JobView job,
                                 resource::AvailabilityProfile& profile,
                                 resource::AvailabilityProfile::Trial& trial);

  [[nodiscard]] std::string name() const override;

  /// Plans one chain read-only against `profile`.  Returns the schedule iff
  /// every task fits within its deadline.  Exposed for tests and for the
  /// ablation benches.
  [[nodiscard]] std::optional<ChainSchedule> tryChain(
      task::JobView job, std::size_t chainIndex,
      const resource::AvailabilityProfile& profile) const;

  /// Attaches (or with nullptr detaches) admission counters: chains
  /// evaluated/schedulable, jobs admitted/rejected.  Observation only —
  /// never consulted by any decision.
  void attachMetrics(obs::ArbitratorMetrics* metrics) { metrics_ = metrics; }
  [[nodiscard]] obs::ArbitratorMetrics* metrics() const { return metrics_; }

 private:
  /// Picks the winning chain without touching `profile`; on admission the
  /// decision's schedule is the winner's plan, not yet reserved.
  [[nodiscard]] AdmissionDecision choose(
      task::JobView job, const resource::AvailabilityProfile& profile);

  /// Plans chain `chainIndex` into `out` (placements replaced).  Returns
  /// true iff every task fits within its deadline.  The chain's probes share
  /// one FitHint: the profile does not change between them.
  bool planChain(task::JobView job, std::size_t chainIndex,
                 const resource::AvailabilityProfile& profile,
                 ChainSchedule& out) const;

  /// Places a single task at/after `earliest`; returns placement or nullopt.
  /// `hint` is the chain's shared FitHint (the malleable q-downward search
  /// probes the same `earliest` up to degreeOfConcurrency times).
  [[nodiscard]] std::optional<TaskPlacement> placeTask(
      const task::TaskSpec& taskSpec, Time earliest, Time deadline,
      const resource::AvailabilityProfile& profile,
      resource::FitHint* hint) const;

  GreedyOptions options_;
  /// Materialised on first use by ChainChoice::Random; deterministic chain
  /// choices never construct (or reseed) it.
  std::optional<Rng> rng_;
  obs::ArbitratorMetrics* metrics_ = nullptr;  // nullable observation hook
  /// Placement buffers reused across admissions: the chain being planned
  /// and the best chain so far.
  ChainSchedule plan_;
  ChainSchedule best_;
};

}  // namespace tprm::sched
