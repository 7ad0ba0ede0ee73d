// Chains (execution paths) and tunable jobs (OR-sets of chains).
//
// Section 5.1: "a job is now represented by an OR task graph instead of a
// chain ... For uniformity, we assume that all paths through an OR graph have
// been enumerated, so a tunable application is represented by multiple task
// chains."  The tunable DSL (src/tunable) performs that enumeration; the
// scheduler consumes this enumerated form.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "taskmodel/task.h"

namespace tprm::task {

/// How per-task qualities compose into a path quality.
enum class QualityComposition {
  /// Product of task qualities (default; a bad stage degrades the output).
  Multiplicative,
  /// Minimum task quality (weakest-link model).
  Minimum,
};

/// One execution path: a sequence of tasks executed back-to-back, each with a
/// cumulative deadline.
struct Chain {
  std::string name;
  std::vector<TaskSpec> tasks;
  /// Control-parameter assignment realising this path (Section 3.2).  The
  /// scheduler ignores it; it rides along so a remote QoS agent receives the
  /// bindings of the granted path over the wire.  Empty for plain chains.
  std::map<std::string, std::int64_t> bindings;

  /// Total processor-ticks over all tasks.
  [[nodiscard]] std::int64_t totalArea() const;

  /// Sum of task durations (the path's minimum end-to-end running time,
  /// assuming rigid shapes and no queueing).
  [[nodiscard]] Time criticalPathLength() const;

  /// Largest single-task processor request.
  [[nodiscard]] int maxProcessors() const;

  /// Path quality under the given composition rule.
  [[nodiscard]] double quality(
      QualityComposition comp = QualityComposition::Multiplicative) const;

  bool operator==(const Chain&) const = default;
};

/// The heuristic's "fewer total resources for some prefix of their tasks"
/// tie-break (Section 5.2): true iff the cumulative processor-tick prefix
/// areas of `a` (prefix[k] = area of tasks [0, k]) compare lexicographically
/// less than those of `b`.  Walks both chains once without materialising
/// the prefix sequences.
[[nodiscard]] bool prefixAreasLess(const Chain& a, const Chain& b);

/// A tunable job: one of `chains` will be selected and executed.  Non-tunable
/// jobs are the single-chain special case.
struct TunableJobSpec {
  std::string name;
  std::vector<Chain> chains;
  QualityComposition qualityComposition = QualityComposition::Multiplicative;

  [[nodiscard]] bool tunable() const { return chains.size() > 1; }

  bool operator==(const TunableJobSpec&) const = default;
};

/// An arrived instance of a job spec (release time bound) that owns its
/// spec: the simulator's and the figure harnesses' job streams.
struct JobInstance {
  std::uint64_t id = 0;
  Time release = 0;
  TunableJobSpec spec;

  /// Absolute deadline of task `taskIndex` on chain `chainIndex`.
  [[nodiscard]] Time absoluteDeadline(std::size_t chainIndex,
                                      std::size_t taskIndex) const;
};

/// An arrived job as the planner reads it: id and release, with the spec
/// borrowed from the caller.  Planning only reads a job, so admission plans
/// against the caller's spec instead of copying it.  Non-owning: the spec
/// must outlive the view, which callers keep to the duration of one call.
struct JobView {
  std::uint64_t id = 0;
  Time release = 0;
  const TunableJobSpec& spec;

  JobView(std::uint64_t jobId, Time releaseTime, const TunableJobSpec& jobSpec)
      : id(jobId), release(releaseTime), spec(jobSpec) {}
  /// Views an owned instance (implicit: owned streams plan through views).
  JobView(const JobInstance& job)  // NOLINT(runtime/explicit)
      : id(job.id), release(job.release), spec(job.spec) {}

  /// Absolute deadline of task `taskIndex` on chain `chainIndex`.
  [[nodiscard]] Time absoluteDeadline(std::size_t chainIndex,
                                      std::size_t taskIndex) const;
};

/// Structural validation failure descriptions; empty means the spec is valid.
///
/// Checks: at least one chain; every chain non-empty; positive processor
/// counts and durations; qualities in [0, 1]; malleable specs consistent
/// (work > 0, maxConcurrency >= shape processors); per-chain relative
/// deadlines non-decreasing (a task's deadline covers its predecessors, so a
/// decreasing deadline would be vacuous); every chain feasible in isolation
/// (critical path fits within the last deadline).
[[nodiscard]] std::vector<std::string> validate(const TunableJobSpec& spec);

/// Admission bound for specs from untrusted input (the wire): every task's
/// area (processors x duration; a malleable task's whole work), every
/// chain's total area, and release + every chain's critical path stay at
/// or below this many ticks.  2^50 ticks is about 1.1e9 paper units, far
/// beyond any real reservation, and keeps the arbitrator's int64 area and
/// time arithmetic exact: ResourceRequest::area, ChainSchedule::area, chain
/// sums, and the ledger's running area total, which stays below 2^63 for
/// 2^13 admissions at the bound.  Valid ticks alone (up to kTimeInfinity)
/// do not: 8 processors x 2e18 ticks overflows.
inline constexpr std::int64_t kMaxAdmissionTicks = std::int64_t{1} << 50;

/// Empty when `spec`, released at `release`, is within kMaxAdmissionTicks;
/// otherwise a message naming the first offending task.
[[nodiscard]] std::string admissionBoundError(const TunableJobSpec& spec,
                                              Time release);

}  // namespace tprm::task
