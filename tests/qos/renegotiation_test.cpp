// Tests for the Section-3 renegotiation path: the arbitrator reacts to a
// change in resource level (fault shrinks the machine, recovery grows it)
// by re-placing, reconfiguring, or dropping live commitments.
#include <gtest/gtest.h>

#include <algorithm>

#include "qos/qos.h"

namespace tprm::qos {
namespace {

using task::Chain;
using task::TaskSpec;
using task::TunableJobSpec;

TunableJobSpec rigidJob(int procs, double durationUnits,
                        double deadlineUnits) {
  TunableJobSpec spec;
  spec.name = "rigid";
  Chain chain;
  chain.name = "only";
  chain.tasks = {TaskSpec::rigid("t", procs, ticksFromUnits(durationUnits),
                                 ticksFromUnits(deadlineUnits))};
  spec.chains = {chain};
  return spec;
}

TunableJobSpec tunableTwoShape(double deadlineUnits = 400.0) {
  // Wide-first (8p x 20 then 2p x 80) OR thin-first (2p x 80 then 8p x 20).
  TunableJobSpec spec;
  spec.name = "tun";
  Chain a;
  a.name = "wide-first";
  a.tasks = {TaskSpec::rigid("w", 8, ticksFromUnits(20.0),
                             ticksFromUnits(deadlineUnits)),
             TaskSpec::rigid("n", 2, ticksFromUnits(80.0),
                             ticksFromUnits(deadlineUnits))};
  Chain b;
  b.name = "thin-first";
  b.tasks = {TaskSpec::rigid("n", 2, ticksFromUnits(80.0),
                             ticksFromUnits(deadlineUnits)),
             TaskSpec::rigid("w", 8, ticksFromUnits(20.0),
                             ticksFromUnits(deadlineUnits))};
  spec.chains = {a, b};
  return spec;
}

bool contains(const std::vector<std::uint64_t>& v, std::uint64_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

TEST(Renegotiation, GrowingKeepsEverything) {
  QoSArbitrator arbitrator(8);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(arbitrator.submit(rigidJob(4, 30.0, 500.0), 0).admitted);
  }
  const auto report = arbitrator.resize(16, ticksFromUnits(5.0));
  EXPECT_EQ(report.processorsBefore, 8);
  EXPECT_EQ(report.processorsAfter, 16);
  EXPECT_TRUE(report.dropped.empty());
  // Everything fits verbatim on the bigger machine.
  EXPECT_EQ(report.kept.size() + report.reconfigured.size(), 3u);
  EXPECT_TRUE(arbitrator.verify().ok);
}

TEST(Renegotiation, GrowthAllowsNewAdmissions) {
  QoSArbitrator arbitrator(4);
  // A 8-processor job cannot run on 4 processors.
  EXPECT_FALSE(arbitrator.submit(rigidJob(8, 10.0, 100.0), 0).admitted);
  (void)arbitrator.resize(16, ticksFromUnits(1.0));
  EXPECT_TRUE(
      arbitrator.submit(rigidJob(8, 10.0, 100.0), ticksFromUnits(1.0))
          .admitted);
  EXPECT_TRUE(arbitrator.verify().ok);
}

TEST(Renegotiation, ShrinkRepacksFutureWork) {
  QoSArbitrator arbitrator(16);
  // Two 4-processor jobs scheduled side by side; after shrinking to 8 they
  // still fit (possibly staggered).
  ASSERT_TRUE(arbitrator.submit(rigidJob(4, 30.0, 500.0), 0).admitted);
  ASSERT_TRUE(arbitrator.submit(rigidJob(4, 30.0, 500.0), 0).admitted);
  const auto report = arbitrator.resize(8, 0);
  EXPECT_TRUE(report.dropped.empty());
  EXPECT_TRUE(arbitrator.verify().ok) << arbitrator.verify().firstViolation;
}

TEST(Renegotiation, ShrinkDropsWhatCannotFit) {
  QoSArbitrator arbitrator(16);
  // A job that needs 12 processors can never run on 8.
  ASSERT_TRUE(
      arbitrator.submit(rigidJob(12, 30.0, 500.0), 0).admitted);
  const auto jobId = arbitrator.lastJobId().value();
  // Resize before it starts... it starts at 0; resize at 0 pins the running
  // task; 12 > 8 -> dropped.
  const auto report = arbitrator.resize(8, 0);
  EXPECT_TRUE(contains(report.dropped, jobId));
  EXPECT_TRUE(arbitrator.verify().ok);
}

TEST(Renegotiation, RunningTaskPinnedWhenItFits) {
  QoSArbitrator arbitrator(16);
  ASSERT_TRUE(arbitrator.submit(rigidJob(6, 30.0, 500.0), 0).admitted);
  const auto jobId = arbitrator.lastJobId().value();
  // Mid-execution shrink to 8: the running 6-processor task fits and must
  // not move.
  const auto report = arbitrator.resize(8, ticksFromUnits(10.0));
  EXPECT_TRUE(contains(report.kept, jobId));
  EXPECT_TRUE(report.dropped.empty());
  // The profile shows the pinned task holding 6 processors until t=30.
  EXPECT_EQ(arbitrator.profile().availableAt(ticksFromUnits(20.0)), 2);
  EXPECT_EQ(arbitrator.profile().availableAt(ticksFromUnits(31.0)), 8);
  EXPECT_TRUE(arbitrator.verify().ok);
}

TEST(Renegotiation, NotYetStartedJobMaySwitchChain) {
  QoSArbitrator arbitrator(16);
  // Filler A holds 8 processors for [0, 100); filler B holds the other 8
  // for [0, 10).  The tunable job is therefore scheduled entirely in the
  // future (wide-first: 8p over [10, 30), 2p over [30, 110)).
  ASSERT_TRUE(arbitrator.submit(rigidJob(8, 100.0, 1000.0), 0).admitted);
  ASSERT_TRUE(arbitrator.submit(rigidJob(8, 10.0, 1000.0), 0).admitted);
  const auto decision = arbitrator.submit(tunableTwoShape(), 0);
  ASSERT_TRUE(decision.admitted);
  const auto tunId = arbitrator.lastJobId().value();
  EXPECT_EQ(decision.schedule.chainIndex, 0u);  // wide-first on the tie
  EXPECT_GE(decision.schedule.placements[0].interval.begin,
            ticksFromUnits(10.0));

  // Shrink to 10 at t=1: filler A's running task is pinned (8 <= 10), which
  // starves filler B (dropped).  The tunable job's verbatim placement (8
  // processors at t=10) no longer fits before t=100, so it renegotiates —
  // and because nothing of it has started, it may switch to the thin-first
  // chain, whose 2-processor task starts immediately.
  const auto report = arbitrator.resize(10, ticksFromUnits(1.0));
  EXPECT_FALSE(contains(report.dropped, tunId));
  EXPECT_TRUE(contains(report.reconfigured, tunId));
  EXPECT_TRUE(arbitrator.verify().ok) << arbitrator.verify().firstViolation;
  // Evidence of the switch: the thin 2-processor task now occupies the only
  // free capacity right after the resize.
  EXPECT_EQ(arbitrator.profile().availableAt(ticksFromUnits(2.0)), 0);
}

TEST(Renegotiation, PartiallyExecutedJobKeepsItsChainSuffix) {
  QoSArbitrator arbitrator(16);
  const auto decision = arbitrator.submit(tunableTwoShape(), 0);
  ASSERT_TRUE(decision.admitted);
  const auto tunId = arbitrator.lastJobId().value();
  ASSERT_EQ(decision.schedule.placements.size(), 2u);
  const Time firstEnd = decision.schedule.placements[0].interval.end;

  // Resize while task 0 runs: the remaining task must be re-placed after
  // task 0's end, on the same chain.
  const auto report = arbitrator.resize(12, firstEnd / 2);
  EXPECT_FALSE(contains(report.dropped, tunId));
  EXPECT_TRUE(arbitrator.verify().ok) << arbitrator.verify().firstViolation;
}

TEST(Renegotiation, DeadlinePassedMeansDrop) {
  QoSArbitrator arbitrator(16);
  // Tight deadline: duration 30, deadline 35.
  ASSERT_TRUE(arbitrator.submit(rigidJob(12, 30.0, 35.0), 0).admitted);
  const auto jobId = arbitrator.lastJobId().value();
  // The machine loses capacity right away; the running task can't be pinned
  // (12 > 8) and a restart cannot meet the deadline either.
  const auto report = arbitrator.resize(8, ticksFromUnits(1.0));
  EXPECT_TRUE(contains(report.dropped, jobId));
}

TEST(Renegotiation, RepeatedResizesStayConsistent) {
  QoSArbitrator arbitrator(16);
  Time clock = 0;
  std::uint64_t submitted = 0;
  for (int round = 0; round < 6; ++round) {
    for (int j = 0; j < 4; ++j) {
      (void)arbitrator.submit(rigidJob(2 + j, 20.0, 300.0), clock);
      ++submitted;
    }
    clock += ticksFromUnits(15.0);
    const int newSize = (round % 2 == 0) ? 10 : 16;
    (void)arbitrator.resize(newSize, clock);
  }
  EXPECT_EQ(arbitrator.admittedCount() + arbitrator.rejectedCount(),
            submitted);
  const auto report = arbitrator.verify();
  EXPECT_TRUE(report.ok) << report.firstViolation;
}

// Regression: resize used to drop a not-yet-started multi-path job whenever
// *any* chain's rebased deadline died, even though other execution paths
// still fit — the exact freedom tunability exists to exploit.
TEST(Renegotiation, SurvivingChainKeepsJobAliveWhenPreferredPathDies) {
  QoSArbitrator arbitrator(16);
  // Filler A runs 8p over [0, 100); filler B takes the other 8 over [0, 5),
  // so everything else lands at t=5.
  ASSERT_TRUE(arbitrator.submit(rigidJob(8, 100.0, 1000.0), 0).admitted);
  ASSERT_TRUE(arbitrator.submit(rigidJob(8, 5.0, 1000.0), 0).admitted);
  // Two-path job: the preferred chain (8p x 20) lands at [5, 25), finishing
  // exactly at its absolute deadline 25; the alternative (2p x 30) has slack
  // to spare but finishes later, so it loses the earliest-finish tie-break.
  TunableJobSpec spec;
  spec.name = "two-path";
  Chain pref;
  pref.name = "pref";
  pref.tasks = {TaskSpec::rigid("p", 8, ticksFromUnits(20.0),
                                ticksFromUnits(25.0))};
  Chain alt;
  alt.name = "alt";
  alt.tasks = {TaskSpec::rigid("a", 2, ticksFromUnits(30.0),
                               ticksFromUnits(500.0))};
  spec.chains = {pref, alt};
  const auto decision = arbitrator.submit(spec, 0);
  ASSERT_TRUE(decision.admitted);
  EXPECT_EQ(decision.schedule.chainIndex, 0u);
  ASSERT_EQ(decision.schedule.placements[0].interval.begin,
            ticksFromUnits(5.0));
  const auto jobId = arbitrator.lastJobId().value();

  // Shrink to 10 at t=5: filler A's running task is pinned (8 of 10) and the
  // job's placement starts exactly at the resize instant, so the whole spec
  // renegotiates.  Rebasing kills the preferred chain (it can no longer beat
  // its deadline) — but the alternative still fits and must keep the job
  // alive on the two free processors.
  const auto report = arbitrator.resize(10, ticksFromUnits(5.0));
  EXPECT_FALSE(contains(report.dropped, jobId));
  EXPECT_TRUE(contains(report.reconfigured, jobId));
  EXPECT_TRUE(arbitrator.verify().ok) << arbitrator.verify().firstViolation;
  bool sawJob = false;
  for (const auto& r : arbitrator.ledger().reservations()) {
    if (r.jobId != jobId) continue;
    EXPECT_EQ(r.chainIndex, 1);  // switched to the surviving chain
    sawJob = true;
  }
  EXPECT_TRUE(sawJob);
  EXPECT_EQ(arbitrator.profile().availableAt(ticksFromUnits(6.0)), 0);
}

TEST(Renegotiation, JobDroppedOnlyWhenEveryChainDies) {
  QoSArbitrator arbitrator(16);
  ASSERT_TRUE(arbitrator.submit(rigidJob(8, 100.0, 1000.0), 0).admitted);
  ASSERT_TRUE(arbitrator.submit(rigidJob(8, 5.0, 1000.0), 0).admitted);
  // Same shape as above, but the alternative chain's deadline is also too
  // tight to survive the rebase (it would finish at 35, after 34).
  TunableJobSpec spec;
  spec.name = "two-path-doomed";
  Chain pref;
  pref.name = "pref";
  pref.tasks = {TaskSpec::rigid("p", 8, ticksFromUnits(20.0),
                                ticksFromUnits(25.0))};
  Chain alt;
  alt.name = "alt";
  alt.tasks = {TaskSpec::rigid("a", 2, ticksFromUnits(30.0),
                               ticksFromUnits(34.0))};
  spec.chains = {pref, alt};
  ASSERT_TRUE(arbitrator.submit(spec, 0).admitted);
  const auto jobId = arbitrator.lastJobId().value();

  const auto report = arbitrator.resize(10, ticksFromUnits(5.0));
  EXPECT_TRUE(contains(report.dropped, jobId));
  EXPECT_TRUE(arbitrator.verify().ok) << arbitrator.verify().firstViolation;
}

// Regression: cancel used to clip reservations to [clock, end) and release
// the remainder of a *currently running* task, contradicting both the
// documented "not-yet-started reservations" semantics and resize's
// non-preemptibility rule — later admissions could double-book the running
// task's processors.
TEST(Renegotiation, CancelKeepsRunningTaskReserved) {
  QoSArbitrator arbitrator(4);
  TunableJobSpec spec;
  spec.name = "two-task";
  Chain chain;
  chain.name = "only";
  chain.tasks = {TaskSpec::rigid("t0", 2, ticksFromUnits(20.0),
                                 ticksFromUnits(1000.0)),
                 TaskSpec::rigid("t1", 2, ticksFromUnits(20.0),
                                 ticksFromUnits(1000.0))};
  spec.chains = {chain};
  ASSERT_TRUE(arbitrator.submit(spec, 0).admitted);
  const auto jobId = arbitrator.lastJobId().value();
  // Advance the clock mid task 0 with a tiny unrelated admission.
  ASSERT_TRUE(
      arbitrator.submit(rigidJob(1, 1.0, 1000.0), ticksFromUnits(10.0))
          .admitted);

  // Only task 1's not-yet-started reservation comes back; the running task 0
  // keeps its two processors through t=20.
  const auto freed = arbitrator.cancel(jobId);
  EXPECT_EQ(freed, 2 * ticksFromUnits(20.0));
  EXPECT_EQ(arbitrator.profile().availableAt(ticksFromUnits(15.0)), 2);
  EXPECT_EQ(arbitrator.profile().availableAt(ticksFromUnits(25.0)), 4);

  // A full-machine job must therefore wait for the running task to finish;
  // were its capacity re-issued, the ledger would flag the overlap.
  const auto wide =
      arbitrator.submit(rigidJob(4, 5.0, 1000.0), ticksFromUnits(12.0));
  ASSERT_TRUE(wide.admitted);
  EXPECT_EQ(wide.schedule.placements[0].interval.begin, ticksFromUnits(20.0));
  EXPECT_TRUE(arbitrator.verify().ok) << arbitrator.verify().firstViolation;
}

// Regression: resize phase 1 used to ledger the pinned running-task
// remainder as taskIndex 0 regardless of which task was actually running.
TEST(Renegotiation, PinnedRunningTaskKeepsItsTaskIndex) {
  QoSArbitrator arbitrator(8);
  TunableJobSpec spec;
  spec.name = "three-task";
  Chain chain;
  chain.name = "only";
  chain.tasks = {TaskSpec::rigid("t0", 2, ticksFromUnits(10.0),
                                 ticksFromUnits(1000.0)),
                 TaskSpec::rigid("t1", 4, ticksFromUnits(10.0),
                                 ticksFromUnits(1000.0)),
                 TaskSpec::rigid("t2", 2, ticksFromUnits(10.0),
                                 ticksFromUnits(1000.0))};
  spec.chains = {chain};
  ASSERT_TRUE(arbitrator.submit(spec, 0).admitted);
  const auto jobId = arbitrator.lastJobId().value();

  // Resize while task 1 runs ([10, 20)): phase 1 pins its remainder, and the
  // untouched future task 2 is kept verbatim.
  const auto report = arbitrator.resize(8, ticksFromUnits(15.0));
  EXPECT_TRUE(contains(report.kept, jobId));
  std::vector<int> indices;
  for (const auto& r : arbitrator.ledger().reservations()) {
    if (r.jobId == jobId) indices.push_back(r.taskIndex);
  }
  std::sort(indices.begin(), indices.end());
  EXPECT_EQ(indices, (std::vector<int>{1, 2}));
  EXPECT_TRUE(arbitrator.verify().ok) << arbitrator.verify().firstViolation;
}

TEST(RenegotiationDeath, InvalidArguments) {
  QoSArbitrator arbitrator(8);
  EXPECT_DEATH((void)arbitrator.resize(0, 0), "at least one");
  (void)arbitrator.submit(rigidJob(2, 10.0, 100.0), ticksFromUnits(10.0));
  EXPECT_DEATH((void)arbitrator.resize(8, 0), "past");
}

// A job re-placed over all of its chains keeps its spec's quality
// composition: reconfigured onto the chain it was admitted on, it is at its
// admitted quality (the chain's minimum task quality), not at the product
// of its task qualities, so it is not demoted.
TEST(Renegotiation, ReconfiguredJobKeepsItsQualityComposition) {
  sched::GreedyOptions options;
  options.chainChoice = sched::ChainChoice::QualityFirst;
  QoSArbitrator arbitrator(8, options);
  ASSERT_TRUE(arbitrator.submit(rigidJob(4, 100.0, 1000.0), 0).admitted);

  TunableJobSpec spec;
  spec.name = "weakest-link";
  spec.qualityComposition = task::QualityComposition::Minimum;
  Chain staged;
  staged.name = "staged";
  staged.tasks = {
      TaskSpec::rigid("a", 4, ticksFromUnits(10.0), ticksFromUnits(1000.0),
                      0.9),
      TaskSpec::rigid("b", 4, ticksFromUnits(10.0), ticksFromUnits(1000.0),
                      0.8)};
  Chain lean;
  lean.name = "lean";
  lean.tasks = {TaskSpec::rigid("c", 2, ticksFromUnits(50.0),
                                ticksFromUnits(1000.0), 0.5)};
  spec.chains = {staged, lean};
  const auto admitted = arbitrator.submit(spec, 0);
  ASSERT_TRUE(admitted.admitted);
  ASSERT_EQ(admitted.schedule.chainIndex, 0u);
  ASSERT_EQ(admitted.quality, 0.8);
  const std::uint64_t id = *arbitrator.lastJobId();

  // Six processors: the staged chain no longer fits beside the first job
  // where it was, so the job is re-placed, on the staged chain again.
  const auto report = arbitrator.resize(6, 0);
  ASSERT_EQ(report.reconfigured, std::vector<std::uint64_t>{id});
  EXPECT_TRUE(arbitrator.elasticCandidates(/*demotedOnly=*/true).empty());
  const auto candidates = arbitrator.elasticCandidates(false);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].jobId, id);
  EXPECT_EQ(candidates[0].chainIndex, 0u);
  EXPECT_EQ(candidates[0].quality, 0.8);
  EXPECT_TRUE(arbitrator.verify().ok);
}

}  // namespace
}  // namespace tprm::qos
