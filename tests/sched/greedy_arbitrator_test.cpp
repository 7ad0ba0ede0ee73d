#include "sched/greedy_arbitrator.h"

#include <gtest/gtest.h>

#include "taskmodel/chain.h"

namespace tprm::sched {
namespace {

using task::Chain;
using task::JobInstance;
using task::TaskSpec;
using task::TunableJobSpec;

JobInstance singleTaskJob(int procs, Time duration, Time relDeadline,
                          Time release = 0) {
  JobInstance job;
  job.release = release;
  Chain chain;
  chain.name = "only";
  chain.tasks = {TaskSpec::rigid("t", procs, duration, relDeadline)};
  job.spec.name = "single";
  job.spec.chains = {chain};
  return job;
}

JobInstance fig4StyleJob(Time release, Time relD1, Time relD2) {
  // Two chains transposing a wide (4p x 10) and a thin (1p x 40) task.
  JobInstance job;
  job.release = release;
  Chain shape1;
  shape1.name = "shape1";
  shape1.tasks = {TaskSpec::rigid("wide", 4, 10, relD1),
                  TaskSpec::rigid("thin", 1, 40, relD2)};
  Chain shape2;
  shape2.name = "shape2";
  shape2.tasks = {TaskSpec::rigid("thin", 1, 40, relD1),
                  TaskSpec::rigid("wide", 4, 10, relD2)};
  job.spec.name = "fig4ish";
  job.spec.chains = {shape1, shape2};
  return job;
}

TEST(GreedyArbitrator, AdmitsTrivialJobOnEmptyMachine) {
  GreedyArbitrator arb;
  resource::AvailabilityProfile profile(4);
  const auto d = arb.admit(singleTaskJob(4, 10, 100), profile);
  ASSERT_TRUE(d.admitted);
  ASSERT_EQ(d.schedule.placements.size(), 1u);
  EXPECT_EQ(d.schedule.placements[0].interval, (TimeInterval{0, 10}));
  EXPECT_EQ(d.schedule.placements[0].processors, 4);
  EXPECT_EQ(d.chainsConsidered, 1);
  EXPECT_EQ(d.chainsSchedulable, 1);
  EXPECT_DOUBLE_EQ(d.quality, 1.0);
  // The reservation is committed.
  EXPECT_EQ(profile.availableAt(5), 0);
}

TEST(GreedyArbitrator, RejectsWhenDeadlineImpossible) {
  GreedyArbitrator arb;
  resource::AvailabilityProfile profile(4);
  profile.reserve(TimeInterval{0, 95}, 4);  // machine busy until 95
  const auto d = arb.admit(singleTaskJob(4, 10, 100), profile);
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.chainsSchedulable, 0);
  // Transactional: the profile is untouched beyond the pre-existing load.
  EXPECT_EQ(profile.availableAt(95), 4);
  EXPECT_EQ(profile.busyProcessorTicks(TimeInterval{0, 200}), 4 * 95);
}

TEST(GreedyArbitrator, RejectsOversizedTask) {
  GreedyArbitrator arb;
  resource::AvailabilityProfile profile(4);
  const auto d = arb.admit(singleTaskJob(5, 10, kTimeInfinity), profile);
  EXPECT_FALSE(d.admitted);
}

TEST(GreedyArbitrator, PlacesTaskAfterBusyPrefix) {
  GreedyArbitrator arb;
  resource::AvailabilityProfile profile(4);
  profile.reserve(TimeInterval{0, 20}, 2);
  const auto d = arb.admit(singleTaskJob(3, 10, 100), profile);
  ASSERT_TRUE(d.admitted);
  EXPECT_EQ(d.schedule.placements[0].interval.begin, 20);
}

TEST(GreedyArbitrator, ChainTasksRespectPrecedence) {
  GreedyArbitrator arb;
  resource::AvailabilityProfile profile(4);
  JobInstance job;
  job.release = 5;
  Chain chain;
  chain.tasks = {TaskSpec::rigid("a", 2, 10, 100),
                 TaskSpec::rigid("b", 2, 10, 100)};
  job.spec.chains = {chain};
  const auto d = arb.admit(job, profile);
  ASSERT_TRUE(d.admitted);
  EXPECT_EQ(d.schedule.placements[0].interval, (TimeInterval{5, 15}));
  EXPECT_EQ(d.schedule.placements[1].interval, (TimeInterval{15, 25}));
}

TEST(GreedyArbitrator, SecondTaskWaitsForHole) {
  GreedyArbitrator arb;
  resource::AvailabilityProfile profile(4);
  // 3 processors busy over [10, 30): task b (2p) can't run there.
  profile.reserve(TimeInterval{10, 30}, 3);
  JobInstance job;
  Chain chain;
  chain.tasks = {TaskSpec::rigid("a", 1, 10, 100),
                 TaskSpec::rigid("b", 2, 10, 100)};
  job.spec.chains = {chain};
  const auto d = arb.admit(job, profile);
  ASSERT_TRUE(d.admitted);
  EXPECT_EQ(d.schedule.placements[0].interval, (TimeInterval{0, 10}));
  EXPECT_EQ(d.schedule.placements[1].interval.begin, 30);
}

TEST(GreedyArbitrator, WholeChainRejectedIfAnyTaskMissesDeadline) {
  GreedyArbitrator arb;
  resource::AvailabilityProfile profile(4);
  profile.reserve(TimeInterval{10, 50}, 4);
  JobInstance job;
  Chain chain;
  chain.tasks = {TaskSpec::rigid("a", 4, 10, 100),
                 TaskSpec::rigid("b", 4, 10, 30)};  // must end by 30
  job.spec.chains = {chain};
  const auto d = arb.admit(job, profile);
  EXPECT_FALSE(d.admitted);
  // Task a's trial reservation must have been rolled back.
  EXPECT_EQ(profile.availableAt(0), 4);
}

TEST(GreedyArbitrator, PicksEarliestFinishingChain) {
  GreedyArbitrator arb;
  resource::AvailabilityProfile profile(4);
  // Wide lane busy at the start: shape1's wide task would wait 30, but
  // shape2's thin task (1 processor) can start immediately.
  profile.reserve(TimeInterval{0, 30}, 4);
  // Release a 1-proc hole right away.
  profile.release(TimeInterval{0, 30}, 1);
  const auto job = fig4StyleJob(0, 1000, 1000);
  const auto d = arb.admit(job, profile);
  ASSERT_TRUE(d.admitted);
  EXPECT_EQ(d.schedule.chainIndex, 1u);  // shape2 (thin first)
  // thin [0,40), wide [40,50) -> finish 50 vs shape1's 30+10+40=80.
  EXPECT_EQ(d.schedule.finishTime(), 50);
}

TEST(GreedyArbitrator, TieGoesToDeclarationOrder) {
  GreedyArbitrator arb;
  resource::AvailabilityProfile profile(8);
  // Both chains finish at 50 on an empty machine; shape1 (index 0) wins.
  const auto job = fig4StyleJob(0, 1000, 1000);
  const auto d = arb.admit(job, profile);
  ASSERT_TRUE(d.admitted);
  EXPECT_EQ(d.schedule.chainIndex, 0u);
  EXPECT_EQ(d.schedule.finishTime(), 50);
}

TEST(GreedyArbitrator, FallsBackToSecondChainWhenFirstUnschedulable) {
  GreedyArbitrator arb;
  resource::AvailabilityProfile profile(4);
  // Keep 3 processors busy forever-ish: the wide (4p) task can never run
  // before the relative deadline 60, so only shape2's... also needs wide.
  // Instead: block wide until 55; shape1 (wide first, d1=60 rel) fits wide
  // at 55 but then thin misses d2=70.  Shape2 runs thin [0,40), wide [55,65)
  // missing d2=70?  65 <= 70: fits.
  profile.reserve(TimeInterval{0, 55}, 3);
  auto job = fig4StyleJob(0, 60, 70);
  // Adjust durations: wide 4x10, thin 1x40 as built.
  const auto d = arb.admit(job, profile);
  ASSERT_TRUE(d.admitted);
  EXPECT_EQ(d.schedule.chainIndex, 1u);
  EXPECT_EQ(d.chainsSchedulable, 1);
  EXPECT_EQ(d.chainsConsidered, 2);
}

TEST(GreedyArbitrator, UtilizationTieBreakPrefersDenserWindow) {
  // Two chains with equal finish times and equal areas but different
  // placements; verify the busy-window tie-break is exercised via the
  // exposed tryChain helper producing identical finishes.
  GreedyArbitrator arb;
  resource::AvailabilityProfile profile(8);
  const auto job = fig4StyleJob(0, 1000, 1000);
  const task::JobShape shape(job.spec);
  const task::JobView view(job.id, job.release, shape);
  const auto s0 = arb.tryChain(view, 0, profile);
  const auto s1 = arb.tryChain(view, 1, profile);
  ASSERT_TRUE(s0 && s1);
  EXPECT_EQ(s0->finishTime(), s1->finishTime());
  EXPECT_EQ(s0->area(), s1->area());
}

TEST(GreedyArbitrator, RespectsReleaseTime) {
  GreedyArbitrator arb;
  resource::AvailabilityProfile profile(4);
  const auto d = arb.admit(singleTaskJob(4, 10, 100, /*release=*/42), profile);
  ASSERT_TRUE(d.admitted);
  EXPECT_EQ(d.schedule.placements[0].interval.begin, 42);
}

TEST(GreedyArbitrator, DeadlineIsRelativeToRelease) {
  GreedyArbitrator arb;
  resource::AvailabilityProfile profile(4);
  profile.reserve(TimeInterval{0, 130}, 4);
  // Released at 42 with relative deadline 100 => absolute 142: the only
  // fit [130, 140) meets it.
  const auto d = arb.admit(singleTaskJob(4, 10, 100, /*release=*/42), profile);
  ASSERT_TRUE(d.admitted);
  EXPECT_EQ(d.schedule.placements[0].interval, (TimeInterval{130, 140}));
  EXPECT_EQ(d.schedule.placements[0].deadline, 142);
}

TEST(GreedyArbitrator, QualityReflectsChosenChain) {
  GreedyArbitrator arb;
  resource::AvailabilityProfile profile(4);
  JobInstance job;
  Chain low;
  low.name = "low";
  low.tasks = {TaskSpec::rigid("t", 1, 10, 1000, 0.5)};
  Chain high;
  high.name = "high";
  high.tasks = {TaskSpec::rigid("t", 1, 20, 1000, 1.0)};
  job.spec.chains = {low, high};
  const auto d = arb.admit(job, profile);
  ASSERT_TRUE(d.admitted);
  // Earliest finish picks the low-quality (shorter) chain; quality reported
  // accordingly.
  EXPECT_EQ(d.schedule.chainIndex, 0u);
  EXPECT_DOUBLE_EQ(d.quality, 0.5);
}

TEST(GreedyArbitrator, FirstSchedulableChoiceStopsEarly) {
  GreedyArbitrator arb(
      GreedyOptions{.chainChoice = ChainChoice::FirstSchedulable});
  resource::AvailabilityProfile profile(8);
  const auto job = fig4StyleJob(0, 1000, 1000);
  const auto d = arb.admit(job, profile);
  ASSERT_TRUE(d.admitted);
  EXPECT_EQ(d.schedule.chainIndex, 0u);
  EXPECT_EQ(d.chainsSchedulable, 1);  // stopped after the first fit
}

TEST(GreedyArbitrator, RandomChoiceIsDeterministicPerSeed) {
  resource::AvailabilityProfile p1(8);
  resource::AvailabilityProfile p2(8);
  GreedyArbitrator a1(GreedyOptions{.chainChoice = ChainChoice::Random,
                                    .seed = 7});
  GreedyArbitrator a2(GreedyOptions{.chainChoice = ChainChoice::Random,
                                    .seed = 7});
  for (int i = 0; i < 20; ++i) {
    const auto job = fig4StyleJob(i * 100, 1000, 1000);
    const auto d1 = a1.admit(job, p1);
    const auto d2 = a2.admit(job, p2);
    ASSERT_EQ(d1.admitted, d2.admitted);
    if (d1.admitted) {
      EXPECT_EQ(d1.schedule.chainIndex, d2.schedule.chainIndex);
    }
  }
}

TEST(GreedyArbitrator, BestFitPrefersTighterHole) {
  GreedyArbitrator arb(GreedyOptions{.fitPolicy = FitPolicy::BestFit});
  resource::AvailabilityProfile profile(8);
  // Carve a 2-wide hole [0, 100) and leave the rest free from 100.
  profile.reserve(TimeInterval{0, 100}, 6);
  // A 2-processor task: first fit would take t=0 (slack 0 there), and so
  // does best fit; but a 3-processor task must go to t=100 under both.
  const auto d2 = arb.admit(singleTaskJob(2, 10, kTimeInfinity), profile);
  ASSERT_TRUE(d2.admitted);
  EXPECT_EQ(d2.schedule.placements[0].interval.begin, 0);
  const auto d3 = arb.admit(singleTaskJob(3, 10, kTimeInfinity), profile);
  ASSERT_TRUE(d3.admitted);
  EXPECT_EQ(d3.schedule.placements[0].interval.begin, 100);
}

TEST(GreedyArbitrator, NameReflectsOptions) {
  EXPECT_EQ(GreedyArbitrator().name(), "greedy-paper");
  EXPECT_EQ(GreedyArbitrator(GreedyOptions{.malleable = true}).name(),
            "greedy-paper-malleable");
  EXPECT_EQ(GreedyArbitrator(
                GreedyOptions{.chainChoice = ChainChoice::Random,
                              .fitPolicy = FitPolicy::BestFit})
                .name(),
            "greedy-randomchain-bestfit");
  // The malleable policy only shows up when malleability is on...
  EXPECT_EQ(GreedyArbitrator(
                GreedyOptions{
                    .malleable = true,
                    .malleablePolicy = MalleablePolicy::EarliestFinish})
                .name(),
            "greedy-paper-malleable-earliestfinish");
  // ...a dormant policy on a non-malleable arbitrator is not advertised.
  EXPECT_EQ(GreedyArbitrator(
                GreedyOptions{
                    .malleable = false,
                    .malleablePolicy = MalleablePolicy::EarliestFinish})
                .name(),
            "greedy-paper");
}

}  // namespace
}  // namespace tprm::sched
