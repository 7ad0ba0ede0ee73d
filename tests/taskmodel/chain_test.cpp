#include "taskmodel/chain.h"

#include <gtest/gtest.h>

namespace tprm::task {
namespace {

Chain twoTaskChain() {
  Chain chain;
  chain.name = "c";
  chain.tasks = {TaskSpec::rigid("a", 16, 25, 200, 0.9),
                 TaskSpec::rigid("b", 4, 100, 250, 0.8)};
  return chain;
}

TEST(Chain, Aggregates) {
  const auto chain = twoTaskChain();
  EXPECT_EQ(chain.totalArea(), 16 * 25 + 4 * 100);
  EXPECT_EQ(chain.criticalPathLength(), 125);
  EXPECT_EQ(chain.maxProcessors(), 16);
}

TEST(Chain, PrefixAreas) {
  // twoTaskChain's cumulative prefix areas are [400, 800].
  const auto chain = twoTaskChain();
  EXPECT_FALSE(prefixAreasLess(chain, chain));

  Chain leanerTail = twoTaskChain();  // [400, 700]
  leanerTail.tasks[1].request.duration = 75;
  EXPECT_TRUE(prefixAreasLess(leanerTail, chain));
  EXPECT_FALSE(prefixAreasLess(chain, leanerTail));

  // The first differing prefix decides, whatever follows it: [300, 1100].
  Chain leanerHead = twoTaskChain();
  leanerHead.tasks[0].request.processors = 12;
  leanerHead.tasks[1].request.processors = 8;
  EXPECT_TRUE(prefixAreasLess(leanerHead, chain));
  EXPECT_FALSE(prefixAreasLess(chain, leanerHead));

  // Equal common prefix: the shorter sequence orders first ([400]).
  Chain shorter = twoTaskChain();
  shorter.tasks.pop_back();
  EXPECT_TRUE(prefixAreasLess(shorter, chain));
  EXPECT_FALSE(prefixAreasLess(chain, shorter));
}

TEST(Chain, QualityComposition) {
  const auto chain = twoTaskChain();
  EXPECT_NEAR(chain.quality(QualityComposition::Multiplicative), 0.72, 1e-12);
  EXPECT_NEAR(chain.quality(QualityComposition::Minimum), 0.8, 1e-12);
}

TEST(Chain, EmptyChainHasZeroQuality) {
  Chain chain;
  EXPECT_DOUBLE_EQ(chain.quality(), 0.0);
  EXPECT_EQ(chain.totalArea(), 0);
  EXPECT_EQ(chain.criticalPathLength(), 0);
  EXPECT_EQ(chain.maxProcessors(), 0);
}

TEST(TunableJobSpec, TunableFlag) {
  TunableJobSpec spec;
  spec.chains = {twoTaskChain()};
  EXPECT_FALSE(spec.tunable());
  spec.chains.push_back(twoTaskChain());
  EXPECT_TRUE(spec.tunable());
}

TEST(JobInstance, AbsoluteDeadlines) {
  JobInstance job;
  job.release = 1000;
  job.spec.chains = {twoTaskChain()};
  EXPECT_EQ(job.absoluteDeadline(0, 0), 1200);
  EXPECT_EQ(job.absoluteDeadline(0, 1), 1250);
}

TEST(JobInstance, InfiniteDeadlineStaysInfinite) {
  JobInstance job;
  job.release = 1000;
  Chain chain;
  chain.tasks = {TaskSpec::rigid("a", 1, 1, kTimeInfinity)};
  job.spec.chains = {chain};
  EXPECT_EQ(job.absoluteDeadline(0, 0), kTimeInfinity);
}

TEST(JobInstanceDeath, OutOfRangeIndices) {
  JobInstance job;
  job.spec.chains = {twoTaskChain()};
  EXPECT_DEATH((void)job.absoluteDeadline(1, 0), "chain index");
  EXPECT_DEATH((void)job.absoluteDeadline(0, 2), "task index");
}

TEST(Validate, AcceptsWellFormedSpec) {
  TunableJobSpec spec;
  spec.name = "ok";
  spec.chains = {twoTaskChain()};
  EXPECT_TRUE(validate(spec).empty());
}

TEST(Validate, RejectsNoChains) {
  TunableJobSpec spec;
  spec.name = "empty";
  const auto errors = validate(spec);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("no chains"), std::string::npos);
}

TEST(Validate, RejectsEmptyChain) {
  TunableJobSpec spec;
  spec.chains = {Chain{}};
  const auto errors = validate(spec);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("is empty"), std::string::npos);
}

TEST(Validate, RejectsBadShape) {
  TunableJobSpec spec;
  Chain chain;
  TaskSpec bad;
  bad.name = "bad";
  bad.request = {0, 0};
  chain.tasks = {bad};
  spec.chains = {chain};
  const auto errors = validate(spec);
  EXPECT_GE(errors.size(), 2u);  // processors and duration
}

TEST(Validate, RejectsQualityOutOfRange) {
  TunableJobSpec spec;
  auto chain = twoTaskChain();
  chain.tasks[0].quality = 1.5;
  spec.chains = {chain};
  const auto errors = validate(spec);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("quality"), std::string::npos);
}

TEST(Validate, RejectsDecreasingDeadlines) {
  TunableJobSpec spec;
  Chain chain;
  chain.tasks = {TaskSpec::rigid("a", 1, 10, 100),
                 TaskSpec::rigid("b", 1, 10, 50)};
  spec.chains = {chain};
  const auto errors = validate(spec);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("deadline decreases"), std::string::npos);
}

TEST(Validate, RejectsInfeasibleCriticalPath) {
  TunableJobSpec spec;
  Chain chain;
  chain.tasks = {TaskSpec::rigid("a", 1, 100, 50)};  // 100 > deadline 50
  spec.chains = {chain};
  const auto errors = validate(spec);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("infeasible"), std::string::npos);
}

TEST(Validate, RejectsInconsistentMalleableSpec) {
  TunableJobSpec spec;
  Chain chain;
  auto t = TaskSpec::rigid("a", 8, 10, 100);
  t.malleable = MalleableSpec{80, 4};  // maxConcurrency < shape processors
  chain.tasks = {t};
  spec.chains = {chain};
  const auto errors = validate(spec);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("concurrency"), std::string::npos);
}

TEST(Validate, ReportsChainAndTaskNames) {
  TunableJobSpec spec;
  spec.name = "myjob";
  Chain chain;
  chain.name = "mychain";
  chain.tasks = {TaskSpec::rigid("mytask", 1, 100, 50)};
  spec.chains = {chain};
  const auto errors = validate(spec);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("myjob"), std::string::npos);
  EXPECT_NE(errors[0].find("mychain"), std::string::npos);
  EXPECT_NE(errors[0].find("mytask"), std::string::npos);
}

TEST(AdmissionBound, RejectsAreaAndHorizonBeyondTheBound) {
  constexpr Time kBound = kMaxAdmissionTicks;
  const auto spec = [](std::vector<TaskSpec> tasks) {
    TunableJobSpec job;
    job.chains = {Chain{"c", std::move(tasks), {}}};
    return job;
  };
  // Exactly at the bound: area, chain area and horizon all fit.
  EXPECT_EQ(admissionBoundError(
                spec({TaskSpec::rigid("a", 1, kBound / 2, kTimeInfinity),
                      TaskSpec::rigid("b", 1, kBound / 2, kTimeInfinity)}),
                0),
            "");
  // 8 processors x 2e18 ticks: the product itself overflows int64.
  EXPECT_NE(admissionBoundError(
                spec({TaskSpec::rigid("a", 8, 2'000'000'000'000'000'000,
                                      kTimeInfinity)}),
                0)
                .find("chains[0].tasks[0]: area"),
            std::string::npos);
  // Each task fits, their sum does not.
  EXPECT_NE(admissionBoundError(
                spec({TaskSpec::rigid("a", 2, kBound / 2, kTimeInfinity),
                      TaskSpec::rigid("b", 2, kBound / 2, kTimeInfinity)}),
                0)
                .find("chain area"),
            std::string::npos);
  // A late release pushes a small chain over the horizon.
  EXPECT_NE(admissionBoundError(
                spec({TaskSpec::rigid("a", 1, 10, kTimeInfinity)}), kBound)
                .find("horizon"),
            std::string::npos);
  // A malleable task may run on one processor for its whole work: its
  // 4 x kBound/4 shape fits the horizon, its kBound of work does not.
  const auto malleable = spec(
      {TaskSpec::malleableTask("m", 4, kBound / 4, 4, kTimeInfinity)});
  EXPECT_EQ(admissionBoundError(malleable, 0), "");
  EXPECT_NE(admissionBoundError(malleable, kBound / 2).find("horizon"),
            std::string::npos);
}

}  // namespace
}  // namespace tprm::task
