#include "taskmodel/shape.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.h"

namespace tprm::task {
namespace {

// Chain "staged": two rigid tasks, prefix areas [400, 800], quality
// 0.9 * 0.8 (min 0.8), due 200 and 300 ticks after release.  Chain "lean":
// one malleable task, area 300, no deadline.
TunableJobSpec twoChainJob() {
  TunableJobSpec spec;
  spec.name = "job";
  Chain staged;
  staged.name = "staged";
  staged.tasks = {TaskSpec::rigid("a", 16, 25, 200, 0.9),
                  TaskSpec::rigid("b", 4, 100, 300, 0.8)};
  staged.bindings = {{"stages", 2}};
  Chain lean;
  lean.name = "lean";
  lean.tasks = {TaskSpec::malleableTask("c", 6, 50, 6, kTimeInfinity, 0.5)};
  spec.chains = {staged, lean};
  return spec;
}

TEST(JobShape, HoldsWhatPlanningReads) {
  const auto spec = twoChainJob();
  const JobShape shape(spec);
  ASSERT_EQ(shape.chainCount(), 2u);
  EXPECT_EQ(shape.minChainWidth(), 6);
  for (std::size_t c = 0; c < spec.chains.size(); ++c) {
    const Chain& chain = spec.chains[c];
    EXPECT_EQ(shape.chain(c).quality, chain.quality());
    EXPECT_EQ(shape.chain(c).maxProcessors, chain.maxProcessors());
    const auto tasks = shape.tasks(c);
    ASSERT_EQ(tasks.size(), chain.tasks.size());
    std::int64_t prefix = 0;
    for (std::size_t k = 0; k < tasks.size(); ++k) {
      const TaskSpec& t = chain.tasks[k];
      prefix += t.request.area();
      EXPECT_EQ(tasks[k].request, t.request);
      EXPECT_EQ(tasks[k].relativeDeadline, t.relativeDeadline);
      EXPECT_EQ(tasks[k].malleable, t.malleable.has_value());
      if (t.malleable) {
        EXPECT_EQ(tasks[k].malleableSpec, *t.malleable);
      }
      EXPECT_EQ(tasks[k].prefixArea, prefix);
    }
    EXPECT_EQ(tasks.back().prefixArea, chain.totalArea());
  }
}

TEST(JobShape, ChainQualityFollowsTheSpecsComposition) {
  auto spec = twoChainJob();
  spec.qualityComposition = QualityComposition::Minimum;
  const JobShape shape(spec);
  EXPECT_EQ(shape.chain(0).quality, 0.8);
  EXPECT_EQ(shape.chain(1).quality, 0.5);
}

TEST(JobShape, EmptySpecHasNoChains) {
  const JobShape shape{TunableJobSpec{}};
  EXPECT_EQ(shape.chainCount(), 0u);
  const JobShape copy(shape);
  EXPECT_EQ(copy.chainCount(), 0u);
}

TEST(JobShape, AssignRebuildsAndCopiesAreIndependent) {
  auto spec = twoChainJob();
  JobShape shape(spec);
  const JobShape copy(shape);
  // A smaller spec reuses the storage; the copy keeps the old job.
  spec.chains.pop_back();
  spec.chains[0].tasks.pop_back();
  shape.assign(spec);
  ASSERT_EQ(shape.chainCount(), 1u);
  ASSERT_EQ(shape.tasks(0).size(), 1u);
  EXPECT_EQ(shape.tasks(0)[0].prefixArea, 400);
  EXPECT_EQ(shape.minChainWidth(), 16);
  ASSERT_EQ(copy.chainCount(), 2u);
  EXPECT_EQ(copy.tasks(0)[1].prefixArea, 800);
  EXPECT_EQ(copy.tasks(1)[0].request.processors, 6);
  // And a larger one grows it.
  shape.assign(twoChainJob());
  EXPECT_EQ(shape.chainCount(), 2u);
  EXPECT_EQ(shape.tasks(1)[0].prefixArea, 300);
}

TEST(JobShape, MovedFromShapeStaysUsable) {
  JobShape shape(twoChainJob());
  JobShape moved(std::move(shape));
  EXPECT_EQ(moved.chainCount(), 2u);
  EXPECT_EQ(shape.chainCount(), 0u);  // NOLINT(bugprone-use-after-move)
  auto small = twoChainJob();
  small.chains.pop_back();
  shape.assign(small);
  EXPECT_EQ(shape.chainCount(), 1u);
  EXPECT_EQ(shape.tasks(0)[1].prefixArea, 800);
  shape = moved;
  EXPECT_EQ(shape.chainCount(), 2u);
  EXPECT_EQ(moved.chainCount(), 2u);
}

/// A random chain of 1-4 rigid tasks with small areas, so prefix ties occur.
Chain randomChain(Rng& rng) {
  Chain chain;
  chain.name = "r";
  const int tasks = 1 + static_cast<int>(rng.uniformInt(0, 3));
  for (int k = 0; k < tasks; ++k) {
    chain.tasks.push_back(TaskSpec::rigid(
        "t", 1 + static_cast<int>(rng.uniformInt(0, 2)),
        1 + static_cast<Time>(rng.uniformInt(0, 2)), kTimeInfinity));
  }
  return chain;
}

TEST(JobShape, TieBreakMatchesTheChainForm) {
  Rng rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    TunableJobSpec spec;
    spec.chains = {randomChain(rng), randomChain(rng)};
    const JobShape shape(spec);
    EXPECT_EQ(shape.prefixAreasLess(0, 1),
              prefixAreasLess(spec.chains[0], spec.chains[1]))
        << "trial " << trial;
    EXPECT_EQ(shape.prefixAreasLess(1, 0),
              prefixAreasLess(spec.chains[1], spec.chains[0]))
        << "trial " << trial;
  }
}

TEST(ScratchShape, NestedGuardsGetTheirOwnShape) {
  const auto outerSpec = twoChainJob();
  auto innerSpec = twoChainJob();
  innerSpec.chains.pop_back();
  const ScratchShape outer(outerSpec);
  const JobShape* lent = &*outer;
  {
    const ScratchShape inner(innerSpec);
    EXPECT_NE(&*inner, lent);
    EXPECT_EQ(inner->chainCount(), 1u);
    EXPECT_EQ(outer->chainCount(), 2u);
  }
  EXPECT_EQ(outer->chainCount(), 2u);
}

TEST(ScratchShape, SequentialGuardsReuseTheThreadsShape) {
  const auto spec = twoChainJob();
  const JobShape* first = nullptr;
  {
    const ScratchShape shape(spec);
    first = &*shape;
  }
  const ScratchShape again(spec);
  EXPECT_EQ(&*again, first);
}

TEST(JobView, UnfilteredViewOffersEveryChainFromTheRelease) {
  const JobShape shape(twoChainJob());
  const JobView view(3, 1000, shape);
  EXPECT_EQ(view.offeredCount(), 2u);
  EXPECT_TRUE(view.offers(0));
  EXPECT_TRUE(view.offers(1));
  EXPECT_EQ(view.firstTask(), 0u);
  EXPECT_EQ(view.absoluteDeadline(200), 1200);
  EXPECT_EQ(view.absoluteDeadline(kTimeInfinity), kTimeInfinity);
}

TEST(JobView, RebasedViewKeepsAbsoluteDeadlines) {
  const JobShape shape(twoChainJob());
  ChainFilter filter;
  const JobView view(3, 1100, 1000, shape, &filter);
  EXPECT_EQ(view.release, 1100);
  EXPECT_EQ(view.absoluteDeadline(shape.tasks(0)[0].relativeDeadline), 1200);
  EXPECT_EQ(view.absoluteDeadline(shape.tasks(0)[1].relativeDeadline), 1300);
  EXPECT_EQ(view.offeredCount(), 2u);
}

TEST(JobView, FilterDropsChainsWhoseDeadlineCameTooClose) {
  const JobShape shape(twoChainJob());
  ChainFilter filter;
  // Each task is checked alone: task "a" (25 ticks, due at 1200) leaves
  // room from 1174, not from 1175; task "b" (100 ticks, due at 1300) from
  // 1199.
  EXPECT_TRUE(JobView(3, 1174, 1000, shape, &filter).offers(0));
  EXPECT_FALSE(JobView(3, 1175, 1000, shape, &filter).offers(0));
  EXPECT_TRUE(JobView(3, 1175, 1000, shape, &filter).offers(1));
  // From task "b" on, task "a" no longer counts.
  filter.only = 0;
  filter.firstTask = 1;
  const JobView suffix(3, 1199, 1000, shape, &filter);
  EXPECT_TRUE(suffix.offers(0));
  EXPECT_FALSE(suffix.offers(1));
  EXPECT_EQ(suffix.offeredCount(), 1u);
  EXPECT_EQ(suffix.firstTask(), 1u);
  EXPECT_EQ(JobView(3, 1200, 1000, shape, &filter).offeredCount(), 0u);
}

TEST(JobView, CommittedSuffixNeedsASingleChain) {
  const JobShape shape(twoChainJob());
  ChainFilter filter;
  filter.firstTask = 1;  // but every chain offered
  EXPECT_DEATH(JobView(3, 0, 0, shape, &filter), "single offered chain");
}

TEST(JobView, QualityBandOffersOnlyChainsInside) {
  const JobShape shape(twoChainJob());
  const double full = shape.chain(0).quality;  // 0.9 * 0.8
  ChainFilter demote;
  demote.below = full;
  EXPECT_EQ(JobView(3, 0, 0, shape, &demote).offeredCount(), 1u);
  EXPECT_TRUE(JobView(3, 0, 0, shape, &demote).offers(1));
  ChainFilter promote;
  promote.above = 0.5;
  promote.atMost = full;
  EXPECT_TRUE(JobView(3, 0, 0, shape, &promote).offers(0));
  EXPECT_FALSE(JobView(3, 0, 0, shape, &promote).offers(1));
  promote.atMost = 0.7;  // below the full chain's quality
  EXPECT_EQ(JobView(3, 0, 0, shape, &promote).offeredCount(), 0u);
}

}  // namespace
}  // namespace tprm::task
