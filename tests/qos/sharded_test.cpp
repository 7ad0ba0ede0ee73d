// Tests for qos::ShardedArbitrator: the K=1 equivalence guarantee, the
// jobId -> shard routing, the spill path, the capacity rebalancer,
// whole-machine resize through the shard layer, and cancel by global id —
// plus the deterministic race regressions (spill score staleness, rebalance
// capacity dip) driven through the test-only seams.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "qos/sharded.h"

namespace tprm::qos {
namespace {

using task::Chain;
using task::TaskSpec;
using task::TunableJobSpec;

TunableJobSpec rigidJob(const std::string& name, int procs,
                        double durationUnits, double deadlineUnits) {
  TunableJobSpec spec;
  spec.name = name;
  Chain chain;
  chain.name = "only";
  chain.tasks = {TaskSpec::rigid("t", procs, ticksFromUnits(durationUnits),
                                 ticksFromUnits(deadlineUnits))};
  spec.chains = {chain};
  return spec;
}

TunableJobSpec twoChainJob(const std::string& name, double deadlineUnits) {
  TunableJobSpec spec;
  spec.name = name;
  Chain wide;
  wide.name = "wide";
  wide.tasks = {TaskSpec::rigid("w", 4, ticksFromUnits(10.0),
                                ticksFromUnits(deadlineUnits))};
  Chain thin;
  thin.name = "thin";
  thin.tasks = {TaskSpec::rigid("n", 1, ticksFromUnits(30.0),
                                ticksFromUnits(deadlineUnits),
                                /*quality=*/0.7)};
  spec.chains = {wide, thin};
  return spec;
}

void expectSameDecision(const sched::AdmissionDecision& a,
                        const sched::AdmissionDecision& b, int step) {
  ASSERT_EQ(a.admitted, b.admitted) << "step " << step;
  EXPECT_EQ(a.quality, b.quality) << "step " << step;
  EXPECT_EQ(a.chainsConsidered, b.chainsConsidered) << "step " << step;
  EXPECT_EQ(a.chainsSchedulable, b.chainsSchedulable) << "step " << step;
  if (!a.admitted) return;
  EXPECT_EQ(a.schedule.chainIndex, b.schedule.chainIndex) << "step " << step;
  ASSERT_EQ(a.schedule.placements.size(), b.schedule.placements.size())
      << "step " << step;
  for (std::size_t k = 0; k < a.schedule.placements.size(); ++k) {
    EXPECT_EQ(a.schedule.placements[k], b.schedule.placements[k])
        << "step " << step << " placement " << k;
  }
}

// One shard must be indistinguishable from the plain arbitrator: same ids,
// same decisions, same freed ticks, same renegotiation reports, across a
// mixed submit/cancel/resize script.
TEST(ShardedArbitrator, OneShardMatchesUnshardedExactly) {
  QoSArbitrator plain(16);
  ShardedOptions options;
  options.shards = 1;
  ShardedArbitrator sharded(16, options);

  std::vector<std::uint64_t> ids;
  Time clock = 0;
  int step = 0;
  for (int round = 0; round < 5; ++round) {
    for (int j = 0; j < 6; ++j) {
      const auto spec =
          (j % 2 == 0) ? rigidJob("r", 3 + j, 25.0, 200.0 + 10.0 * j)
                       : twoChainJob("t", 150.0 + 20.0 * j);
      const auto a = plain.submit(spec, clock);
      const auto b = sharded.submit(spec, clock);
      expectSameDecision(a, b, step++);
      ASSERT_EQ(plain.lastJobId(), sharded.lastJobId());
      if (a.admitted) ids.push_back(plain.lastJobId().value());
    }
    if (!ids.empty() && round % 2 == 0) {
      const auto victim = ids[ids.size() / 2];
      EXPECT_EQ(plain.cancel(victim), sharded.cancel(victim))
          << "round " << round;
      // A repeated cancel misses in both.
      EXPECT_EQ(plain.cancel(victim), sharded.cancel(victim));
    }
    clock += ticksFromUnits(12.0);
    const int newSize = (round % 2 == 0) ? 10 : 16;
    const auto ra = plain.resize(newSize, clock);
    const auto rb = sharded.resize(newSize, clock);
    EXPECT_EQ(ra.processorsBefore, rb.processorsBefore) << "round " << round;
    EXPECT_EQ(ra.processorsAfter, rb.processorsAfter) << "round " << round;
    EXPECT_EQ(ra.kept, rb.kept) << "round " << round;
    EXPECT_EQ(ra.reconfigured, rb.reconfigured) << "round " << round;
    EXPECT_EQ(ra.dropped, rb.dropped) << "round " << round;
  }
  EXPECT_EQ(plain.admittedCount(), sharded.admittedCount());
  EXPECT_EQ(plain.rejectedCount(), sharded.rejectedCount());
  EXPECT_EQ(plain.clock(), sharded.clock());
  EXPECT_EQ(sharded.spillCount(), 0u);
  EXPECT_TRUE(plain.verify().ok);
  EXPECT_TRUE(sharded.verify().ok);
}

TEST(ShardedArbitrator, RoutesJobsToHomeShardByIdModuloK) {
  ShardedOptions options;
  options.shards = 3;
  options.spill = false;
  ShardedArbitrator sharded(12, options);
  for (int i = 0; i < 9; ++i) {
    const auto id = sharded.reserveJobId();
    EXPECT_EQ(sharded.homeShard(id), static_cast<int>(id % 3));
    ASSERT_TRUE(sharded.submit(id, rigidJob("r", 1, 10.0, 1000.0), 0).admitted);
  }
  // Round-robin ids spread the load evenly: every shard holds three jobs.
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(sharded.shard(k).admittedCount(), 3u) << "shard " << k;
  }
}

TEST(ShardedArbitrator, SpillAdmitsOnEmptiestOtherShard) {
  ShardedOptions options;
  options.shards = 2;
  ShardedArbitrator sharded(8, options);  // 4 + 4

  // Fill shard 0 (home of id 0) completely for [0, 100)...
  ASSERT_TRUE(sharded.submit(rigidJob("fill0", 4, 100.0, 110.0), 0).admitted);
  // ...and give shard 1 (id 1) a token job so it stays nearly free.
  ASSERT_TRUE(sharded.submit(rigidJob("fill1", 1, 1.0, 1000.0), 0).admitted);

  // Id 2's home is the full shard 0; with a deadline too tight to queue
  // behind fill0 it must spill to shard 1.
  const auto decision = sharded.submit(rigidJob("spilled", 4, 50.0, 60.0), 0);
  ASSERT_TRUE(decision.admitted);
  EXPECT_EQ(sharded.spillCount(), 1u);
  EXPECT_EQ(sharded.shard(1).admittedCount(), 2u);
  // The spilled job is cancellable by its global id.
  EXPECT_GT(sharded.cancel(2), 0);
  EXPECT_TRUE(sharded.verify().ok);

  // Without a viable shard anywhere the job is still rejected.
  const auto rejected = sharded.submit(rigidJob("no", 8, 10.0, 1000.0), 0);
  EXPECT_FALSE(rejected.admitted);
  EXPECT_EQ(sharded.rejectedCount(), 1u);
}

TEST(ShardedArbitrator, SpillScoresEveryShardOfAWideMachine) {
  // More shards than the spill scorer keeps on the stack: the scores go to
  // its heap buffer, and the only free shard is the last one scored.
  constexpr int kShards = 20;
  ShardedOptions options;
  options.shards = kShards;
  ShardedArbitrator sharded(2 * kShards, options);  // 2 processors each
  for (int k = 0; k + 1 < kShards; ++k) {
    ASSERT_TRUE(
        sharded.submit(rigidJob("fill", 2, 100.0, 110.0), 0).admitted);
  }
  ASSERT_TRUE(sharded.submit(rigidJob("token", 1, 1.0, 1000.0), 0).admitted);

  // Id 20's home is the full shard 0: the job must spill to shard 19.
  const auto decision = sharded.submit(rigidJob("spilled", 2, 50.0, 60.0), 0);
  ASSERT_TRUE(decision.admitted);
  EXPECT_EQ(sharded.spillCount(), 1u);
  EXPECT_EQ(sharded.shard(kShards - 1).admittedCount(), 2u);
  EXPECT_GT(sharded.cancel(kShards), 0);
  EXPECT_TRUE(sharded.verify().ok);
}

TEST(ShardedArbitrator, SpillCanBeDisabled) {
  ShardedOptions options;
  options.shards = 2;
  options.spill = false;
  ShardedArbitrator sharded(8, options);
  ASSERT_TRUE(sharded.submit(rigidJob("fill0", 4, 100.0, 110.0), 0).admitted);
  ASSERT_TRUE(sharded.submit(rigidJob("fill1", 1, 1.0, 1000.0), 0).admitted);
  EXPECT_FALSE(sharded.submit(rigidJob("stuck", 4, 50.0, 60.0), 0).admitted);
  EXPECT_EQ(sharded.spillCount(), 0u);
}

TEST(ShardedArbitrator, RebalanceMovesIdleProcessorsToLoadedShard) {
  ShardedOptions options;
  options.shards = 2;
  ShardedArbitrator sharded(16, options);  // 8 + 8
  // Load shard 0 fully for a long stretch; shard 1 stays idle.
  ASSERT_TRUE(sharded.submit(rigidJob("load", 8, 500.0, 1000.0), 0).admitted);

  const auto report = sharded.rebalance(ticksFromUnits(1.0));
  ASSERT_TRUE(report.moved);
  EXPECT_EQ(report.fromShard, 1);
  EXPECT_EQ(report.toShard, 0);
  EXPECT_EQ(report.processors, 4);  // half the 8-processor idle gap
  EXPECT_EQ(sharded.shardProcessors(), (std::vector<int>{12, 4}));
  EXPECT_EQ(sharded.processors(), 16);
  EXPECT_TRUE(sharded.verify().ok);

  // The moved capacity is genuinely usable on the loaded shard: a tight
  // 4-processor job could not start before t=500 on the old 8-processor
  // partition, but fits immediately on the four moved processors.
  (void)sharded.reserveJobId();  // burn id 1 so the next id routes to shard 0
  const auto id = sharded.reserveJobId();
  ASSERT_EQ(sharded.homeShard(id), 0);
  const auto tight = sharded.submit(id, rigidJob("tight", 4, 20.0, 30.0),
                                    ticksFromUnits(2.0));
  EXPECT_TRUE(tight.admitted);
  EXPECT_EQ(sharded.spillCount(), 0u);
  EXPECT_TRUE(sharded.verify().ok);
}

TEST(ShardedArbitrator, RebalanceBelowThresholdIsANoOp) {
  ShardedOptions options;
  options.shards = 2;
  options.rebalanceThreshold = 8;
  ShardedArbitrator sharded(8, options);  // 4 + 4: gap can never reach 8
  ASSERT_TRUE(sharded.submit(rigidJob("load", 4, 100.0, 1000.0), 0).admitted);
  const auto report = sharded.rebalance(ticksFromUnits(1.0));
  EXPECT_FALSE(report.moved);
  EXPECT_EQ(sharded.shardProcessors(), (std::vector<int>{4, 4}));
}

TEST(ShardedArbitrator, RebalanceNeverDropsCommitments) {
  ShardedOptions options;
  options.shards = 2;
  options.rebalanceThreshold = 1;
  ShardedArbitrator sharded(16, options);
  // Two-task chains so each job still holds cancellable future work after
  // the rebalance: shard 0 runs full, shard 1 half full.
  auto twoTask = [](const std::string& name, int procs) {
    TunableJobSpec spec;
    spec.name = name;
    Chain chain;
    chain.name = "only";
    chain.tasks = {TaskSpec::rigid("t0", procs, ticksFromUnits(100.0),
                                   ticksFromUnits(1000.0)),
                   TaskSpec::rigid("t1", procs, ticksFromUnits(100.0),
                                   ticksFromUnits(1000.0))};
    spec.chains = {chain};
    return spec;
  };
  ASSERT_TRUE(sharded.submit(twoTask("a", 8), 0).admitted);
  ASSERT_TRUE(sharded.submit(twoTask("b", 4), 0).admitted);
  const auto report = sharded.rebalance(ticksFromUnits(5.0));
  EXPECT_TRUE(report.moved);
  // Every admitted job still lives with its future task intact: cancelling
  // frees that task's full area on both shards.
  EXPECT_EQ(sharded.cancel(0), 8 * ticksFromUnits(100.0));
  EXPECT_EQ(sharded.cancel(1), 4 * ticksFromUnits(100.0));
  EXPECT_TRUE(sharded.verify().ok);
}

TEST(ShardedArbitrator, ResizeSplitsEvenlyAndReportsGlobalIds) {
  ShardedOptions options;
  options.shards = 3;
  options.spill = false;
  ShardedArbitrator sharded(10, options);  // 4 + 3 + 3
  EXPECT_EQ(sharded.shardProcessors(), (std::vector<int>{4, 3, 3}));

  std::vector<std::uint64_t> admitted;
  for (int i = 0; i < 6; ++i) {
    if (sharded.submit(rigidJob("j", 2, 50.0, 1000.0), 0).admitted) {
      admitted.push_back(sharded.lastJobId().value());
    }
  }
  ASSERT_GE(admitted.size(), 3u);

  const auto report = sharded.resize(7, ticksFromUnits(1.0));
  EXPECT_EQ(report.processorsBefore, 10);
  EXPECT_EQ(report.processorsAfter, 7);
  EXPECT_EQ(sharded.shardProcessors(), (std::vector<int>{3, 2, 2}));
  // Every reported id is one of ours (global), each reported exactly once.
  std::vector<std::uint64_t> all;
  all.insert(all.end(), report.kept.begin(), report.kept.end());
  all.insert(all.end(), report.reconfigured.begin(),
             report.reconfigured.end());
  all.insert(all.end(), report.dropped.begin(), report.dropped.end());
  std::sort(all.begin(), all.end());
  EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end());
  for (const auto id : all) {
    EXPECT_TRUE(std::find(admitted.begin(), admitted.end(), id) !=
                admitted.end())
        << "unknown id " << id;
  }
  EXPECT_TRUE(sharded.verify().ok);
}

// Regression (spill TOCTOU): the spill target is scored under its lock,
// the lock is dropped, and a competing admit can fill the scored shard
// before the submit re-acquires it.  The fixed path re-validates the score
// under the held submit lock and falls back to the next-best candidate; the
// old single-scan argmax submitted into the stale winner and rejected.
TEST(ShardedArbitrator, SpillRevalidatesStaleScoreAndFallsBack) {
  ShardedOptions options;
  options.shards = 3;
  ShardedArbitrator sharded(12, options);  // 4 + 4 + 4

  // Shard 0 (home of id 0) is full for [0, 100); shard 2 carries a token
  // job so shard 1 scores strictly best; shard 1 stays free for now.
  ASSERT_TRUE(sharded.submit(0, rigidJob("fill0", 4, 100.0, 110.0), 0)
                  .admitted);
  (void)sharded.reserveJobId();  // id 0
  (void)sharded.reserveJobId();  // id 1 (unused: keeps routing explicit)
  ASSERT_TRUE(sharded.submit(2, rigidJob("token2", 4, 10.0, 1000.0), 0)
                  .admitted);

  // Between the scoring scan and the submit, a competing job lands on the
  // scored-best shard 1 and fills it for [0, 100).
  bool fired = false;
  sharded.setSpillRaceSeamForTest([&] {
    if (fired) return;
    fired = true;
    ASSERT_TRUE(sharded.submit(4, rigidJob("race1", 4, 100.0, 110.0), 0)
                    .admitted);  // home shard 1: no spill recursion
  });

  // Id 3's home shard 0 is full and its deadline is too tight to queue;
  // the spill must land on shard 2 (start 10, finish 60 == deadline) even
  // though the scan ranked shard 1 first.
  const auto decision = sharded.submit(3, rigidJob("spilled", 4, 50.0, 60.0),
                                       0);
  ASSERT_TRUE(fired);
  ASSERT_TRUE(decision.admitted);
  EXPECT_EQ(sharded.spillCount(), 1u);
  EXPECT_EQ(sharded.shard(2).admittedCount(), 2u);
  EXPECT_GT(sharded.cancel(3), 0);
  EXPECT_TRUE(sharded.verify().ok);
  sharded.setSpillRaceSeamForTest(nullptr);
}

// Regression (spillAttempts accounting): a spill scan whose chosen shard
// cannot fit any chain of the spec by width is a guaranteed rejection — it
// must count as spill_no_candidate, not as an attempt.  Attempts count only
// candidate submits that actually run.
TEST(ShardedArbitrator, SpillAttemptsCountsOnlyRealSubmits) {
  ShardedOptions options;
  options.shards = 2;
  ShardedArbitrator sharded(8, options);  // 4 + 4
  obs::MetricsRegistry registry;
  auto metrics = obs::ShardedMetrics::fromRegistry(registry, "sharded");
  sharded.attachMetrics({}, &metrics);

  // 5 > 4 on both shards: home rejects, and the spill scan's chosen
  // candidate is width-infeasible — no submit runs.
  EXPECT_FALSE(sharded.submit(rigidJob("wide", 5, 10.0, 1000.0), 0)
                   .admitted);
  EXPECT_EQ(metrics.spillAttempts->value(), 0u);
  EXPECT_EQ(metrics.spillNoCandidate->value(), 1u);

  // A genuine spill still counts one attempt and one admission.
  ASSERT_TRUE(sharded.submit(2, rigidJob("fill0", 4, 100.0, 110.0), 0)
                  .admitted);
  ASSERT_TRUE(sharded.submit(4, rigidJob("spilled", 4, 50.0, 60.0), 0)
                  .admitted);
  EXPECT_EQ(metrics.spillAttempts->value(), 1u);
  EXPECT_EQ(metrics.spillAdmitted->value(), 1u);
  EXPECT_EQ(metrics.spillNoCandidate->value(), 1u);
}

// Regression (rebalance capacity dip): the donor used to shrink at
// max(w, donorClock) while the receiver grew at max(w, receiverClock); a
// submit racing the sweep could push the receiver's clock ahead, opening an
// interval where machine-wide capacity dipped and submits were spuriously
// rejected.  Both shards now resize at the common later instant.
TEST(ShardedArbitrator, RebalanceResizesBothShardsAtTheCommonInstant) {
  ShardedOptions options;
  options.shards = 2;
  ShardedArbitrator sharded(16, options);  // 8 + 8
  // Shard 0 is the busiest (receiver): full for [0, 500).
  ASSERT_TRUE(sharded.submit(0, rigidJob("load", 8, 500.0, 1000.0), 0)
                  .admitted);

  // A submit lands between the sweep's clock advance and its lock grab,
  // pushing the receiver's clock (5.0) past the sweep time (1.0).
  bool fired = false;
  sharded.setRebalanceRaceSeamForTest([&] {
    if (fired) return;
    fired = true;
    ASSERT_TRUE(sharded
                    .submit(2, rigidJob("racer", 1, 1.0, 10000.0),
                            ticksFromUnits(5.0))
                    .admitted);  // home shard 0: receiver clock -> 5.0
  });

  const auto report = sharded.rebalance(ticksFromUnits(1.0));
  ASSERT_TRUE(fired);
  ASSERT_TRUE(report.moved);
  EXPECT_EQ(report.fromShard, 1);
  EXPECT_EQ(report.toShard, 0);
  EXPECT_EQ(report.processors, 4);
  EXPECT_EQ(sharded.shardProcessors(), (std::vector<int>{12, 4}));

  // The invariant: the donor's capacity must not drop before the receiver's
  // rises.  Both resizes land at the single instant t=5.0 (the racer pushed
  // the receiver's clock there), so the donor still offered all 8
  // processors over [1.0, 5.0) and both shard clocks agree afterwards.  The
  // old code shrank the donor at t=1.0 while the receiver only grew at
  // t=5.0, leaving the donor's clock behind (1.0 != 5.0) and the machine 4
  // processors short for the whole skew interval.
  EXPECT_EQ(report.at, ticksFromUnits(5.0));
  EXPECT_EQ(sharded.shard(0).clock(), sharded.shard(1).clock());
  EXPECT_EQ(sharded.shard(0).clock(), ticksFromUnits(5.0));
  // From the common instant on, the post-move capacities are in force.
  EXPECT_EQ(sharded.shard(1).profile().minAvailable(
                TimeInterval{ticksFromUnits(5.0), ticksFromUnits(6.0)}),
            4);
  EXPECT_TRUE(sharded.verify().ok);
  sharded.setRebalanceRaceSeamForTest(nullptr);
}

// A repeated cancel is a clean miss: it frees nothing and counts exactly
// one miss, on the job's home shard only.
TEST(ShardedArbitrator, RepeatedCancelMissesOnceOnTheHomeShard) {
  ShardedOptions options;
  options.shards = 2;
  ShardedArbitrator sharded(8, options);  // 4 + 4
  obs::MetricsRegistry registry;
  auto metrics0 = obs::NegotiationMetrics::fromRegistry(registry, "shard0");
  auto metrics1 = obs::NegotiationMetrics::fromRegistry(registry, "shard1");
  sharded.attachMetrics({&metrics0, &metrics1}, nullptr);

  ASSERT_TRUE(sharded.submit(0, rigidJob("victim", 2, 10.0, 1000.0), 0)
                  .admitted);
  EXPECT_GT(sharded.cancel(0), 0);
  EXPECT_EQ(sharded.cancel(0), 0);
  EXPECT_EQ(metrics0.cancelMisses->value(), 1u);  // home shard of id 0
  EXPECT_EQ(metrics1.cancelMisses->value(), 0u);
  EXPECT_TRUE(sharded.verify().ok);

  ASSERT_TRUE(sharded.submit(2, rigidJob("clean", 2, 10.0, 1000.0), 0)
                  .admitted);
  EXPECT_GT(sharded.cancel(2), 0);
  EXPECT_EQ(metrics0.cancelMisses->value(), 1u);
  EXPECT_TRUE(sharded.verify().ok);
}

/// Two shards of 4 with job 2 spilled from its full home shard 0 to
/// shard 1, holding 4 processors for 50 units.
void spillJobTwo(ShardedArbitrator& sharded) {
  ASSERT_TRUE(sharded.submit(0, rigidJob("fill0", 4, 100.0, 110.0), 0)
                  .admitted);
  ASSERT_TRUE(sharded.submit(1, rigidJob("fill1", 1, 1.0, 1000.0), 0)
                  .admitted);
  ASSERT_TRUE(sharded.submit(2, rigidJob("spilled", 4, 50.0, 60.0), 0)
                  .admitted);
  ASSERT_EQ(sharded.spillCount(), 1u);
  ASSERT_FALSE(sharded.shard(0).live(2));
  ASSERT_TRUE(sharded.shard(1).live(2));
}

TEST(ShardedArbitrator, CancelOfASpilledJobFreesOnTheSpillShard) {
  ShardedOptions options;
  options.shards = 2;
  ShardedArbitrator sharded(8, options);
  obs::MetricsRegistry registry;
  auto metrics0 = obs::NegotiationMetrics::fromRegistry(registry, "shard0");
  auto metrics1 = obs::NegotiationMetrics::fromRegistry(registry, "shard1");
  sharded.attachMetrics({&metrics0, &metrics1}, nullptr);
  ASSERT_NO_FATAL_FAILURE(spillJobTwo(sharded));

  EXPECT_EQ(sharded.cancel(2), 4 * ticksFromUnits(50.0));
  EXPECT_FALSE(sharded.shard(1).live(2));
  EXPECT_EQ(metrics1.cancels->value(), 1u);
  EXPECT_EQ(metrics0.cancels->value(), 0u);
  EXPECT_EQ(metrics0.cancelMisses->value(), 0u);
  EXPECT_EQ(metrics1.cancelMisses->value(), 0u);
  EXPECT_TRUE(sharded.verify().ok);
}

// Two threads cancel the same spilled job at once: the one that reaches the
// spill shard first frees it, the other finds nothing and counts one miss
// on the home shard.
TEST(ShardedArbitrator, ConcurrentCancelsOfASpilledJobFreeItOnce) {
  for (int round = 0; round < 50; ++round) {
    ShardedOptions options;
    options.shards = 2;
    ShardedArbitrator sharded(8, options);
    obs::MetricsRegistry registry;
    auto metrics0 = obs::NegotiationMetrics::fromRegistry(registry, "shard0");
    auto metrics1 = obs::NegotiationMetrics::fromRegistry(registry, "shard1");
    sharded.attachMetrics({&metrics0, &metrics1}, nullptr);
    ASSERT_NO_FATAL_FAILURE(spillJobTwo(sharded));

    std::atomic<bool> go{false};
    std::int64_t freed[2] = {0, 0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) {
        }
        freed[t] = sharded.cancel(2);
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& thread : threads) thread.join();

    EXPECT_EQ((freed[0] > 0) + (freed[1] > 0), 1) << "round " << round;
    EXPECT_EQ(freed[0] + freed[1], 4 * ticksFromUnits(50.0))
        << "round " << round;
    EXPECT_EQ(metrics0.cancelMisses->value(), 1u) << "round " << round;
    EXPECT_EQ(metrics1.cancelMisses->value(), 0u) << "round " << round;
    EXPECT_TRUE(sharded.verify().ok);
  }
}

TEST(ShardedArbitratorDeath, InvalidArguments) {
  ShardedOptions options;
  options.shards = 4;
  EXPECT_DEATH((void)ShardedArbitrator(3, options), "per shard");
  ShardedArbitrator sharded(8, options);
  EXPECT_DEATH((void)sharded.resize(3, 0), "per shard");
}

}  // namespace
}  // namespace tprm::qos
