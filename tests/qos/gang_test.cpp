// Tests for cross-shard gang admission (qos/sharded.h): the two-phase trial
// reserve, the bit-for-bit rollback guarantee of the per-shard fragment
// surface (qos/qos.h), whole-gang cancel/resize semantics, pinning against
// the elastic layer, and deadlock-freedom under concurrent wide submits
// (the latter rides the TSan CI matrix with the rest of qos_tests).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "qos/sharded.h"

namespace tprm::qos {
namespace {

using task::Chain;
using task::TaskSpec;
using task::TunableJobSpec;

Time u(double units) { return ticksFromUnits(units); }

TunableJobSpec rigidJob(const std::string& name, int procs,
                        double durationUnits, double deadlineUnits) {
  TunableJobSpec spec;
  spec.name = name;
  Chain chain;
  chain.name = "only";
  chain.tasks = {
      TaskSpec::rigid("t", procs, u(durationUnits), u(deadlineUnits))};
  spec.chains = {chain};
  return spec;
}

/// A spec whose every chain is wider than `shardProcs` — ineligible for any
/// single-shard admission, so only the gang path can place it.  The lean
/// chain is narrower (but still too wide for one shard) at lower quality.
TunableJobSpec wideJob(const std::string& name, int fullWidth, int leanWidth,
                       double durationUnits, double deadlineUnits) {
  TunableJobSpec spec;
  spec.name = name;
  Chain full;
  full.name = "full";
  full.tasks = {
      TaskSpec::rigid("f", fullWidth, u(durationUnits), u(deadlineUnits))};
  Chain lean;
  lean.name = "lean";
  lean.tasks = {TaskSpec::rigid("l", leanWidth, u(durationUnits),
                                u(deadlineUnits), /*quality=*/0.7)};
  spec.chains = {full, lean};
  return spec;
}

ShardedOptions gangOptions(int shards) {
  ShardedOptions options;
  options.shards = shards;
  options.gang = true;
  return options;
}

/// Shards holding a live, pinned fragment of job `id`.
int fragmentCount(const ShardedArbitrator& sharded, std::uint64_t id) {
  int count = 0;
  for (int k = 0; k < sharded.shardCount(); ++k) {
    if (sharded.shard(k).pinned(id)) ++count;
  }
  return count;
}

/// Shards on which job `id` is live at all, pinned or not.
int liveShards(const ShardedArbitrator& sharded, std::uint64_t id) {
  int count = 0;
  for (int k = 0; k < sharded.shardCount(); ++k) {
    if (sharded.shard(k).live(id)) ++count;
  }
  return count;
}

TEST(GangAdmission, AdmitsJobWiderThanAnyShard) {
  ShardedArbitrator sharded(32, gangOptions(4));  // 8 per shard
  obs::MetricsRegistry registry;
  auto metrics = obs::ShardedMetrics::fromRegistry(registry, "sharded");
  sharded.attachMetrics({}, &metrics);

  // 20 > 8, so no shard could ever hold either chain; 20 <= 32 machine-wide.
  Time effective = -1;
  const auto id = sharded.reserveJobId();
  const auto decision =
      sharded.submit(id, wideJob("wide", 20, 12, 50.0, 1000.0), 0, &effective);
  ASSERT_TRUE(decision.admitted);
  // Gang maximizes achieved quality: the full 20-wide chain fits an idle
  // machine, so the lean chain is not taken.
  EXPECT_EQ(decision.schedule.chainIndex, 0u);
  EXPECT_EQ(decision.quality, 1.0);
  EXPECT_EQ(decision.chainsConsidered, 2);
  EXPECT_EQ(decision.chainsSchedulable, 2);
  // The decision surface is the full-width schedule, not the fragments.
  ASSERT_EQ(decision.schedule.placements.size(), 1u);
  EXPECT_EQ(decision.schedule.placements[0].processors, 20);
  EXPECT_EQ(effective, 0);

  // 20 processors over 8-wide shards needs at least three fragments, each
  // pinned under the job's own id.
  EXPECT_GE(fragmentCount(sharded, id), 3);
  EXPECT_EQ(liveShards(sharded, id), fragmentCount(sharded, id));
  EXPECT_EQ(sharded.gangAdmittedCount(), 1u);
  EXPECT_EQ(sharded.admittedCount(), 1u);
  EXPECT_EQ(sharded.rejectedCount(), 0u);
  EXPECT_TRUE(sharded.verify().ok);

  EXPECT_EQ(metrics.gangAttempts->value(), 1u);
  EXPECT_EQ(metrics.gangAdmitted->value(), 1u);
  EXPECT_EQ(metrics.gangRollbacks->value(), 0u);
  // 20 processors over 8-wide shards needs at least three fragments.
  EXPECT_GE(metrics.gangFragmentsPlaced->value(), 3u);
}

TEST(GangAdmission, DisabledWideJobStaysRejected) {
  ShardedOptions options;
  options.shards = 4;  // gang defaults off
  ShardedArbitrator sharded(32, options);
  EXPECT_FALSE(sharded.submit(wideJob("wide", 20, 12, 50.0, 1000.0), 0)
                   .admitted);
  EXPECT_EQ(liveShards(sharded, sharded.lastJobId().value()), 0);
  EXPECT_EQ(sharded.rejectedCount(), 1u);
}

TEST(GangAdmission, NotUsedWhenAChainFitsASingleShard) {
  ShardedArbitrator sharded(32, gangOptions(4));
  // The lean chain (4 wide) fits a shard, so the job is not gang-eligible:
  // the regular home/spill path owns it, preserving existing decisions.
  TunableJobSpec spec = wideJob("mixed", 20, 12, 50.0, 1000.0);
  spec.chains[1].tasks[0] = TaskSpec::rigid("l", 4, u(50.0), u(1000.0), 0.7);
  const auto decision = sharded.submit(spec, 0);
  ASSERT_TRUE(decision.admitted);
  EXPECT_EQ(decision.schedule.chainIndex, 1u);  // home shard took the lean
  const auto id = sharded.lastJobId().value();
  EXPECT_TRUE(sharded.shard(sharded.homeShard(id)).live(id));
  EXPECT_EQ(liveShards(sharded, id), 1);
  EXPECT_EQ(fragmentCount(sharded, id), 0);
  EXPECT_EQ(sharded.gangAdmittedCount(), 0u);
}

TEST(GangAdmission, FallsBackToLeanChainUnderLoad) {
  ShardedArbitrator sharded(32, gangOptions(4));
  // Occupy 2 of 4 shards fully for [0, 100): ids 0,1 land on shards 0,1.
  for (int k = 0; k < 2; ++k) {
    ASSERT_TRUE(
        sharded.submit(rigidJob("fill", 8, 100.0, 1000.0), 0).admitted);
  }
  // Machine-wide availability in [0, 100) is 16: the 20-wide full chain
  // must wait for the fill jobs (start 100, finish 150 — past the 120
  // deadline), but the 12-wide lean chain starts immediately.  Gang
  // admission degrades quality exactly like the paper's tunable admission.
  const auto decision =
      sharded.submit(wideJob("wide", 20, 12, 50.0, 120.0), 0);
  ASSERT_TRUE(decision.admitted);
  EXPECT_EQ(decision.schedule.chainIndex, 1u);
  EXPECT_EQ(decision.quality, 0.7);
  ASSERT_EQ(decision.schedule.placements.size(), 1u);
  EXPECT_EQ(decision.schedule.placements[0].interval.begin, 0);
  EXPECT_TRUE(sharded.verify().ok);
}

TEST(GangAdmission, RejectsWhenMachineCannotFit) {
  ShardedArbitrator sharded(32, gangOptions(4));
  obs::MetricsRegistry registry;
  auto metrics = obs::ShardedMetrics::fromRegistry(registry, "sharded");
  sharded.attachMetrics({}, &metrics);
  // 40 > 32 total: no gang plan exists at any start time.
  EXPECT_FALSE(
      sharded.submit(wideJob("huge", 40, 36, 10.0, 1000.0), 0).admitted);
  EXPECT_EQ(metrics.gangAttempts->value(), 1u);
  EXPECT_EQ(metrics.gangAdmitted->value(), 0u);
  EXPECT_EQ(liveShards(sharded, sharded.lastJobId().value()), 0);
  EXPECT_EQ(sharded.rejectedCount(), 1u);
  EXPECT_TRUE(sharded.verify().ok);
}

// The per-shard fragment surface restores the availability profile
// bit-for-bit on both failure paths: a reserve that does not fit, and an
// explicit abort of a reserve that did fit.
TEST(GangFragmentSurface, RollbackIsBitForBit) {
  QoSArbitrator arb(8);
  ASSERT_TRUE(arb.submit(rigidJob("base", 3, 40.0, 1000.0), 0).admitted);
  const std::string before = arb.profile().dump();

  // Misfit: the second placement exceeds capacity next to the base job.
  std::vector<sched::TaskPlacement> misfit = {
      {TimeInterval{u(0.0), u(10.0)}, 5, kTimeInfinity},
      {TimeInterval{u(10.0), u(30.0)}, 6, kTimeInfinity}};
  EXPECT_FALSE(arb.gangReserve(misfit));
  EXPECT_FALSE(arb.gangReserveOpen());
  EXPECT_EQ(arb.profile().dump(), before);

  // Fit, then abort: the partial reservation must also vanish exactly.
  std::vector<sched::TaskPlacement> fit = {
      {TimeInterval{u(0.0), u(10.0)}, 5, kTimeInfinity},
      {TimeInterval{u(40.0), u(60.0)}, 8, kTimeInfinity}};
  ASSERT_TRUE(arb.gangReserve(fit));
  EXPECT_TRUE(arb.gangReserveOpen());
  arb.gangAbort();
  EXPECT_FALSE(arb.gangReserveOpen());
  EXPECT_EQ(arb.profile().dump(), before);
  EXPECT_TRUE(arb.verify().ok);
}

TEST(GangFragmentSurface, CommitRegistersAPinnedCancellableJob) {
  QoSArbitrator arb(8);
  TunableJobSpec spec = rigidJob("gangling", 20, 20.0, 1000.0);
  std::vector<sched::TaskPlacement> fragments = {
      {TimeInterval{u(0.0), u(20.0)}, 6, u(1000.0)}};
  ASSERT_TRUE(arb.gangReserve(fragments));
  arb.gangCommit(7, std::make_shared<const task::JobShape>(spec), 0, 1.0, 0,
                 fragments, {0});
  EXPECT_FALSE(arb.gangReserveOpen());
  EXPECT_EQ(arb.admittedCount(), 1u);
  // Registered under the caller's id, and pinned: the fragment never shows
  // up as an elastic candidate.
  EXPECT_TRUE(arb.live(7));
  EXPECT_TRUE(arb.pinned(7));
  EXPECT_TRUE(arb.elasticCandidates(false).empty());
  // Cancel frees exactly the fragment's area.
  EXPECT_EQ(arb.cancel(7), 6 * u(20.0));
  EXPECT_FALSE(arb.live(7));
  EXPECT_FALSE(arb.pinned(7));
  EXPECT_TRUE(arb.verify().ok);
}

TEST(GangAdmission, CancelReleasesEveryFragment) {
  ShardedArbitrator sharded(32, gangOptions(4));
  const auto id = sharded.reserveJobId();
  ASSERT_TRUE(
      sharded.submit(id, wideJob("wide", 20, 12, 50.0, 1000.0), 0).admitted);

  ASSERT_GE(fragmentCount(sharded, id), 3);

  // Cancelling the gang frees the full committed area across all shards,
  // and no shard holds the id any more.
  EXPECT_EQ(sharded.cancel(id), 20 * u(50.0));
  EXPECT_EQ(liveShards(sharded, id), 0);
  // Every fragment is genuinely gone: each shard's profile is idle again,
  // so a second identical gang admission fits at the same slot.
  const auto again = sharded.submit(wideJob("wide2", 20, 12, 50.0, 1000.0), 0);
  ASSERT_TRUE(again.admitted);
  EXPECT_EQ(again.schedule.placements[0].interval.begin, 0);
  EXPECT_TRUE(sharded.verify().ok);
  // A repeated cancel misses, like any unknown job.
  EXPECT_EQ(sharded.cancel(id), 0);
}

TEST(GangAdmission, ResizeDropCancelsEverySibling) {
  ShardedArbitrator sharded(32, gangOptions(4));
  const auto id = sharded.reserveJobId();
  ASSERT_TRUE(
      sharded.submit(id, wideJob("wide", 24, 20, 500.0, 10000.0), 0)
          .admitted);

  // Shrinking to 16 (4 per shard) cannot keep 24 reserved processors: the
  // gang drops as one job, and no orphan fragment survives on any shard.
  const auto report = sharded.resize(16, u(1.0));
  ASSERT_EQ(report.dropped.size(), 1u);
  EXPECT_EQ(report.dropped[0], id);
  EXPECT_TRUE(report.kept.empty());
  EXPECT_TRUE(report.reconfigured.empty());
  EXPECT_EQ(liveShards(sharded, id), 0);
  EXPECT_EQ(sharded.cancel(id), 0);  // nothing left to free anywhere
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(sharded.shard(k).profile().busyProcessorTicks(
                  TimeInterval{u(1.0), u(1000.0)}),
              0) << "orphan fragment on shard " << k;
  }
  EXPECT_TRUE(sharded.verify().ok);
}

TEST(GangAdmission, ResizeDropOnOneShardCancelsTheSurvivingSiblings) {
  ShardedArbitrator sharded(32, gangOptions(4));
  const auto id = sharded.reserveJobId();
  ASSERT_TRUE(
      sharded.submit(id, wideJob("wide", 20, 12, 50.0, 1000.0), 0).admitted);
  // Greedy fragmentation in index order: 8 + 8 + 4 on shards 0, 1, 2.
  ASSERT_TRUE(sharded.shard(0).pinned(id));
  ASSERT_TRUE(sharded.shard(2).pinned(id));
  ASSERT_FALSE(sharded.shard(3).live(id));

  // At 6 per shard the 8-wide fragments no longer fit, but shard 2's
  // 4-wide one does.  Its shard keeps it, so the sharded layer must cancel
  // it: the gang drops whole and is not also reported kept.
  const auto report = sharded.resize(24, 0);
  ASSERT_EQ(report.dropped.size(), 1u);
  EXPECT_EQ(report.dropped[0], id);
  EXPECT_TRUE(report.kept.empty());
  EXPECT_EQ(liveShards(sharded, id), 0);
  EXPECT_EQ(sharded.shard(2).profile().busyProcessorTicks(
                TimeInterval{0, u(1000.0)}),
            0);
  EXPECT_TRUE(sharded.verify().ok);
}

TEST(GangAdmission, ResizeKeepsGangVerbatimWhenItStillFits) {
  ShardedArbitrator sharded(32, gangOptions(4));
  const auto id = sharded.reserveJobId();
  ASSERT_TRUE(
      sharded.submit(id, wideJob("wide", 20, 12, 50.0, 1000.0), 0).admitted);
  const int fragments = fragmentCount(sharded, id);
  ASSERT_GE(fragments, 3);
  // Growing the machine keeps every fragment verbatim: the gang survives
  // the renegotiation as one kept job.
  const auto report = sharded.resize(40, 0);
  ASSERT_EQ(report.kept.size(), 1u);
  EXPECT_EQ(report.kept[0], id);
  EXPECT_TRUE(report.dropped.empty());
  EXPECT_EQ(fragmentCount(sharded, id), fragments);
  // Still cancellable as one job afterwards.
  EXPECT_EQ(sharded.cancel(id), 20 * u(50.0));
  EXPECT_TRUE(sharded.verify().ok);
}

/// Records every candidate the arbitrator offers; demotes in offered order.
class RecordingPolicy : public ReshapePolicy {
 public:
  std::vector<std::uint64_t> demotionOrder(
      const std::vector<ElasticCandidate>& candidates,
      Time) const override {
    return record(candidates);
  }
  std::vector<std::uint64_t> promotionOrder(
      const std::vector<ElasticCandidate>& demoted) const override {
    return record(demoted);
  }
  std::vector<std::uint64_t> seen() const {
    std::lock_guard<std::mutex> lock(mu_);
    return seen_;
  }

 private:
  std::vector<std::uint64_t> record(
      const std::vector<ElasticCandidate>& candidates) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::uint64_t> order;
    for (const auto& candidate : candidates) {
      seen_.push_back(candidate.jobId);
      order.push_back(candidate.jobId);
    }
    return order;
  }
  mutable std::mutex mu_;
  mutable std::vector<std::uint64_t> seen_;
};

TEST(GangAdmission, ElasticReshapeNeverTouchesAFragment) {
  ShardedArbitrator sharded(32, gangOptions(4));
  RecordingPolicy policy;
  sharded.attachReshapePolicy(&policy);

  const auto gangId = sharded.reserveJobId();
  ASSERT_TRUE(
      sharded.submit(gangId, wideJob("wide", 20, 12, 300.0, 10000.0), 0)
          .admitted);
  const int fragments = fragmentCount(sharded, gangId);
  ASSERT_GE(fragments, 3);

  // Saturate the shards with malleable-looking two-chain jobs, then push
  // rejections through so the elastic layer hunts for victims everywhere.
  std::vector<QualityMove> moves;
  for (int j = 0; j < 24; ++j) {
    Time effective = 0;
    (void)sharded.submit(sharded.reserveJobId(),
                         wideJob("pressure", 6, 3, 80.0, 200.0), 0,
                         &effective, &moves);
  }
  // The reshaper did engage (the policy saw candidates), but fragments are
  // pinned out of the candidate set: the policy, which sees the same global
  // ids the shards key their jobs by, never saw the gang's id, and no
  // committed move names it.
  const auto seen = policy.seen();
  EXPECT_FALSE(seen.empty());
  EXPECT_EQ(std::count(seen.begin(), seen.end(), gangId), 0)
      << "policy offered a gang fragment";
  for (const auto& move : moves) {
    EXPECT_NE(move.jobId, gangId) << "gang fragment moved";
  }
  EXPECT_EQ(fragmentCount(sharded, gangId), fragments);
  EXPECT_TRUE(sharded.verify().ok);
  // The gang is still whole at full width: cancel frees the entire area a
  // 20-wide 300-unit reservation holds — any demotion of any fragment
  // would have shrunk it.
  EXPECT_EQ(sharded.cancel(gangId), 20 * u(300.0));
}

// Deadlock-freedom: wide (gang) submits take every shard lock in index
// order; narrow submits and cancels take single shard locks; rebalance
// takes them all.  Run them concurrently from several threads — under TSan
// this doubles as a lock-order and data-race check.
TEST(GangAdmission, ConcurrentWideSubmitsFromBothDirectionsMakeProgress) {
  ShardedArbitrator sharded(32, gangOptions(4));
  constexpr int kPerThread = 24;
  // Admitted wide jobs per wide submitter: {id, cancelled}.  Every submit
  // releases at 0, so nothing retires: a job left alone stays live.
  std::vector<std::pair<std::uint64_t, bool>> admitted[2];

  auto wideSubmitter = [&](int submitter, double durationUnits) {
    for (int i = 0; i < kPerThread; ++i) {
      const auto id = sharded.reserveJobId();
      const auto decision = sharded.submit(
          id, wideJob("w", 20, 12, durationUnits, 100000.0), 0);
      if (decision.admitted) {
        const bool cancel = i % 2 == 0;
        if (cancel) (void)sharded.cancel(id);
        admitted[submitter].push_back({id, cancel});
      }
    }
  };
  auto narrowSubmitter = [&] {
    for (int i = 0; i < kPerThread; ++i) {
      const auto id = sharded.reserveJobId();
      if (sharded.submit(id, rigidJob("n", 2, 5.0, 100000.0), 0).admitted &&
          i % 3 == 0) {
        (void)sharded.cancel(id);
      }
    }
  };
  auto rebalancer = [&] {
    for (int i = 0; i < kPerThread; ++i) (void)sharded.rebalance(0);
  };

  std::vector<std::thread> threads;
  threads.emplace_back(wideSubmitter, 0, 10.0);
  threads.emplace_back(wideSubmitter, 1, 20.0);
  threads.emplace_back(narrowSubmitter);
  threads.emplace_back(rebalancer);
  for (auto& thread : threads) thread.join();

  EXPECT_GT(admitted[0].size() + admitted[1].size(), 0u);
  for (const auto& submitter : admitted) {
    for (const auto& [id, cancelled] : submitter) {
      if (cancelled) {
        EXPECT_EQ(liveShards(sharded, id), 0) << "job " << id;
      } else {
        // A gang lives only as pinned fragments.  A rebalance can grow one
        // shard wide enough to take the lean chain whole, and then the job
        // is an ordinary job on that one shard.
        const int fragments = fragmentCount(sharded, id);
        EXPECT_EQ(liveShards(sharded, id), fragments > 0 ? fragments : 1)
            << "job " << id;
      }
    }
  }
  EXPECT_TRUE(sharded.verify().ok);
}

// Two threads cancel the same gang at once.  The scan locks each next shard
// before releasing the previous one, so the later cancel trails the earlier
// one through every shard: one call frees the whole gang, the other none.
TEST(GangAdmission, ConcurrentCancelsOfAGangFreeItOnce) {
  for (int round = 0; round < 200; ++round) {
    ShardedArbitrator sharded(32, gangOptions(4));
    const auto id = sharded.reserveJobId();
    ASSERT_TRUE(
        sharded.submit(id, wideJob("wide", 20, 12, 50.0, 1000.0), 0)
            .admitted);
    ASSERT_GE(fragmentCount(sharded, id), 3);

    std::atomic<bool> go{false};
    std::int64_t freed[2] = {0, 0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) {
        }
        freed[t] = sharded.cancel(id);
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& thread : threads) thread.join();

    EXPECT_EQ((freed[0] > 0) + (freed[1] > 0), 1) << "round " << round;
    EXPECT_EQ(freed[0] + freed[1], 20 * u(50.0)) << "round " << round;
    EXPECT_EQ(liveShards(sharded, id), 0) << "round " << round;
    EXPECT_TRUE(sharded.verify().ok);
  }
}

}  // namespace
}  // namespace tprm::qos
