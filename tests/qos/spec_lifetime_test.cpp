// Admission borrows the caller's spec only for the call: every spec here is
// destroyed as soon as its submit returns, and the live jobs are then
// renegotiated, rebalanced, cancelled, promoted and gang-cancelled — all of
// which read the job's stored copy.  A reference left to a caller's spec
// would read freed memory, which the ASan/UBSan build reports.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "elastic/reshaper.h"
#include "qos/sharded.h"

namespace tprm::qos {
namespace {

using task::Chain;
using task::TaskSpec;
using task::TunableJobSpec;

Time u(double units) { return ticksFromUnits(units); }

/// A two-rung tunable job, built on the heap so it can die right after its
/// submit: "full" holds a whole 8-processor shard for 50 units (deadline
/// 80), "lean" 2 processors for 100 units.  Long names keep the strings
/// out of the small-string buffer, so a dangling read hits freed heap.
std::unique_ptr<TunableJobSpec> twoRung(int id) {
  auto spec = std::make_unique<TunableJobSpec>();
  spec->name = "two-rung-job-with-a-long-heap-allocated-name-" +
               std::to_string(id);
  Chain full;
  full.name = "full-quality-chain-with-a-long-name";
  full.tasks = {
      TaskSpec::rigid("full-task-with-a-long-name", 8, u(50.0), u(80.0))};
  full.bindings = {{"processors", 8}};
  Chain lean;
  lean.name = "lean-quality-chain-with-a-long-name";
  lean.tasks = {TaskSpec::rigid("lean-task-with-a-long-name", 2, u(100.0),
                                u(400.0), 0.5)};
  lean.bindings = {{"processors", 2}};
  spec->chains = {full, lean};
  return spec;
}

/// A rigid job: `processors` for `duration` units within `deadline`.
std::unique_ptr<TunableJobSpec> rigidJob(int id, int processors,
                                         double duration, double deadline) {
  auto spec = std::make_unique<TunableJobSpec>();
  spec->name = "rigid-job-with-a-long-heap-allocated-name-" +
               std::to_string(id);
  Chain chain;
  chain.name = "only-chain-with-a-long-name";
  chain.tasks = {TaskSpec::rigid("only-task-with-a-long-name", processors,
                                 u(duration), u(deadline))};
  spec->chains = {chain};
  return spec;
}

/// Two rungs that both fit a healthy shard: "wide" 6 processors for 10
/// units, or "narrow" 3 for 20.  Only "narrow" survives a shrink to 4.
std::unique_ptr<TunableJobSpec> wideOrNarrow(int id) {
  auto spec = std::make_unique<TunableJobSpec>();
  spec->name = "wide-or-narrow-job-with-a-long-heap-allocated-name-" +
               std::to_string(id);
  Chain wide;
  wide.name = "wide-chain-with-a-long-name";
  wide.tasks = {
      TaskSpec::rigid("wide-task-with-a-long-name", 6, u(10.0), u(400.0))};
  Chain narrow;
  narrow.name = "narrow-chain-with-a-long-name";
  narrow.tasks = {TaskSpec::rigid("narrow-task-with-a-long-name", 3, u(20.0),
                                  u(400.0), 0.6)};
  spec->chains = {wide, narrow};
  return spec;
}

TEST(SpecLifetime, LiveJobsOutliveTheCallersSpecs) {
  constexpr int kShards = 4;
  ShardedOptions options;
  options.shards = kShards;
  options.gang = true;
  ShardedArbitrator arb(8 * kShards, options);
  const elastic::Reshaper reshaper;
  arb.attachReshapePolicy(&reshaper);

  std::vector<QualityMove> moves;
  Time release = 0;
  // Submits a spec that dies as soon as the call returns.
  auto submit = [&](std::unique_ptr<TunableJobSpec> spec) {
    const std::uint64_t id = arb.reserveJobId();
    const bool admitted =
        arb.submit(id, *spec, release, nullptr, &moves).admitted;
    spec.reset();
    return admitted;
  };
  auto count = [&](bool promotion) {
    int n = 0;
    for (const auto& move : moves) n += move.promotion == promotion ? 1 : 0;
    return n;
  };

  // Ids 0..3: a two-rung job fills each shard on its full rung.  Ids 4..7:
  // a tight newcomer on each shard, admitted by demoting it to lean.
  for (int k = 0; k < kShards; ++k) ASSERT_TRUE(submit(twoRung(k)));
  for (int k = 0; k < kShards; ++k) {
    ASSERT_TRUE(submit(rigidJob(kShards + k, 4, 40.0, 60.0)));
  }
  EXPECT_EQ(count(/*promotion=*/false), kShards);
  // Cancelling the newcomers frees their shards: each demoted job is
  // promoted back from its stored spec.
  for (std::uint64_t id = kShards; id < 2 * kShards; ++id) {
    (void)arb.cancel(id, &moves);
  }
  EXPECT_EQ(count(/*promotion=*/true), kShards);

  // Id 8: wider than a shard, so only a gang fits; cancelling it releases
  // its fragment on every shard.
  ASSERT_TRUE(submit(rigidJob(8, 10, 20.0, 400.0)));
  ASSERT_EQ(arb.gangAdmittedCount(), 1u);
  EXPECT_GT(arb.cancel(8, &moves), 0);

  // Ids 9..12 queue behind the full rungs on their wide chain; id 13 is a
  // second gang.
  release = u(1.0);
  for (int k = 0; k < kShards; ++k) ASSERT_TRUE(submit(wideOrNarrow(9 + k)));
  ASSERT_TRUE(submit(rigidJob(13, 10, 20.0, 400.0)));
  EXPECT_EQ(arb.gangAdmittedCount(), 2u);

  // Rebalance, then shrink every shard to 4 processors: the queued jobs
  // are re-placed on their narrow chain from the stored spec.
  (void)arb.rebalance(u(1.0));
  const auto shrink = arb.resize(4 * kShards, u(2.0));
  EXPECT_EQ(shrink.reconfigured.size(), static_cast<std::size_t>(kShards));
  const auto grow = arb.resize(8 * kShards, u(3.0));
  EXPECT_TRUE(grow.dropped.empty());

  // The machine keeps admitting and cancelling afterwards.
  release = u(4.0);
  for (int k = 0; k < kShards; ++k) (void)submit(twoRung(20 + k));
  (void)submit(rigidJob(30, 10, 20.0, 400.0));
  for (std::uint64_t id = 0; id < arb.peekNextJobId(); ++id) {
    (void)arb.cancel(id, &moves);
  }
  EXPECT_TRUE(arb.verify().ok);
}

}  // namespace
}  // namespace tprm::qos
