// Golden pin of whole decision streams *including placements*.
//
// ShardedFlashCrowdGolden hashes only each decision's chain and quality;
// this pin also hashes every placement's begin, end and processor count,
// so a change that keeps the chosen chain but moves a task in time (or
// changes its width) shows up as a diff.  Three streams cover the
// machinery that composes with the admission walk: a 4-shard heavy-tailed
// stream with spill and cross-shard gang admission, an elastic flash crowd
// whose Reshaper moves (victim shrink, then newcomer admission inside one
// trial) are hashed too, and a malleable Figure-4 stream under both
// malleable policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "elastic/reshaper.h"
#include "qos/sharded.h"
#include "workload/fig4.h"
#include "workload/scenario.h"

namespace tprm::qos {
namespace {

class Fingerprint {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void addQuality(double q) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(q));
    std::memcpy(&bits, &q, sizeof(bits));
    add(bits);
  }
  void addSchedule(const sched::ChainSchedule& schedule) {
    add(schedule.chainIndex);
    add(schedule.placements.size());
    for (const auto& p : schedule.placements) {
      add(static_cast<std::uint64_t>(p.interval.begin));
      add(static_cast<std::uint64_t>(p.interval.end));
      add(static_cast<std::uint64_t>(p.processors));
    }
  }
  void addDecision(std::uint64_t jobId,
                   const sched::AdmissionDecision& decision) {
    add(jobId);
    add(decision.admitted ? 1 : 0);
    if (!decision.admitted) return;
    addQuality(decision.quality);
    addSchedule(decision.schedule);
  }
  void addMove(const QualityMove& move) {
    add(move.jobId);
    add(move.promotion ? 1 : 0);
    add(move.fromChain);
    add(move.toChain);
    addQuality(move.toQuality);
    addSchedule(move.schedule);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

struct StreamResult {
  std::uint64_t fingerprint = 0;
  std::uint64_t admitted = 0;
  std::uint64_t placements = 0;
  std::uint64_t spills = 0;
  std::uint64_t gangs = 0;
  std::uint64_t moves = 0;
};

/// Gives each job a tenant of the canonical gold/silver/bronze mix and
/// drops the chains below its floor (gold keeps only its full-width chain,
/// which is what makes a job gang-eligible).
void applyTenantFloors(workload::Scenario& scenario, std::uint64_t seed) {
  scenario.tenants = workload::defaultTenants();
  double totalWeight = 0.0;
  for (const auto& tenant : scenario.tenants) totalWeight += tenant.weight;
  Rng rng(seed);
  for (auto& job : scenario.jobs) {
    double pick = rng.uniform01() * totalWeight;
    std::size_t chosen = scenario.tenants.size() - 1;
    for (std::size_t k = 0; k < scenario.tenants.size(); ++k) {
      pick -= scenario.tenants[k].weight;
      if (pick <= 0.0) {
        chosen = k;
        break;
      }
    }
    const double floor = scenario.tenants[chosen].qualityFloor;
    auto& chains = job.spec.chains;
    chains.erase(std::remove_if(chains.begin() + 1, chains.end(),
                                [floor](const task::Chain& chain) {
                                  return chain.quality() < floor;
                                }),
                 chains.end());
  }
}

StreamResult runShardedHeavyTailed() {
  auto params = workload::scenarioByName("heavy-tailed", 3, 1500);
  params->baseRate *= 2.0;
  auto scenario = workload::ScenarioGenerator(*params).generate();
  applyTenantFloors(scenario, 11);

  ShardedOptions options;
  options.shards = 4;
  options.spill = true;
  options.gang = true;
  ShardedArbitrator arbitrator(40, options);
  StreamResult result;
  Fingerprint fp;
  for (const auto& job : scenario.jobs) {
    const std::uint64_t jobId = arbitrator.reserveJobId();
    const auto decision = arbitrator.submit(jobId, job.spec, job.release);
    fp.addDecision(jobId, decision);
    if (decision.admitted) {
      result.placements += decision.schedule.placements.size();
    }
  }
  EXPECT_TRUE(arbitrator.verify().ok);
  result.fingerprint = fp.value();
  result.admitted = arbitrator.admittedCount();
  result.spills = arbitrator.spillCount();
  result.gangs = arbitrator.gangAdmittedCount();
  return result;
}

StreamResult runElasticFlashCrowd() {
  const auto params = workload::scenarioByName("flash-crowd", 7, 800);
  const auto scenario = workload::ScenarioGenerator(*params).generate();
  const elastic::Reshaper reshaper(elastic::VictimPolicy::MinQualityLoss);
  ShardedOptions options;
  options.shards = 1;
  ShardedArbitrator arbitrator(32, options);
  arbitrator.attachReshapePolicy(&reshaper);

  StreamResult result;
  Fingerprint fp;
  std::vector<QualityMove> moves;
  for (std::size_t i = 0; i < scenario.jobs.size(); ++i) {
    const auto& job = scenario.jobs[i];
    const std::uint64_t jobId = arbitrator.reserveJobId();
    moves.clear();
    const auto decision =
        arbitrator.submit(jobId, job.spec, job.release, nullptr, &moves);
    fp.addDecision(jobId, decision);
    if (decision.admitted) {
      result.placements += decision.schedule.placements.size();
    }
    // After every tenth submit the previous job is cancelled: the freed
    // capacity feeds promotion passes, so moves run in both directions.
    if (i % 10 == 9 && jobId > 1) {
      const std::int64_t freed = arbitrator.cancel(jobId - 1, &moves);
      fp.add(static_cast<std::uint64_t>(freed));
    }
    for (const auto& move : moves) fp.addMove(move);
    result.moves += moves.size();
  }
  EXPECT_TRUE(arbitrator.verify().ok);
  result.fingerprint = fp.value();
  result.admitted = arbitrator.admittedCount();
  return result;
}

StreamResult runMalleable(sched::MalleablePolicy policy) {
  workload::Fig4Params fig4;
  fig4.malleable = true;
  fig4.laxity = 0.3;
  const auto jobs = workload::makeFig4PoissonStream(
      fig4, workload::Fig4Shape::Tunable, /*meanInterarrivalUnits=*/12.0,
      /*count=*/1500, /*seed=*/5);
  ShardedOptions options;
  options.shards = 1;
  options.greedy.malleable = true;
  options.greedy.malleablePolicy = policy;
  ShardedArbitrator arbitrator(32, options);

  StreamResult result;
  Fingerprint fp;
  for (const auto& job : jobs) {
    const std::uint64_t jobId = arbitrator.reserveJobId();
    const auto decision = arbitrator.submit(jobId, job.spec, job.release);
    fp.addDecision(jobId, decision);
    if (decision.admitted) {
      result.placements += decision.schedule.placements.size();
    }
  }
  EXPECT_TRUE(arbitrator.verify().ok);
  result.fingerprint = fp.value();
  result.admitted = arbitrator.admittedCount();
  return result;
}

// The pinned constants were taken from the reserve-and-roll-back evaluator
// that preceded the read-only chain planner; both produce them.
TEST(PlacementGolden, ShardedSpillGangHeavyTailed) {
  const StreamResult run = runShardedHeavyTailed();
  EXPECT_EQ(run.fingerprint, 0x1cefbe5fda3e9074ULL);
  EXPECT_EQ(run.admitted, 1130u);
  EXPECT_EQ(run.placements, 2260u);
  EXPECT_EQ(run.spills, 255u);
  EXPECT_EQ(run.gangs, 18u);
}

TEST(PlacementGolden, ElasticFlashCrowdWithReshaperMoves) {
  const StreamResult run = runElasticFlashCrowd();
  EXPECT_EQ(run.fingerprint, 0xfc03d52a30300436ULL);
  EXPECT_EQ(run.admitted, 683u);
  EXPECT_EQ(run.placements, 1366u);
  EXPECT_EQ(run.moves, 241u);
}

TEST(PlacementGolden, MalleableWidestFit) {
  const StreamResult run = runMalleable(sched::MalleablePolicy::WidestFit);
  EXPECT_EQ(run.fingerprint, 0x743986e2a9072fe9ULL);
  EXPECT_EQ(run.admitted, 621u);
  EXPECT_EQ(run.placements, 1242u);
}

TEST(PlacementGolden, MalleableEarliestFinish) {
  const StreamResult run =
      runMalleable(sched::MalleablePolicy::EarliestFinish);
  EXPECT_EQ(run.fingerprint, 0x5340c5cbe21e826bULL);
  EXPECT_EQ(run.admitted, 572u);
  EXPECT_EQ(run.placements, 1144u);
}

}  // namespace
}  // namespace tprm::qos
