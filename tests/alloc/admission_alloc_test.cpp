// Allocation budget of the admission path, counted by a global operator new.
//
// Planning reads the caller's spec through a per-thread scratch
// task::JobShape; only an admission stores anything of the job, one compact
// shape (two allocations with its control block), shared by every gang
// fragment of the job.  These tests pin that:
//  * a rejected submit that is not gang-eligible allocates nothing, with
//    one shard and with four (home shard, spill scoring, spill submit, the
//    gang eligibility check);
//  * a home admission allocates one shape plus fixed bookkeeping, and
//    nothing that grows with the spec's names or bindings;
//  * a gang admission stores one shape for all of its fragments;
//  * a heavy-tailed stream stays within a per-submit budget;
//  * an elastic move attempt builds its quality band without allocating;
//  * a wire admission moves the granted chain's bindings into the result.
//
// Sanitizer builds replace the allocator, so there the counting operator
// new is left out and every test skips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "qos/sharded.h"
#include "service/server.h"
#include "workload/scenario.h"

namespace {

// Allocations made by this thread since it started.
thread_local std::uint64_t tAllocations = 0;

}  // namespace

#ifndef TPRM_ALLOC_COUNTING_DISABLED

namespace {

// Every replaced form goes through these two, so GCC never pairs a free
// with an operator new it inlined and warns about a mismatch.
[[gnu::noinline]] void* countedAllocate(std::size_t bytes) {
  ++tAllocations;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void countedFree(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t bytes) { return countedAllocate(bytes); }
void* operator new[](std::size_t bytes) { return countedAllocate(bytes); }
void operator delete(void* p) noexcept { countedFree(p); }
void operator delete[](void* p) noexcept { countedFree(p); }
void operator delete(void* p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { countedFree(p); }

#endif

namespace tprm::qos {
namespace {

using task::Chain;
using task::JobShape;
using task::TaskSpec;
using task::TunableJobSpec;

#ifdef TPRM_ALLOC_COUNTING_DISABLED
#define SKIP_WITHOUT_COUNTING() \
  GTEST_SKIP() << "the sanitizer's allocator replaces operator new"
#else
#define SKIP_WITHOUT_COUNTING() (void)0
#endif

/// Heap allocations `fn` makes on this thread.
template <typename Fn>
std::uint64_t allocationsOf(Fn&& fn) {
  const std::uint64_t before = tAllocations;
  fn();
  return tAllocations - before;
}

Time u(double units) { return ticksFromUnits(units); }

/// A three-chain tunable job (widths `widest`, their midpoint, `narrowest`)
/// whose names are too long for the small-string buffer and whose chains
/// carry bindings, so one copy of it costs many allocations: a second copy
/// anywhere on the path would break a budget.
TunableJobSpec tunableJob(int widest, int narrowest, double deadlineUnits) {
  TunableJobSpec spec;
  spec.name = "tunable-job-with-a-name-longer-than-sso";
  const int widths[] = {widest, (widest + narrowest) / 2, narrowest};
  for (int c = 0; c < 3; ++c) {
    Chain chain;
    chain.name = "chain-with-a-name-longer-than-sso-" + std::to_string(c);
    const int procs = widths[c];
    chain.tasks = {
        TaskSpec::rigid("first-task-with-a-long-name", procs,
                        u(5.0 * (1 << c)), u(deadlineUnits)),
        TaskSpec::rigid("second-task-with-a-long-name", procs,
                        u(5.0 * (1 << c)), u(deadlineUnits),
                        1.0 - 0.2 * c)};
    chain.bindings = {{"procs", procs}, {"chain", c}};
    spec.chains.push_back(chain);
  }
  return spec;
}

/// A one-chain rigid job.
TunableJobSpec rigidJob(int procs, double durationUnits,
                        double deadlineUnits) {
  TunableJobSpec spec;
  spec.name = "rigid-job-with-a-name-longer-than-sso";
  Chain chain;
  chain.name = "only-chain-with-a-long-name";
  chain.tasks = {TaskSpec::rigid("rigid-task-with-a-long-name", procs,
                                 u(durationUnits), u(deadlineUnits))};
  spec.chains = {chain};
  return spec;
}

/// The same job with every name short enough for the small-string buffer
/// and no bindings: it plans identically, and one copy of it allocates less.
TunableJobSpec withShortNames(TunableJobSpec spec) {
  spec.name = "j";
  for (auto& chain : spec.chains) {
    chain.name = "c";
    chain.bindings.clear();
    for (auto& task : chain.tasks) task.name = "t";
  }
  return spec;
}

std::uint64_t specCopyAllocations(const TunableJobSpec& spec) {
  return allocationsOf([&] {
    const TunableJobSpec copy(spec);
    (void)copy;
  });
}

/// True iff `shape` holds exactly what planning reads of `spec`.
bool sameShape(const JobShape& shape, const TunableJobSpec& spec) {
  if (shape.chainCount() != spec.chains.size()) return false;
  for (std::size_t c = 0; c < spec.chains.size(); ++c) {
    const auto& chain = spec.chains[c];
    const auto tasks = shape.tasks(c);
    if (tasks.size() != chain.tasks.size() ||
        shape.chain(c).quality != chain.quality(spec.qualityComposition) ||
        shape.chain(c).maxProcessors != chain.maxProcessors()) {
      return false;
    }
    for (std::size_t k = 0; k < tasks.size(); ++k) {
      const auto& t = chain.tasks[k];
      if (tasks[k].request != t.request ||
          tasks[k].relativeDeadline != t.relativeDeadline ||
          tasks[k].malleable != t.malleable.has_value()) {
        return false;
      }
    }
  }
  return true;
}

// Fixed bookkeeping of an admission, in allocations.
/// The stored shape: its storage block, and the shared_ptr control block
/// make_shared allocates together with the shape object.
constexpr std::uint64_t kStoredShape = 2;
/// The schedule the decision returns.
constexpr std::uint64_t kDecisionSchedule = 1;
/// Per shard holding the job: the live job's placements, its ledger slots,
/// and its node in the live map.
constexpr std::uint64_t kLiveRecord = 3;
/// Per shard: headroom for amortized growth of the shard's logs (the
/// ledger's entries, the finish heap) that an admission may trigger.
constexpr std::uint64_t kAmortizedGrowth = 2;
/// Mean allocations per submit over the heavy-tailed stream below (5.17
/// when this bound was set).  A deep copy of this stream's average spec
/// costs 6.7 allocations, so one per admission would add about five per
/// submit.
constexpr double kBudgetPerSubmit = 5.5;

ShardedOptions options(int shards, bool gang) {
  ShardedOptions o;
  o.shards = shards;
  o.spill = true;
  o.gang = gang;
  return o;
}

class AdmissionAllocations : public ::testing::TestWithParam<int> {};

TEST_P(AdmissionAllocations, RejectedNarrowSubmitAllocatesNothing) {
  SKIP_WITHOUT_COUNTING();
  const int shards = GetParam();
  ShardedArbitrator arb(8 * shards, options(shards, /*gang=*/true));
  // Fill every shard for a long time, so a short-deadline job fits nowhere.
  for (int k = 0; k < shards; ++k) {
    const auto filler = rigidJob(8, 1000.0, 2000.0);
    ASSERT_TRUE(arb.submit(arb.reserveJobId(), filler, 0).admitted);
  }
  const auto doomed = tunableJob(4, 1, 50.0);
  // Warm-up: the planner's reusable buffers reach their steady size.
  for (int i = 0; i < 3; ++i) {
    ASSERT_FALSE(arb.submit(arb.reserveJobId(), doomed, u(1.0)).admitted);
  }
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t id = arb.reserveJobId();
    bool admitted = true;
    const auto allocations = allocationsOf(
        [&] { admitted = arb.submit(id, doomed, u(1.0)).admitted; });
    EXPECT_FALSE(admitted);
    EXPECT_EQ(allocations, 0u) << "rejected submit " << i;
  }
  EXPECT_EQ(arb.spillCount(), 0u);
  EXPECT_EQ(arb.gangAdmittedCount(), 0u);
}

// A home admission stores one shape and fixed bookkeeping, and the shape it
// stores is the spec's.
TEST_P(AdmissionAllocations, HomeAdmissionCopiesTheSpecOnce) {
  SKIP_WITHOUT_COUNTING();
  const int shards = GetParam();
  ShardedArbitrator arb(8 * shards, options(shards, /*gang=*/true));
  const auto spec = tunableJob(4, 1, 10000.0);
  ASSERT_GE(specCopyAllocations(spec), 10u);  // a spec copy would show
  const JobShape built(spec);
  EXPECT_EQ(allocationsOf([&] {
              const auto shared = std::make_shared<const JobShape>(built);
              (void)shared;
            }),
            kStoredShape);
  // Warm-up admissions size the planner's buffers on every shard.
  for (int i = 0; i < 2 * shards; ++i) {
    ASSERT_TRUE(arb.submit(arb.reserveJobId(), spec, 0).admitted);
  }
  for (int i = 0; i < 2 * shards; ++i) {
    const std::uint64_t id = arb.reserveJobId();
    bool admitted = false;
    const auto allocations = allocationsOf(
        [&] { admitted = arb.submit(id, spec, 0).admitted; });
    ASSERT_TRUE(admitted);
    EXPECT_EQ(arb.spillCount(), 0u);
    EXPECT_LE(allocations, kStoredShape + kDecisionSchedule + kLiveRecord +
                               kAmortizedGrowth)
        << "admission " << i;
    const auto* stored = arb.shard(arb.homeShard(id)).liveShape(id);
    ASSERT_NE(stored, nullptr);
    EXPECT_TRUE(sameShape(*stored, spec));
  }
}

// Nothing of the spec's names or bindings is stored: a job with long names
// and bindings allocates exactly what its short-named twin without bindings
// does.
TEST_P(AdmissionAllocations, SharedSpecIsStoredWithoutACopy) {
  SKIP_WITHOUT_COUNTING();
  const int shards = GetParam();
  const auto plain = tunableJob(4, 1, 10000.0);
  const auto twin = withShortNames(plain);
  ASSERT_GT(specCopyAllocations(plain), specCopyAllocations(twin));
  ShardedArbitrator arb(8 * shards, options(shards, /*gang=*/true));
  ShardedArbitrator twinArb(8 * shards, options(shards, /*gang=*/true));
  for (int i = 0; i < 2 * shards; ++i) {
    ASSERT_TRUE(arb.submit(arb.reserveJobId(), plain, 0).admitted);
    ASSERT_TRUE(twinArb.submit(twinArb.reserveJobId(), twin, 0).admitted);
  }
  for (int i = 0; i < 2 * shards; ++i) {
    const std::uint64_t id = arb.reserveJobId();
    ASSERT_EQ(twinArb.reserveJobId(), id);
    bool admitted = false;
    bool twinAdmitted = false;
    const auto allocations = allocationsOf(
        [&] { admitted = arb.submit(id, plain, 0).admitted; });
    const auto twinAllocations = allocationsOf(
        [&] { twinAdmitted = twinArb.submit(id, twin, 0).admitted; });
    ASSERT_TRUE(admitted);
    ASSERT_TRUE(twinAdmitted);
    EXPECT_EQ(allocations, twinAllocations) << "admission " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, AdmissionAllocations,
                         ::testing::Values(1, 4));

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

TEST(StreamAllocations, HeavyTailedStreamWithTenantFloorsStaysInBudget) {
  SKIP_WITHOUT_COUNTING();
  auto params = workload::scenarioByName("heavy-tailed", 1, 2000);
  params->baseRate *= 2.0;
  auto scenario = workload::ScenarioGenerator(*params).generate();
  applyTenantFloors(scenario, 1);
  ShardedArbitrator arb(40, options(4, /*gang=*/true));
  std::uint64_t allocations = 0;
  std::uint64_t admitted = 0;
  for (const auto& job : scenario.jobs) {
    const std::uint64_t id = arb.reserveJobId();
    allocations += allocationsOf([&] {
      if (arb.submit(id, job.spec, job.release).admitted) ++admitted;
    });
  }
  ASSERT_GT(admitted, 0u);
  ASSERT_LT(admitted, scenario.jobs.size());
  EXPECT_GT(arb.spillCount(), 0u);
  const double perSubmit = static_cast<double>(allocations) /
                           static_cast<double>(scenario.jobs.size());
  // Every admission stores its shape, placements, ledger slots and map
  // node and returns a schedule; rejections allocate nothing.
  EXPECT_LE(perSubmit, kBudgetPerSubmit) << admitted << " admitted";
}

TEST(GangAdmissionAllocations, StoresOneSpecForAllFragments) {
  SKIP_WITHOUT_COUNTING();
  constexpr int kShards = 4;
  // Every chain is wider than one 8-processor shard: gang only.
  const auto spec = tunableJob(24, 12, 10000.0);
  ASSERT_GT(spec.chains.back().maxProcessors(), 8);
  // The gang stores one shape and nothing of the names or bindings: the job
  // and its short-named twin allocate the same.
  const auto twin = withShortNames(spec);
  ASSERT_GT(specCopyAllocations(spec), specCopyAllocations(twin));

  const auto admit = [](const TunableJobSpec& job, std::uint64_t* id) {
    ShardedArbitrator arb(8 * kShards, options(kShards, /*gang=*/true));
    for (int i = 0; i < 2; ++i) {
      EXPECT_TRUE(arb.submit(arb.reserveJobId(), job, 0).admitted);
    }
    *id = arb.reserveJobId();
    bool admitted = false;
    const auto allocations =
        allocationsOf([&] { admitted = arb.submit(*id, job, 0).admitted; });
    EXPECT_TRUE(admitted);
    EXPECT_EQ(arb.gangAdmittedCount(), 3u);
    return allocations;
  };
  std::uint64_t id = 0;
  std::uint64_t twinId = 0;
  const auto allocations = admit(spec, &id);
  const auto twinAllocations = admit(twin, &twinId);
  ASSERT_EQ(id, twinId);
  EXPECT_EQ(allocations, twinAllocations);
}

TEST(GangAdmissionAllocations, StoresTheSharedSpecInEveryFragment) {
  SKIP_WITHOUT_COUNTING();
  constexpr int kShards = 4;
  const auto spec = tunableJob(24, 12, 10000.0);
  // Every fragment points at the one shape the admission stored (pointer
  // identity), and that shape is the job's.
  ShardedArbitrator arb(8 * kShards, options(kShards, /*gang=*/true));
  const std::uint64_t id = arb.reserveJobId();
  ASSERT_TRUE(arb.submit(id, spec, 0).admitted);
  ASSERT_EQ(arb.gangAdmittedCount(), 1u);
  const JobShape* stored = nullptr;
  int fragments = 0;
  for (int k = 0; k < kShards; ++k) {
    const auto* fragmentShape = arb.shard(k).liveShape(id);
    if (fragmentShape == nullptr) continue;
    ++fragments;
    if (stored == nullptr) stored = fragmentShape;
    EXPECT_EQ(fragmentShape, stored) << "shard " << k;
  }
  EXPECT_GE(fragments, 2);
  ASSERT_NE(stored, nullptr);
  EXPECT_TRUE(sameShape(*stored, spec));
}

/// Demotes only `victim`, offered `attempts` times over: every attempt
/// after the first repeats the same failing move.
class RepeatVictimPolicy : public ReshapePolicy {
 public:
  RepeatVictimPolicy(std::uint64_t victim, std::size_t attempts)
      : victim_(victim), attempts_(attempts) {}
  std::vector<std::uint64_t> demotionOrder(
      const std::vector<ElasticCandidate>&, Time) const override {
    return std::vector<std::uint64_t>(attempts_, victim_);
  }
  std::vector<std::uint64_t> promotionOrder(
      const std::vector<ElasticCandidate>&) const override {
    return {};
  }

 private:
  std::uint64_t victim_;
  std::size_t attempts_;
};

/// Allocations of one rejected elastic submit whose reshape tries to demote
/// the same victim `attempts` times.  The victim's lower rung is in its
/// band but needs the whole machine past its deadline, so every attempt
/// builds the band, plans it, fails and rolls back.
std::uint64_t failedReshapeAllocations(std::size_t attempts) {
  QoSArbitrator arb(8);
  EXPECT_TRUE(arb.submit(0, rigidJob(4, 100.0, 1000.0), 0).admitted);
  auto victim = tunableJob(4, 4, 1000.0);
  victim.chains.resize(2);
  victim.chains[0].tasks = {
      TaskSpec::rigid("full-task-with-a-long-name", 4, u(100.0), u(1000.0))};
  victim.chains[1].tasks = {TaskSpec::rigid("lean-task-with-a-long-name", 8,
                                            u(50.0), u(120.0), 0.5)};
  const auto decision = arb.submit(1, victim, 0);
  EXPECT_TRUE(decision.admitted && decision.schedule.chainIndex == 0);
  const RepeatVictimPolicy policy(1, attempts);
  arb.attachReshapePolicy(&policy);
  const auto newcomer = rigidJob(8, 10.0, 50.0);
  // Warm-up: the trial log and the planner's buffers reach their size.
  EXPECT_TRUE(!arb.submit(2, newcomer, 0).admitted);
  bool admitted = true;
  const auto allocations = allocationsOf(
      [&] { admitted = arb.submit(3, newcomer, 0).admitted; });
  EXPECT_TRUE(!admitted);
  EXPECT_EQ(arb.admittedCount(), 2u);
  return allocations;
}

TEST(ElasticMoveAllocations, MoveAttemptsBuildTheirBandWithoutAllocating) {
  SKIP_WITHOUT_COUNTING();
  // The policy's order vector is allocated either way; seven more failed
  // move attempts must add nothing.
  EXPECT_EQ(failedReshapeAllocations(8), failedReshapeAllocations(1));
}

TEST(WireAdmissionAllocations, GrantedBindingsAreMovedNotCopied) {
  SKIP_WITHOUT_COUNTING();
  const auto plain = tunableJob(4, 1, 10000.0);
  const auto bare = withShortNames(plain);
  // The bindings the wire admission hands back: the granted chain's.
  const auto run = [](const TunableJobSpec& spec,
                      service::NegotiateResult* out) {
    ShardedArbitrator arb(8, options(1, /*gang=*/false));
    service::NegotiateRequest warm{spec, 0};
    (void)service::executeNegotiate(arb, warm, 0, 0, nullptr);
    service::NegotiateRequest payload{spec, 0};
    const auto allocations = allocationsOf([&] {
      *out = service::executeNegotiate(arb, payload, 1, 1, nullptr);
    });
    return allocations;
  };
  service::NegotiateResult result;
  service::NegotiateResult bareResult;
  const auto allocations = run(plain, &result);
  const auto bareAllocations = run(bare, &bareResult);
  ASSERT_TRUE(result.admitted);
  ASSERT_TRUE(bareResult.admitted);
  ASSERT_EQ(result.chainIndex, bareResult.chainIndex);
  EXPECT_EQ(result.bindings, plain.chains[result.chainIndex].bindings);
  EXPECT_FALSE(result.bindings.empty());
  EXPECT_TRUE(bareResult.bindings.empty());
  // Moving a map allocates nothing; a copy would allocate one node per
  // binding.
  EXPECT_EQ(allocations, bareAllocations);
}

}  // namespace
}  // namespace tprm::qos
