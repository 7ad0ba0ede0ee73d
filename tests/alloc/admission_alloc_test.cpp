// Allocation budget of the admission path, counted by a global operator new.
//
// Planning borrows the caller's spec; only an admission stores a copy, once,
// shared by every gang fragment of the job.  These tests pin that:
//  * a rejected submit that is not gang-eligible allocates nothing, with
//    one shard and with four (home shard, spill scoring, spill submit, the
//    gang eligibility check);
//  * a home admission allocates one spec copy plus fixed bookkeeping;
//  * a gang admission stores one spec for all of its fragments;
//  * an admission of a spec the caller already shares (the server's
//    decoded spec) stores that very pointer and copies nothing.
//
// Sanitizer builds replace the allocator, so there the counting operator
// new is left out and every test skips.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "qos/sharded.h"

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

/// The same job with every name short enough for the small-string buffer:
/// it plans identically, and one copy of it allocates less.
TunableJobSpec withShortNames(TunableJobSpec spec) {
  spec.name = "j";
  for (auto& chain : spec.chains) {
    chain.name = "c";
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

// Fixed bookkeeping of an admission, in allocations.
/// The stored copy's shared_ptr control block (make_shared allocates it
/// together with the spec object itself).
constexpr std::uint64_t kSharedCopyBlock = 1;
/// The schedule the decision returns.
constexpr std::uint64_t kDecisionSchedule = 1;
/// Per shard holding the job: the live job's placements, its ledger slots,
/// and its node in the live map.
constexpr std::uint64_t kLiveRecord = 3;
/// Per shard: headroom for amortized growth of the shard's logs (the
/// ledger's entries, the finish heap) that an admission may trigger.
constexpr std::uint64_t kAmortizedGrowth = 2;

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

TEST_P(AdmissionAllocations, HomeAdmissionCopiesTheSpecOnce) {
  SKIP_WITHOUT_COUNTING();
  const int shards = GetParam();
  ShardedArbitrator arb(8 * shards, options(shards, /*gang=*/true));
  const auto spec = tunableJob(4, 1, 10000.0);
  const std::uint64_t copy = specCopyAllocations(spec);
  ASSERT_GE(copy, 10u);  // a second copy could not hide in the headroom
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
    EXPECT_LE(allocations, copy + kSharedCopyBlock + kDecisionSchedule +
                               kLiveRecord + kAmortizedGrowth)
        << "admission " << i << " (one spec copy is " << copy << ")";
    const auto* stored = arb.shard(arb.homeShard(id)).liveSpec(id);
    ASSERT_NE(stored, nullptr);
    EXPECT_NE(stored, &spec);
    EXPECT_EQ(*stored, spec);
  }
}

TEST_P(AdmissionAllocations, SharedSpecIsStoredWithoutACopy) {
  SKIP_WITHOUT_COUNTING();
  const int shards = GetParam();
  ShardedArbitrator arb(8 * shards, options(shards, /*gang=*/true));
  const auto plain = tunableJob(4, 1, 10000.0);
  ASSERT_GE(specCopyAllocations(plain), 10u);
  for (int i = 0; i < 2 * shards; ++i) {
    ASSERT_TRUE(arb.submit(arb.reserveJobId(), plain, 0).admitted);
  }
  for (int i = 0; i < 2 * shards; ++i) {
    const auto spec = std::make_shared<const TunableJobSpec>(plain);
    const std::uint64_t id = arb.reserveJobId();
    bool admitted = false;
    const auto allocations = allocationsOf(
        [&] { admitted = arb.submit(id, spec, 0).admitted; });
    ASSERT_TRUE(admitted);
    EXPECT_LE(allocations,
              kDecisionSchedule + kLiveRecord + kAmortizedGrowth)
        << "admission " << i;
    EXPECT_EQ(arb.shard(arb.homeShard(id)).liveSpec(id), spec.get());
    EXPECT_EQ(spec.use_count(), 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, AdmissionAllocations,
                         ::testing::Values(1, 4));

TEST(GangAdmissionAllocations, StoresOneSpecForAllFragments) {
  SKIP_WITHOUT_COUNTING();
  constexpr int kShards = 4;
  // Every chain is wider than one 8-processor shard: gang only.
  const auto spec = tunableJob(24, 12, 10000.0);
  ASSERT_GT(spec.chains.back().maxProcessors(), 8);
  // The gang planner's own buffers depend on the machine, not on the spec,
  // so the same admission of a twin spec with short names isolates the
  // copies: their allocation counts differ by exactly one copy's.
  const auto twin = withShortNames(spec);
  const std::uint64_t copy = specCopyAllocations(spec);
  const std::uint64_t twinCopy = specCopyAllocations(twin);
  ASSERT_GT(copy, twinCopy);

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

    // Every fragment points at the one stored copy.
    const task::TunableJobSpec* stored = nullptr;
    int fragments = 0;
    for (int k = 0; k < kShards; ++k) {
      const auto* fragmentSpec = arb.shard(k).liveSpec(*id);
      if (fragmentSpec == nullptr) continue;
      ++fragments;
      if (stored == nullptr) stored = fragmentSpec;
      EXPECT_EQ(fragmentSpec, stored) << "shard " << k;
    }
    EXPECT_GE(fragments, 2);
    EXPECT_NE(stored, &job);
    if (stored != nullptr) {
      EXPECT_EQ(*stored, job);
    }
    return allocations;
  };
  std::uint64_t id = 0;
  std::uint64_t twinId = 0;
  const auto allocations = admit(spec, &id);
  const auto twinAllocations = admit(twin, &twinId);
  ASSERT_EQ(id, twinId);
  EXPECT_EQ(allocations - twinAllocations, copy - twinCopy)
      << "one spec copy is " << copy << ", its twin's " << twinCopy;
}

TEST(GangAdmissionAllocations, StoresTheSharedSpecInEveryFragment) {
  SKIP_WITHOUT_COUNTING();
  constexpr int kShards = 4;
  const auto plain = tunableJob(24, 12, 10000.0);
  // With the caller's shared copy stored, the spec's size no longer shows
  // in the admission's allocations: the job and its short-named twin
  // allocate the same.
  const auto admit = [](const TunableJobSpec& job) {
    ShardedArbitrator arb(8 * kShards, options(kShards, /*gang=*/true));
    for (int i = 0; i < 2; ++i) {
      EXPECT_TRUE(arb.submit(arb.reserveJobId(), job, 0).admitted);
    }
    const auto spec = std::make_shared<const TunableJobSpec>(job);
    const std::uint64_t id = arb.reserveJobId();
    bool admitted = false;
    const auto allocations =
        allocationsOf([&] { admitted = arb.submit(id, spec, 0).admitted; });
    EXPECT_TRUE(admitted);
    EXPECT_EQ(arb.gangAdmittedCount(), 3u);
    int fragments = 0;
    for (int k = 0; k < kShards; ++k) {
      const auto* fragmentSpec = arb.shard(k).liveSpec(id);
      if (fragmentSpec == nullptr) continue;
      ++fragments;
      EXPECT_EQ(fragmentSpec, spec.get()) << "shard " << k;
    }
    EXPECT_GE(fragments, 2);
    return allocations;
  };
  EXPECT_EQ(admit(plain), admit(withShortNames(plain)));
}

}  // namespace
}  // namespace tprm::qos
