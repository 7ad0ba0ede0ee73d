// Property tests: whatever the arbitrator admits must verify (capacity,
// deadlines, precedence), rejections must leave the profile untouched, and
// admission must be monotone in obvious ways.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <ostream>
#include <string>

#include "common/rng.h"
#include "resource/reservation_ledger.h"
#include "sched/greedy_arbitrator.h"
#include "sim/parallel.h"
#include "taskmodel/chain.h"
#include "workload/fig4.h"

namespace tprm::sched {
namespace {

using task::Chain;
using task::JobInstance;
using task::TaskSpec;

/// Generates a random job with 1-3 chains of 1-3 tasks each.
JobInstance randomJob(Rng& rng, std::uint64_t id, Time release, int machine,
                      bool malleable) {
  JobInstance job;
  job.id = id;
  job.release = release;
  const int chains = static_cast<int>(rng.uniformInt(1, 3));
  for (int c = 0; c < chains; ++c) {
    Chain chain;
    chain.name = "chain" + std::to_string(c);
    const int tasks = static_cast<int>(rng.uniformInt(1, 3));
    Time cumulativeMin = 0;
    for (int k = 0; k < tasks; ++k) {
      const int procs = static_cast<int>(rng.uniformInt(1, machine));
      const Time dur = rng.uniformInt(1, 50);
      cumulativeMin += dur;
      // Deadline somewhere between "barely feasible" and "very loose".
      const Time deadline = cumulativeMin + rng.uniformInt(0, 200);
      if (malleable && rng.bernoulli(0.5)) {
        chain.tasks.push_back(TaskSpec::malleableTask(
            "t" + std::to_string(k), procs, dur, procs, deadline));
      } else {
        chain.tasks.push_back(TaskSpec::rigid("t" + std::to_string(k), procs,
                                              dur, deadline));
      }
    }
    job.spec.chains.push_back(std::move(chain));
  }
  return job;
}

struct PropertyCase {
  std::uint64_t seed;
  bool malleable;
  ChainChoice choice;
};

/// "seed1_rigid_Paper": the test name suffix, and what gtest prints for the
/// parameter instead of a byte dump (whose padding bytes vary by build).
std::string caseName(const PropertyCase& c) {
  const char* choice = "";
  switch (c.choice) {
    case ChainChoice::Paper: choice = "Paper"; break;
    case ChainChoice::WindowUtilization: choice = "WindowUtilization"; break;
    case ChainChoice::FirstSchedulable: choice = "FirstSchedulable"; break;
    case ChainChoice::Random: choice = "Random"; break;
    case ChainChoice::QualityFirst: choice = "QualityFirst"; break;
  }
  return "seed" + std::to_string(c.seed) +
         (c.malleable ? "_malleable_" : "_rigid_") + choice;
}

void PrintTo(const PropertyCase& c, std::ostream* os) { *os << caseName(c); }

class ArbitratorPropertyTest : public ::testing::TestWithParam<PropertyCase> {
};

TEST_P(ArbitratorPropertyTest, AdmittedSchedulesAlwaysVerify) {
  const auto param = GetParam();
  Rng rng(param.seed);
  const int machine = static_cast<int>(rng.uniformInt(2, 24));
  resource::AvailabilityProfile profile(machine);
  resource::ReservationLedger ledger(machine);
  GreedyArbitrator arb(GreedyOptions{.malleable = param.malleable,
                                     .chainChoice = param.choice,
                                     .seed = param.seed});

  Time clock = 0;
  int admitted = 0;
  for (std::uint64_t i = 0; i < 300; ++i) {
    clock += rng.uniformInt(0, 20);
    profile.discardBefore(clock);
    const auto job = randomJob(rng, i, clock, machine, param.malleable);

    const auto busyBefore =
        profile.busyProcessorTicks(TimeInterval{clock, clock + 4000});
    const auto decision = arb.admit(job, profile);
    if (!decision.admitted) {
      // Transactionality: rejection leaves the profile untouched.
      ASSERT_EQ(profile.busyProcessorTicks(TimeInterval{clock, clock + 4000}),
                busyBefore)
          << "seed=" << param.seed << " job=" << i;
      continue;
    }
    ++admitted;

    // Placements must start at/after release and be committed exactly.
    ASSERT_EQ(profile.busyProcessorTicks(TimeInterval{clock, clock + 4000}),
              busyBefore + decision.schedule.area());
    Time previousEnd = job.release;
    const auto& chain = job.spec.chains[decision.schedule.chainIndex];
    ASSERT_EQ(decision.schedule.placements.size(), chain.tasks.size());
    for (std::size_t k = 0; k < decision.schedule.placements.size(); ++k) {
      const auto& p = decision.schedule.placements[k];
      ASSERT_GE(p.interval.begin, previousEnd);
      ASSERT_LE(p.interval.end, p.deadline);
      previousEnd = p.interval.end;
      ledger.add(resource::Reservation{
          job.id, static_cast<int>(k),
          static_cast<int>(decision.schedule.chainIndex), p.interval,
          p.processors, p.deadline});
      // Rigid tasks keep their declared shape.
      if (!param.malleable || !chain.tasks[k].malleable) {
        ASSERT_EQ(p.processors, chain.tasks[k].request.processors);
        ASSERT_EQ(p.interval.length(), chain.tasks[k].request.duration);
      } else {
        // Malleable placements cover the work.
        ASSERT_GE(static_cast<std::int64_t>(p.processors) *
                      p.interval.length(),
                  chain.tasks[k].malleable->work);
        ASSERT_LE(p.processors, chain.tasks[k].malleable->maxConcurrency);
      }
    }
  }

  EXPECT_GT(admitted, 0) << "degenerate run: nothing admitted";
  const auto report = ledger.verify();
  EXPECT_TRUE(report.ok) << report.firstViolation;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ArbitratorPropertyTest,
    ::testing::Values(
        PropertyCase{1, false, ChainChoice::Paper},
        PropertyCase{2, false, ChainChoice::Paper},
        PropertyCase{3, false, ChainChoice::Paper},
        PropertyCase{4, true, ChainChoice::Paper},
        PropertyCase{5, true, ChainChoice::Paper},
        PropertyCase{6, false, ChainChoice::FirstSchedulable},
        PropertyCase{7, false, ChainChoice::Random},
        PropertyCase{8, true, ChainChoice::Random},
        PropertyCase{9, false, ChainChoice::WindowUtilization},
        PropertyCase{10, true, ChainChoice::WindowUtilization}),
    [](const ::testing::TestParamInfo<PropertyCase>& paramInfo) {
      return caseName(paramInfo.param);
    });

/// One randomized-workload replication cell: a fresh job stream and engine
/// per seed, full end-of-run verification (capacity, deadlines, precedence)
/// enabled.  Fails the test from the cell if the ledger reports a
/// violation, so invariants are checked in *every* cell, not just in the
/// aggregate.
sim::SimulationResult verifiedRandomCell(std::uint64_t seed, bool malleable,
                                         std::atomic<int>& verifiedCells) {
  Rng rng(seed);
  workload::Fig4Params params;
  params.laxity = rng.uniformReal(0.2, 0.8);
  params.alpha = 0.25;
  params.malleable = malleable;
  const double interval = rng.uniformReal(20.0, 60.0);
  const auto jobs = workload::makeFig4PoissonStream(
      params, workload::Fig4Shape::Tunable, interval, 250, seed);
  GreedyArbitrator arbitrator(GreedyOptions{.malleable = malleable});
  sim::SimulationConfig config;
  config.processors = 16;
  config.verify = true;
  auto result = sim::runSimulation(jobs, arbitrator, config);
  EXPECT_TRUE(result.verification.has_value());
  if (result.verification) {
    EXPECT_TRUE(result.verification->ok)
        << "seed " << seed << ": " << result.verification->firstViolation;
    if (result.verification->ok) ++verifiedCells;
  }
  return result;
}

TEST(ArbitratorProperty, ParallelReplicationsVerifyInEveryCell) {
  for (const bool malleable : {false, true}) {
    for (const int threads : {1, 2, 8}) {
      std::atomic<int> verifiedCells{0};
      sim::ParallelOptions options;
      options.threads = threads;
      const auto summary = sim::replicateParallel(
          [&](std::uint64_t seed, sim::TraceRecorder*) {
            return verifiedRandomCell(seed, malleable, verifiedCells);
          },
          /*seedBase=*/1234, /*runs=*/8, options);
      EXPECT_EQ(verifiedCells.load(), 8)
          << "malleable=" << malleable << " threads=" << threads;
      EXPECT_EQ(summary.admitted.count(), 8u);
      EXPECT_GT(summary.admitted.mean(), 0.0);
    }
  }
}

TEST(ArbitratorProperty, ReplicatedMeansMatchSerialAggregation) {
  std::atomic<int> ignored{0};
  const int runs = 8;
  // Hand-rolled serial aggregation over the same derived seeds.
  double utilSum = 0.0;
  double onTimeSum = 0.0;
  double admittedSum = 0.0;
  std::vector<sim::SimulationResult> serial;
  for (int r = 0; r < runs; ++r) {
    serial.push_back(
        verifiedRandomCell(sim::runSeed(777, r), /*malleable=*/false,
                           ignored));
    utilSum += serial.back().utilization;
    onTimeSum += static_cast<double>(serial.back().onTime);
    admittedSum += static_cast<double>(serial.back().admitted);
  }
  sim::ParallelOptions options;
  options.threads = 8;
  const auto summary = sim::replicateParallel(
      [&](std::uint64_t seed, sim::TraceRecorder*) {
        return verifiedRandomCell(seed, /*malleable=*/false, ignored);
      },
      777, runs, options);
  ASSERT_EQ(summary.utilization.count(), static_cast<std::size_t>(runs));
  // Welford's mean over the same values in the same order is within an ulp
  // or two of the naive sum; compare with a tight tolerance.
  EXPECT_NEAR(summary.utilization.mean(), utilSum / runs, 1e-12);
  EXPECT_NEAR(summary.onTime.mean(), onTimeSum / runs, 1e-9);
  EXPECT_NEAR(summary.admitted.mean(), admittedSum / runs, 1e-9);
  EXPECT_DOUBLE_EQ(
      summary.admitted.min(),
      static_cast<double>(std::min_element(serial.begin(), serial.end(),
                                           [](const auto& a, const auto& b) {
                                             return a.admitted < b.admitted;
                                           })
                              ->admitted));
}

TEST(ArbitratorProperty, TunableAdmitsWheneverAnyChainAdmits) {
  // For any machine state, if job-with-chain-A-only or job-with-chain-B-only
  // would be admitted, the tunable job with both chains must be admitted.
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const int machine = static_cast<int>(rng.uniformInt(2, 16));
    resource::AvailabilityProfile base(machine);
    // Random pre-existing load.
    for (int i = 0; i < 10; ++i) {
      const Time b = rng.uniformInt(0, 100);
      const Time e = b + rng.uniformInt(1, 60);
      const int procs = static_cast<int>(rng.uniformInt(0, machine));
      if (base.minAvailable(TimeInterval{b, e}) >= procs) {
        base.reserve(TimeInterval{b, e}, procs);
      }
    }
    auto tunable = randomJob(rng, 0, 0, machine, false);
    if (tunable.spec.chains.size() < 2) continue;

    GreedyArbitrator arb;
    bool anySoloAdmitted = false;
    for (std::size_t c = 0; c < tunable.spec.chains.size(); ++c) {
      JobInstance solo = tunable;
      solo.spec.chains = {tunable.spec.chains[c]};
      resource::AvailabilityProfile copy = base;
      if (arb.admit(solo, copy).admitted) anySoloAdmitted = true;
    }
    resource::AvailabilityProfile copy = base;
    const bool tunableAdmitted = arb.admit(tunable, copy).admitted;
    if (anySoloAdmitted) {
      EXPECT_TRUE(tunableAdmitted) << "trial " << trial;
    } else {
      EXPECT_FALSE(tunableAdmitted) << "trial " << trial;
    }
  }
}

TEST(ArbitratorProperty, EmptyMachineAdmissionIsDeadlineFeasibility) {
  // On an empty machine a single-chain job is admitted iff its critical path
  // meets every cumulative deadline (matches task::validate feasibility).
  Rng rng(88);
  GreedyArbitrator arb;
  for (int trial = 0; trial < 300; ++trial) {
    const int machine = 16;
    auto job = randomJob(rng, 0, 0, machine, false);
    job.spec.chains.resize(1);
    resource::AvailabilityProfile profile(machine);
    const bool admitted = arb.admit(job, profile).admitted;
    bool feasible = true;
    Time cumulative = 0;
    for (const auto& t : job.spec.chains[0].tasks) {
      cumulative += t.request.duration;
      if (cumulative > t.relativeDeadline) feasible = false;
    }
    EXPECT_EQ(admitted, feasible) << "trial " << trial;
  }
}

}  // namespace
}  // namespace tprm::sched
