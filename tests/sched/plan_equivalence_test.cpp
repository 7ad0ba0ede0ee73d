// Differential test: the read-only chain planner against the reserve-and-
// roll-back evaluator it replaced.
//
// The oracle below is the former GreedyArbitrator admission walk, kept
// verbatim in spirit: every chain is placed task by task with each
// placement reserved into the shared profile under a Trial, the trial is
// rolled back to the entry savepoint between chains, candidates carry their
// window busy ticks and materialised prefix-area vectors, and the winner is
// re-reserved at the end.  Reserving task k never changes the probe for task
// k+1 (it starts where task k ends), so the production planner must reach
// the same decision and leave the same profile, for every option
// combination, through both `admit` and `admitInTrial`.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "resource/availability_profile.h"
#include "sched/greedy_arbitrator.h"
#include "taskmodel/chain.h"

namespace tprm::sched {
namespace {

using resource::AvailabilityProfile;
using task::Chain;
using task::JobInstance;
using task::TaskSpec;

/// The former evaluator: reserve between tasks, roll back between chains.
class ReserveRollbackOracle {
 public:
  explicit ReserveRollbackOracle(GreedyOptions options) : options_(options) {}

  AdmissionDecision admit(const JobInstance& job,
                          AvailabilityProfile& profile) {
    AvailabilityProfile::Trial trial(profile);
    AdmissionDecision decision = admitInTrial(job, profile, trial);
    if (decision.admitted) trial.commit();
    return decision;
  }

  AdmissionDecision admitInTrial(const JobInstance& job,
                                 AvailabilityProfile& profile,
                                 AvailabilityProfile::Trial& trial) {
    AdmissionDecision decision;
    decision.chainsConsidered = static_cast<int>(job.spec.chains.size());

    struct Candidate {
      ChainSchedule schedule;
      Time finish;
      std::int64_t busyWindowTicks;
      std::vector<std::int64_t> prefixAreas;
      double quality;
    };
    std::vector<Candidate> candidates;
    finishes_.clear();
    const auto base = trial.savepoint();
    for (std::size_t c = 0; c < job.spec.chains.size(); ++c) {
      auto schedule = placeChain(job, c, profile);
      trial.rollbackTo(base);
      if (!schedule) continue;
      Candidate candidate;
      candidate.finish = schedule->finishTime();
      candidate.busyWindowTicks =
          profile.busyProcessorTicks(
              TimeInterval{job.release, candidate.finish}) +
          schedule->area();
      std::int64_t running = 0;
      for (const auto& t : job.spec.chains[c].tasks) {
        running += t.request.area();
        candidate.prefixAreas.push_back(running);
      }
      candidate.quality =
          job.spec.chains[c].quality(job.spec.qualityComposition);
      candidate.schedule = std::move(*schedule);
      candidates.push_back(std::move(candidate));
      if (options_.chainChoice == ChainChoice::FirstSchedulable) break;
    }
    decision.chainsSchedulable = static_cast<int>(candidates.size());
    if (candidates.empty()) return decision;

    auto prefixLess = [](const Candidate& a, const Candidate& b) {
      return std::lexicographical_compare(
          a.prefixAreas.begin(), a.prefixAreas.end(), b.prefixAreas.begin(),
          b.prefixAreas.end());
    };
    auto paperBetter = [&](const Candidate& a, const Candidate& b) {
      if (a.finish != b.finish) return a.finish < b.finish;
      if (a.busyWindowTicks != b.busyWindowTicks) {
        return a.busyWindowTicks > b.busyWindowTicks;
      }
      return prefixLess(a, b);
    };
    auto utilization = [&job](const Candidate& c) {
      const Time window = c.finish - job.release;
      if (window <= 0) return 1.0;
      return static_cast<double>(c.busyWindowTicks) /
             static_cast<double>(window);
    };
    std::size_t chosen = 0;
    switch (options_.chainChoice) {
      case ChainChoice::FirstSchedulable:
        break;
      case ChainChoice::Random:
        if (!rng_) rng_.emplace(options_.seed);
        chosen = static_cast<std::size_t>(
            rng_->uniformBelow(static_cast<std::uint64_t>(candidates.size())));
        break;
      case ChainChoice::Paper:
        for (std::size_t i = 1; i < candidates.size(); ++i) {
          if (paperBetter(candidates[i], candidates[chosen])) chosen = i;
        }
        break;
      case ChainChoice::QualityFirst:
        for (std::size_t i = 1; i < candidates.size(); ++i) {
          const auto& a = candidates[i];
          const auto& b = candidates[chosen];
          const bool better =
              a.quality != b.quality ? a.quality > b.quality
                                     : paperBetter(a, b);
          if (better) chosen = i;
        }
        break;
      case ChainChoice::WindowUtilization:
        for (std::size_t i = 1; i < candidates.size(); ++i) {
          const auto& a = candidates[i];
          const auto& b = candidates[chosen];
          const double ua = utilization(a);
          const double ub = utilization(b);
          bool better;
          if (ua != ub) {
            better = ua > ub;
          } else if (a.finish != b.finish) {
            better = a.finish < b.finish;
          } else {
            better = prefixLess(a, b);
          }
          if (better) chosen = i;
        }
        break;
    }
    Candidate& winner = candidates[chosen];
    for (const auto& p : winner.schedule.placements) {
      profile.reserve(p.interval, p.processors);
    }
    decision.admitted = true;
    decision.quality = winner.quality;
    decision.schedule = std::move(winner.schedule);
    return decision;
  }

  /// Equal finish times among schedulable chains seen so far: the tie-break
  /// paths below finish time are exercised only when this is nonzero.
  int finishTies = 0;

 private:
  std::optional<ChainSchedule> placeChain(const JobInstance& job,
                                          std::size_t chainIndex,
                                          AvailabilityProfile& profile) {
    const Chain& chain = job.spec.chains[chainIndex];
    ChainSchedule schedule;
    schedule.chainIndex = chainIndex;
    Time earliest = job.release;
    resource::FitHint hint;
    for (std::size_t k = 0; k < chain.tasks.size(); ++k) {
      const Time deadline = job.absoluteDeadline(chainIndex, k);
      const auto placement =
          placeTask(chain.tasks[k], earliest, deadline, profile, &hint);
      if (!placement) return std::nullopt;
      profile.reserve(placement->interval, placement->processors);
      earliest = placement->interval.end;
      schedule.placements.push_back(*placement);
    }
    noteFinish(schedule.finishTime());
    return schedule;
  }

  void noteFinish(Time finish) {
    if (std::find(finishes_.begin(), finishes_.end(), finish) !=
        finishes_.end()) {
      ++finishTies;
    }
    finishes_.push_back(finish);
  }

  std::optional<TaskPlacement> placeRigid(const AvailabilityProfile& profile,
                                          Time earliest, Time duration,
                                          int processors, Time deadline,
                                          resource::FitHint* hint) const {
    if (options_.fitPolicy == FitPolicy::BestFit) {
      const Time windowEnd =
          deadline >= kTimeInfinity ? kTimeInfinity : deadline;
      std::optional<TaskPlacement> best;
      int bestSlack = 0;
      for (const auto& hole :
           profile.maximalHoles(TimeInterval{earliest, windowEnd})) {
        if (hole.processors < processors) continue;
        const Time start = std::max(hole.begin, earliest);
        if (start + duration > hole.end || start + duration > deadline) {
          continue;
        }
        const int slack = hole.processors - processors;
        if (!best || slack < bestSlack ||
            (slack == bestSlack && start < best->interval.begin)) {
          best = TaskPlacement{TimeInterval{start, start + duration},
                               processors, deadline};
          bestSlack = slack;
        }
      }
      return best;
    }
    const auto start =
        profile.findEarliestFit(earliest, duration, processors, deadline, hint);
    if (!start) return std::nullopt;
    return TaskPlacement{TimeInterval{*start, *start + duration}, processors,
                         deadline};
  }

  std::optional<TaskPlacement> placeTask(const TaskSpec& taskSpec,
                                         Time earliest, Time deadline,
                                         const AvailabilityProfile& profile,
                                         resource::FitHint* hint) const {
    if (!options_.malleable || !taskSpec.malleable) {
      return placeRigid(profile, earliest, taskSpec.request.duration,
                        taskSpec.request.processors, deadline, hint);
    }
    const auto& spec = *taskSpec.malleable;
    std::optional<TaskPlacement> best;
    for (int q = spec.maxConcurrency; q >= 1; --q) {
      const auto candidate = placeRigid(profile, earliest, spec.durationOn(q),
                                        q, deadline, hint);
      if (!candidate) continue;
      if (options_.malleablePolicy == MalleablePolicy::WidestFit) {
        return candidate;
      }
      if (!best || candidate->interval.end < best->interval.end) {
        best = candidate;
      }
    }
    return best;
  }

  GreedyOptions options_;
  std::optional<Rng> rng_;
  std::vector<Time> finishes_;
};

constexpr int kMachine = 16;

/// A profile fragmented by `count` random committed reservations.
void fragment(AvailabilityProfile& profile, Rng& rng, int count) {
  for (int i = 0; i < count; ++i) {
    const Time b = rng.uniformInt(0, 400);
    const TimeInterval iv{b, b + 10 * rng.uniformInt(1, 8)};
    const int procs = static_cast<int>(rng.uniformInt(1, kMachine / 2));
    if (profile.minAvailable(iv) >= procs) profile.reserve(iv, procs);
  }
}

/// A tunable job of 1-4 chains of 1-4 rigid or malleable tasks.  Durations
/// are multiples of 10 and some chains repeat an earlier chain's shape with
/// the tasks reordered or a different quality, so equal finish times (and
/// with them every tie-break below finish time) come up often.  Some jobs
/// are released on an idle stretch of the machine far past the others,
/// where a reordered copy finishes with the same time and area as its
/// source and only the prefix-area rule can tell them apart.
JobInstance randomJob(Rng& rng, std::uint64_t id, Time release) {
  JobInstance job;
  job.id = id;
  job.release =
      rng.bernoulli(0.2) ? 1'000'000 * static_cast<Time>(id + 1) : release;
  const int chains = static_cast<int>(rng.uniformInt(1, 4));
  static constexpr double kQualities[] = {0.5, 0.8, 1.0};
  for (int c = 0; c < chains; ++c) {
    Chain chain;
    chain.name = "chain" + std::to_string(c);
    if (c > 0 && rng.bernoulli(0.35)) {
      const auto& source =
          job.spec.chains[rng.uniformBelow(static_cast<std::uint64_t>(c))];
      chain.tasks = source.tasks;
      if (rng.bernoulli(0.5)) {
        std::reverse(chain.tasks.begin(), chain.tasks.end());
        // Deadlines must stay non-decreasing along the chain.
        Time deadline = 0;
        for (auto& t : chain.tasks) {
          deadline = std::max(deadline, t.relativeDeadline);
        }
        for (auto& t : chain.tasks) t.relativeDeadline = deadline;
      }
      chain.tasks.front().quality = kQualities[rng.uniformBelow(3)];
      job.spec.chains.push_back(std::move(chain));
      continue;
    }
    const int tasks = static_cast<int>(rng.uniformInt(1, 4));
    Time cumulative = 0;
    for (int k = 0; k < tasks; ++k) {
      const int procs = static_cast<int>(rng.uniformInt(1, kMachine));
      const Time duration = 10 * rng.uniformInt(1, 6);
      cumulative += duration;
      const Time deadline = rng.bernoulli(0.15)
                                ? kTimeInfinity
                                : cumulative + 10 * rng.uniformInt(0, 30);
      const double quality = kQualities[rng.uniformBelow(3)];
      const std::string name = "t" + std::to_string(k);
      chain.tasks.push_back(
          rng.bernoulli(0.5)
              ? TaskSpec::malleableTask(name, procs, duration, procs, deadline,
                                        quality)
              : TaskSpec::rigid(name, procs, duration, deadline, quality));
    }
    job.spec.chains.push_back(std::move(chain));
  }
  return job;
}

void expectSameDecision(const AdmissionDecision& got,
                        const AdmissionDecision& want,
                        const std::string& where) {
  EXPECT_EQ(got.admitted, want.admitted) << where;
  EXPECT_EQ(got.chainsConsidered, want.chainsConsidered) << where;
  EXPECT_EQ(got.chainsSchedulable, want.chainsSchedulable) << where;
  EXPECT_EQ(got.quality, want.quality) << where;
  if (got.admitted && want.admitted) {
    EXPECT_EQ(got.schedule.chainIndex, want.schedule.chainIndex) << where;
    EXPECT_EQ(got.schedule.placements, want.schedule.placements) << where;
  }
}

std::vector<GreedyOptions> allOptions() {
  std::vector<GreedyOptions> out;
  for (const bool malleable : {false, true}) {
    for (const auto policy :
         {MalleablePolicy::WidestFit, MalleablePolicy::EarliestFinish}) {
      if (!malleable && policy == MalleablePolicy::EarliestFinish) continue;
      for (const auto fit : {FitPolicy::FirstFit, FitPolicy::BestFit}) {
        for (const auto choice :
             {ChainChoice::Paper, ChainChoice::WindowUtilization,
              ChainChoice::FirstSchedulable, ChainChoice::Random,
              ChainChoice::QualityFirst}) {
          out.push_back(GreedyOptions{.malleable = malleable,
                                      .chainChoice = choice,
                                      .malleablePolicy = policy,
                                      .fitPolicy = fit,
                                      .seed = 17});
        }
      }
    }
  }
  return out;
}

class PlanEquivalence : public ::testing::TestWithParam<GreedyOptions> {};

std::string label(const GreedyOptions& options) {
  return GreedyArbitrator(options).name();
}

TEST_P(PlanEquivalence, AdmitMatchesReserveRollbackOracle) {
  const GreedyOptions options = GetParam();
  GreedyArbitrator planner(options);
  ReserveRollbackOracle oracle(options);
  int admitted = 0;
  int rejected = 0;
  for (std::uint64_t stream = 1; stream <= 6; ++stream) {
    Rng rng(stream * 7919);
    AvailabilityProfile planned(kMachine);
    fragment(planned, rng, 40);
    AvailabilityProfile expected = planned;
    Time release = 0;
    for (std::uint64_t j = 0; j < 60; ++j) {
      release += rng.uniformInt(0, 15);
      const JobInstance job = randomJob(rng, j, release);
      const std::string where =
          label(options) + " stream " + std::to_string(stream) + " job " +
          std::to_string(j);
      const auto versionBefore = planned.version();
      const auto got = planner.admit(job, planned);
      const auto want = oracle.admit(job, expected);
      expectSameDecision(got, want, where);
      ASSERT_EQ(planned.dump(), expected.dump()) << where;
      if (got.admitted) {
        ++admitted;
      } else {
        ++rejected;
        EXPECT_EQ(planned.version(), versionBefore)
            << where << ": a rejection must not touch the profile";
      }
    }
  }
  // Non-vacuity: both outcomes, and (where more than one chain is compared)
  // finish-time ties, occur.
  EXPECT_GT(admitted, 0);
  EXPECT_GT(rejected, 0);
  if (options.chainChoice != ChainChoice::FirstSchedulable) {
    EXPECT_GT(oracle.finishTies, 0);
  }
}

TEST_P(PlanEquivalence, AdmitInTrialAfterVictimShrinkMatchesOracle) {
  // The elastic composition: inside one trial, shrink a committed victim
  // (release its block, reserve a narrower one), then admit a newcomer.  The
  // newcomer's reservations must stay pending in the caller's trial, on
  // top of the logged shrink, and roll back or commit with it.
  const GreedyOptions options = GetParam();
  GreedyArbitrator planner(options);
  ReserveRollbackOracle oracle(options);
  int admitted = 0;
  int rejected = 0;
  for (std::uint64_t stream = 1; stream <= 8; ++stream) {
    Rng rng(stream * 104729);
    AvailabilityProfile planned(kMachine);
    fragment(planned, rng, 30);
    AvailabilityProfile expected = planned;
    Time release = 0;
    for (std::uint64_t j = 0; j < 40; ++j) {
      release += rng.uniformInt(0, 15);
      const std::string where =
          label(options) + " stream " + std::to_string(stream) + " job " +
          std::to_string(j);
      // A committed victim the shrink can act on.
      const TimeInterval victim{release + 10 * rng.uniformInt(0, 5),
                                release + 10 * rng.uniformInt(6, 12)};
      const int free = planned.minAvailable(victim);
      if (free < 2) continue;
      const int width =
          static_cast<int>(rng.uniformInt(2, std::min(free, kMachine / 2)));
      planned.reserve(victim, width);
      expected.reserve(victim, width);

      const JobInstance job = randomJob(rng, j, release);
      const bool commit = rng.bernoulli(0.5);
      {
        AvailabilityProfile::Trial plannedTrial(planned);
        AvailabilityProfile::Trial expectedTrial(expected);
        for (auto* p : {&planned, &expected}) {
          p->release(victim, width);
          p->reserve(victim, width / 2);
        }
        const std::string afterShrink = planned.dump();
        const auto versionBefore = planned.version();
        const task::JobShape shape(job.spec);
        const auto got = planner.admitInTrial(
            task::JobView(job.id, job.release, shape), planned, plannedTrial);
        const auto want = oracle.admitInTrial(job, expected, expectedTrial);
        expectSameDecision(got, want, where);
        ASSERT_EQ(planned.dump(), expected.dump()) << where;
        if (got.admitted) {
          ++admitted;
        } else {
          ++rejected;
          EXPECT_EQ(planned.dump(), afterShrink) << where;
          EXPECT_EQ(planned.version(), versionBefore) << where;
        }
        if (commit) {
          plannedTrial.commit();
          expectedTrial.commit();
        }
        // Otherwise ~Trial rolls the shrink and any admission back.
      }
      ASSERT_EQ(planned.dump(), expected.dump())
          << where << " after " << (commit ? "commit" : "rollback");
      // Retire the victim so the victims do not saturate the machine.
      const int held = commit ? width / 2 : width;
      planned.release(victim, held);
      expected.release(victim, held);
    }
  }
  EXPECT_GT(admitted, 0);
  EXPECT_GT(rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllOptions, PlanEquivalence, ::testing::ValuesIn(allOptions()),
    [](const ::testing::TestParamInfo<GreedyOptions>& paramInfo) {
      std::string name = label(paramInfo.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace

// gtest prints a parameter without a printer as a byte dump, padding
// included, which made the test names differ between builds.  Found by
// argument-dependent lookup, so it lives in GreedyOptions' namespace.
void PrintTo(const GreedyOptions& options, std::ostream* os) {
  *os << label(options);
}

}  // namespace tprm::sched
