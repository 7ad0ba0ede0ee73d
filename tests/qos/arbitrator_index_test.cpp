// Invariants of the elastic arbitrator's indices.  The arbitrator keeps three
// structures beside its live map so that no submit walks every live job:
//  * the demoted set (promotion candidates),
//  * the finish heap (retirement by last placement end, stale entries left
//    behind by moves and cancels),
//  * each live job's ledger slots and rung ladder (annul and candidate
//    building without a whole-history scan).
// A seeded flash-crowd stream with the Reshaper, interleaved cancels and one
// resize era change runs here, and after every operation each index must
// equal a brute-force scan of the live map, and the ledger's running area
// must equal the area of an independently kept shadow of every placement the
// stream committed.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "elastic/reshaper.h"
#include "qos/qos.h"
#include "workload/scenario.h"

namespace tprm::qos {

/// Friend of QoSArbitrator: brute-force checks of its private indices.
struct ArbitratorIndexProbe {
  static void expectIndicesMatchLiveMap(const QoSArbitrator& arb) {
    std::set<std::uint64_t> demoted;
    std::set<std::pair<Time, std::uint64_t>> finishes;
    for (const auto& [jobId, job] : arb.live_) {
      if (!job.pinned && job.currentQuality < job.admittedQuality) {
        demoted.insert(jobId);
      }
      ASSERT_FALSE(job.placements.empty());
      const Time end = job.placements.back().interval.end;
      EXPECT_GT(end, arb.clock()) << "job " << jobId << " outlived retirement";
      finishes.emplace(end, jobId);

      // Rung ladder: equal to a fresh scan of the chain qualities.
      double lowest = 2.0;
      double next = -1.0;
      for (const auto& chain : job.spec->chains) {
        const double q = chain.quality(job.spec->qualityComposition);
        lowest = std::min(lowest, q);
        if (q < job.currentQuality && q > next) next = q;
      }
      EXPECT_EQ(job.lowestRung, lowest) << "job " << jobId;
      EXPECT_EQ(job.nextRung, next) << "job " << jobId;
    }
    EXPECT_EQ(arb.demoted_, demoted);

    // Live heap entries (the ones retireFinished acts on) are exactly one
    // per live job, keyed by its current last end.
    auto heap = arb.finishes_;
    std::multiset<std::pair<Time, std::uint64_t>> current;
    while (!heap.empty()) {
      const auto entry = heap.top();
      heap.pop();
      const auto it = arb.live_.find(entry.second);
      if (it == arb.live_.end()) continue;
      if (it->second.placements.back().interval.end != entry.first) continue;
      current.insert(entry);
    }
    const std::set<std::pair<Time, std::uint64_t>> distinct(current.begin(),
                                                            current.end());
    EXPECT_EQ(distinct, finishes);
  }

  static std::uint64_t ledgerLayout(const QoSArbitrator& arb) {
    return arb.ledger_.layout();
  }
};

namespace {

struct Placed {
  TimeInterval interval;
  int processors = 0;
};

std::vector<Placed> placedOf(const std::vector<sched::TaskPlacement>& ps) {
  std::vector<Placed> out;
  for (const auto& p : ps) out.push_back({p.interval, p.processors});
  return out;
}

/// Shadow of the current era's ledger, per job: kept from decisions, moves
/// and cancels only — never read back from the arbitrator.
class ShadowLedger {
 public:
  void admit(std::uint64_t jobId, const std::vector<sched::TaskPlacement>& ps) {
    jobs_[jobId] = placedOf(ps);
  }
  void apply(const std::vector<QualityMove>& moves) {
    // Only never-started jobs move, so the whole placement set is replaced.
    for (const auto& m : moves) {
      jobs_[m.jobId] = placedOf(m.schedule.placements);
    }
  }
  /// A cancel keeps the started placements in the books.
  void cancel(std::uint64_t jobId, Time clock) {
    auto& placed = jobs_[jobId];
    std::erase_if(placed, [&](const Placed& p) {
      return p.interval.begin >= clock;
    });
  }
  /// A growing resize keeps every live job verbatim; the new era's ledger
  /// holds each running task's remainder and every future placement.
  void newEra(const QoSArbitrator& arb, Time clock) {
    std::map<std::uint64_t, std::vector<Placed>> next;
    for (const auto& [jobId, placed] : jobs_) {
      if (!arb.live(jobId)) continue;
      auto& carried = next[jobId];
      for (const auto& p : placed) {
        if (p.interval.begin >= clock) {
          carried.push_back(p);
        } else if (clock < p.interval.end) {
          carried.push_back({{clock, p.interval.end}, p.processors});
        }
      }
    }
    jobs_ = std::move(next);
  }
  [[nodiscard]] std::int64_t area() const {
    std::int64_t total = 0;
    for (const auto& [jobId, placed] : jobs_) {
      (void)jobId;
      for (const auto& p : placed) {
        total += static_cast<std::int64_t>(p.processors) * p.interval.length();
      }
    }
    return total;
  }

 private:
  std::map<std::uint64_t, std::vector<Placed>> jobs_;
};

TEST(ArbitratorIndices, MatchBruteForceThroughoutAnElasticStream) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const auto params = workload::scenarioByName("flash-crowd", seed, 800);
    ASSERT_TRUE(params.has_value());
    const auto scenario = workload::ScenarioGenerator(*params).generate();

    QoSArbitrator arb(32);
    elastic::Reshaper reshaper;
    arb.attachReshapePolicy(&reshaper);
    ShadowLedger shadow;
    std::vector<std::uint64_t> admittedIds;
    std::uint64_t moves = 0;
    std::uint64_t cancels = 0;
    std::set<std::uint64_t> layouts;
    const std::size_t resizeAt = scenario.jobs.size() / 2;

    for (std::size_t i = 0; i < scenario.jobs.size(); ++i) {
      const auto& job = scenario.jobs[i];
      if (i == resizeAt) {
        const auto report = arb.resize(40, job.release);
        EXPECT_TRUE(report.dropped.empty());  // growing never drops
        shadow.newEra(arb, job.release);
      }
      std::vector<QualityMove> reshapes;
      const auto decision = arb.submit(job.spec, job.release, &reshapes);
      shadow.apply(reshapes);
      moves += reshapes.size();
      if (decision.admitted) {
        shadow.admit(*arb.lastJobId(), decision.schedule.placements);
        admittedIds.push_back(*arb.lastJobId());
      }
      ArbitratorIndexProbe::expectIndicesMatchLiveMap(arb);
      EXPECT_EQ(arb.ledger().totalArea(), shadow.area())
          << "after submit " << i;

      if (i % 4 == 3 && admittedIds.size() > 16) {
        // Cancel a job admitted a while back: some have started by now.
        const auto target = admittedIds[admittedIds.size() - 16];
        const bool wasLive = arb.live(target);
        std::vector<QualityMove> promotions;
        (void)arb.cancel(target, &promotions);
        if (wasLive) {
          shadow.cancel(target, arb.clock());
          ++cancels;
        }
        shadow.apply(promotions);
        moves += promotions.size();
        ArbitratorIndexProbe::expectIndicesMatchLiveMap(arb);
        EXPECT_EQ(arb.ledger().totalArea(), shadow.area())
            << "after cancel at " << i;
      }
      layouts.insert(ArbitratorIndexProbe::ledgerLayout(arb));
      if (HasFailure()) return;
    }
    EXPECT_TRUE(arb.verify().ok);
    // The stream exercised what the indices are for.
    EXPECT_GT(moves, 50u);
    EXPECT_GT(cancels, 50u);
    EXPECT_GT(layouts.size(), 2u) << "the ledger never compacted";
  }
}

TEST(ArbitratorIndices, SlotsReReadAfterCompactionKeepEntriesStartingNow) {
  // Eight one-processor jobs all start at t=0, the clock.  The third cancel
  // at that clock tombstones a quarter of the ledger and compacts it; the
  // next cancel re-reads the slots and must still reach job 0's entry,
  // which begins exactly at the clock.
  task::TunableJobSpec spec;
  spec.name = "unit";
  task::Chain chain;
  chain.name = "only";
  chain.tasks = {task::TaskSpec::rigid("t", 1, ticksFromUnits(10.0),
                                       ticksFromUnits(20.0))};
  spec.chains = {chain};
  QoSArbitrator arb(8);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(arb.submit(spec, 0).admitted);
  const std::int64_t area = arb.ledger().totalArea() / 8;
  for (const std::uint64_t jobId : {5u, 6u, 7u}) {
    EXPECT_EQ(arb.cancel(jobId), area);
  }
  EXPECT_EQ(ArbitratorIndexProbe::ledgerLayout(arb), 1u);
  EXPECT_EQ(arb.cancel(0), area);
  EXPECT_EQ(arb.ledger().totalArea(), 4 * area);
  EXPECT_EQ(arb.ledger().reservations().size(), 4u);
  EXPECT_TRUE(arb.verify().ok);
}

}  // namespace
}  // namespace tprm::qos
