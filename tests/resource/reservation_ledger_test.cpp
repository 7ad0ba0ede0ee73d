#include "resource/reservation_ledger.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>

#include "common/rng.h"

namespace tprm::resource {
namespace {

Reservation res(std::uint64_t job, int task, TimeInterval iv, int procs,
                Time deadline = kTimeInfinity, int chain = 0) {
  Reservation r;
  r.jobId = job;
  r.taskIndex = task;
  r.chainIndex = chain;
  r.interval = iv;
  r.processors = procs;
  r.deadline = deadline;
  return r;
}

TEST(ReservationLedger, AreaAndMakespan) {
  ReservationLedger ledger(8);
  ledger.add(res(0, 0, {0, 10}, 4));
  ledger.add(res(0, 1, {10, 30}, 2));
  EXPECT_EQ(ledger.totalArea(), 4 * 10 + 2 * 20);
  EXPECT_EQ(ledger.makespan(), 30);
  EXPECT_EQ(ledger.reservations().size(), 2u);
}

TEST(ReservationLedger, UtilizationClipsToHorizon) {
  ReservationLedger ledger(10);
  ledger.add(res(0, 0, {0, 100}, 5));
  EXPECT_DOUBLE_EQ(ledger.utilization(100), 0.5);
  // Only half the reservation falls inside [0, 50).
  EXPECT_DOUBLE_EQ(ledger.utilization(50), 0.5);
  // Horizon past the makespan dilutes utilization.
  EXPECT_DOUBLE_EQ(ledger.utilization(200), 0.25);
}

TEST(ReservationLedgerDeath, InvalidInputs) {
  ReservationLedger ledger(4);
  EXPECT_DEATH(ledger.add(res(0, 0, {10, 5}, 2)), "non-empty");
  EXPECT_DEATH(ledger.add(res(0, 0, {0, 10}, 5)), "out of range");
  EXPECT_DEATH((void)ledger.utilization(0), "positive");
  EXPECT_DEATH(ReservationLedger(0), "at least one");
  std::vector<ReservationLedger::Slot> foreign = {
      ledger.add(res(1, 0, {0, 10}, 2))};
  EXPECT_DEATH((void)ledger.annul(2, 0, foreign), "live entry of the job");
  std::vector<ReservationLedger::Slot> missing = {7};
  EXPECT_DEATH((void)ledger.annul(1, 0, missing), "out of range");
}

TEST(ReservationLedgerVerify, CleanScheduleIsOk) {
  ReservationLedger ledger(8);
  ledger.add(res(1, 0, {0, 10}, 4, 20));
  ledger.add(res(1, 1, {10, 20}, 4, 20));
  ledger.add(res(2, 0, {0, 10}, 4, 50));
  const auto report = ledger.verify();
  EXPECT_TRUE(report.ok) << report.firstViolation;
  EXPECT_EQ(report.violations, 0);
}

TEST(ReservationLedgerVerify, DetectsCapacityViolation) {
  ReservationLedger ledger(8);
  ledger.add(res(1, 0, {0, 10}, 5));
  ledger.add(res(2, 0, {5, 15}, 5));
  const auto report = ledger.verify();
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.firstViolation.find("capacity"), std::string::npos);
}

TEST(ReservationLedgerVerify, TouchingReservationsDoNotCollide) {
  ReservationLedger ledger(8);
  ledger.add(res(1, 0, {0, 10}, 8));
  ledger.add(res(2, 0, {10, 20}, 8));
  EXPECT_TRUE(ledger.verify().ok);
}

TEST(ReservationLedgerVerify, DetectsDeadlineViolation) {
  ReservationLedger ledger(8);
  ledger.add(res(1, 0, {0, 30}, 2, /*deadline=*/25));
  const auto report = ledger.verify();
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.firstViolation.find("deadline"), std::string::npos);
}

TEST(ReservationLedgerVerify, DetectsPrecedenceViolation) {
  ReservationLedger ledger(8);
  ledger.add(res(1, 0, {10, 20}, 2));
  ledger.add(res(1, 1, {15, 25}, 2));  // starts before task 0 ends
  const auto report = ledger.verify();
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.firstViolation.find("predecessor"), std::string::npos);
}

TEST(ReservationLedgerVerify, PrecedenceIsPerJob) {
  ReservationLedger ledger(8);
  // Overlap between different jobs' tasks is fine.
  ledger.add(res(1, 0, {10, 20}, 2));
  ledger.add(res(2, 1, {15, 25}, 2));
  EXPECT_TRUE(ledger.verify().ok);
}

TEST(ReservationLedgerVerify, DetectsDuplicateTask) {
  ReservationLedger ledger(8);
  ledger.add(res(1, 0, {0, 10}, 2));
  ledger.add(res(1, 0, {20, 30}, 2));
  const auto report = ledger.verify();
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.firstViolation.find("duplicate"), std::string::npos);
}

TEST(ReservationLedgerVerify, CountsMultipleViolations) {
  ReservationLedger ledger(4);
  ledger.add(res(1, 0, {0, 10}, 4, 5));   // deadline violation
  ledger.add(res(2, 0, {0, 10}, 4));      // capacity violation with job 1
  const auto report = ledger.verify();
  EXPECT_FALSE(report.ok);
  EXPECT_GE(report.violations, 2);
}

// ---------------------------------------------------------------------------
// Equivalence with the brute-force ledger: tombstoned annul by slot, running
// totals and amortized compaction must be indistinguishable from erasing
// matches with a whole-history remove_if and recomputing every total.
// ---------------------------------------------------------------------------

/// The brute-force reference: what the ledger did before slots existed.
struct ReferenceLedger {
  std::vector<Reservation> entries;

  std::size_t annul(std::uint64_t jobId, Time from) {
    const auto first = std::remove_if(
        entries.begin(), entries.end(), [&](const Reservation& r) {
          return r.jobId == jobId && r.interval.begin >= from;
        });
    const auto removed = static_cast<std::size_t>(entries.end() - first);
    entries.erase(first, entries.end());
    return removed;
  }
  [[nodiscard]] std::int64_t totalArea() const {
    std::int64_t area = 0;
    for (const auto& r : entries) area += r.area();
    return area;
  }
  [[nodiscard]] Time makespan() const {
    Time end = 0;
    for (const auto& r : entries) end = std::max(end, r.interval.end);
    return end;
  }
  [[nodiscard]] double utilization(int total, Time horizon) const {
    std::int64_t clipped = 0;
    for (const auto& r : entries) {
      const TimeInterval w = r.interval.intersect(TimeInterval{0, horizon});
      if (!w.empty()) {
        clipped += static_cast<std::int64_t>(r.processors) * w.length();
      }
    }
    return static_cast<double>(clipped) /
           (static_cast<double>(total) * static_cast<double>(horizon));
  }
  /// verify() of a ledger that never annulled anything: the plain
  /// append-only path.
  [[nodiscard]] VerificationReport verify(int total) const {
    ReservationLedger fresh(total);
    for (const auto& r : entries) fresh.add(r);
    return fresh.verify();
  }
};

/// A ledger under test plus the per-job slots its owner must keep, re-read
/// from reservations() whenever a compaction changes the layout.
class SlotOwner {
 public:
  explicit SlotOwner(int total) : ledger(total) {}

  void add(const Reservation& r) {
    sync();
    slots_[r.jobId].push_back(ledger.add(r));
  }
  std::size_t annul(std::uint64_t jobId, Time from) {
    sync();
    const auto before = ledger.layout();
    const auto removed = ledger.annul(jobId, from, slots_[jobId]);
    if (ledger.layout() != before) ++annulCompactions;
    return removed;
  }

  ReservationLedger ledger;
  int annulCompactions = 0;

 private:
  void sync() {
    if (layout_ == ledger.layout()) return;
    slots_.clear();
    const auto& entries = ledger.reservations();
    for (std::size_t s = 0; s < entries.size(); ++s) {
      slots_[entries[s].jobId].push_back(s);
    }
    layout_ = ledger.layout();
  }

  std::map<std::uint64_t, std::vector<ReservationLedger::Slot>> slots_;
  std::uint64_t layout_ = 0;
};

void expectSameEntries(const std::vector<Reservation>& got,
                       const std::vector<Reservation>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].jobId, want[i].jobId) << "entry " << i;
    EXPECT_EQ(got[i].taskIndex, want[i].taskIndex) << "entry " << i;
    EXPECT_EQ(got[i].chainIndex, want[i].chainIndex) << "entry " << i;
    EXPECT_EQ(got[i].interval, want[i].interval) << "entry " << i;
    EXPECT_EQ(got[i].processors, want[i].processors) << "entry " << i;
    EXPECT_EQ(got[i].deadline, want[i].deadline) << "entry " << i;
  }
}

/// Every query but reservations(), which compacts and would hide tombstones
/// from the next step.
void expectSameTotals(const SlotOwner& owner, const ReferenceLedger& ref,
                      int total) {
  EXPECT_EQ(owner.ledger.totalArea(), ref.totalArea());
  EXPECT_EQ(owner.ledger.makespan(), ref.makespan());
  for (const Time horizon : {Time{1}, Time{50}, Time{400}, Time{5000}}) {
    EXPECT_EQ(owner.ledger.utilization(horizon),
              ref.utilization(total, horizon))
        << "horizon " << horizon;
  }
  const auto got = owner.ledger.verify();
  const auto want = ref.verify(total);
  EXPECT_EQ(got.ok, want.ok);
  EXPECT_EQ(got.firstViolation, want.firstViolation);
  EXPECT_EQ(got.violations, want.violations);
}

TEST(ReservationLedgerEquivalence, RandomAddAnnulMatchesBruteForce) {
  constexpr int kTotal = 16;
  // Arbitrary 64-bit ids, including both extremes.
  const std::vector<std::uint64_t> ids = {
      0, 1, 7, 0x9E3779B97F4A7C15ULL, std::numeric_limits<std::uint64_t>::max(),
      std::uint64_t{1} << 63, 12345678901234ULL, 42};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed);
    SlotOwner owner(kTotal);
    ReferenceLedger ref;
    std::map<std::uint64_t, int> nextTask;
    for (int step = 0; step < 1200; ++step) {
      const std::uint64_t job = ids[rng.uniformBelow(ids.size())];
      const auto pick = rng.uniformBelow(10);
      if (pick < 5) {
        // Add one task; deadlines and overlaps are random, so verify()
        // sees violations of every kind along the way.
        const Time begin = rng.uniformInt(0, 300);
        const Time length = rng.uniformInt(0, 60);
        const int procs =
            length == 0 ? 0 : static_cast<int>(rng.uniformInt(1, kTotal));
        const Time deadline =
            rng.bernoulli(0.2) ? begin + length - 1 : kTimeInfinity;
        const int chain = static_cast<int>(rng.uniformBelow(2));
        const auto r = res(job, nextTask[job]++, {begin, begin + length},
                           procs, deadline, chain);
        owner.add(r);
        ref.entries.push_back(r);
      } else if (pick < 8) {
        // Annul from a random instant: some entries started, some not.
        const Time from = rng.uniformInt(-10, 320);
        EXPECT_EQ(owner.annul(job, from), ref.annul(job, from));
      } else {
        // A move: annul the job's future, then re-add new placements.
        const Time from = rng.uniformInt(0, 300);
        EXPECT_EQ(owner.annul(job, from), ref.annul(job, from));
        for (int k = 0; k < 2; ++k) {
          const Time begin = from + 40 * k;
          const auto r = res(job, nextTask[job]++, {begin, begin + 30},
                             static_cast<int>(rng.uniformInt(1, 4)));
          owner.add(r);
          ref.entries.push_back(r);
        }
      }
      expectSameTotals(owner, ref, kTotal);
      if (step % 7 == 0) {
        expectSameEntries(owner.ledger.reservations(), ref.entries);
      }
      if (HasFailure()) return;
    }
    expectSameEntries(owner.ledger.reservations(), ref.entries);
    EXPECT_GT(owner.annulCompactions, 0)
        << "never crossed the compaction threshold";
  }
}

TEST(ReservationLedgerEquivalence, StartedEntriesSurviveAndFutureOnesGo) {
  SlotOwner owner(8);
  owner.add(res(5, 0, {0, 10}, 2));
  owner.add(res(5, 1, {10, 20}, 2));
  owner.add(res(6, 0, {0, 40}, 1));
  owner.add(res(5, 2, {20, 30}, 2));
  // Task 0 has started by t=10; tasks 1 and 2 have not.
  EXPECT_EQ(owner.annul(5, 10), 2u);
  EXPECT_EQ(owner.ledger.totalArea(), 2 * 10 + 40);
  EXPECT_EQ(owner.ledger.makespan(), 40);
  ASSERT_EQ(owner.ledger.reservations().size(), 2u);
  EXPECT_EQ(owner.ledger.reservations()[0].jobId, 5u);
  EXPECT_EQ(owner.ledger.reservations()[1].jobId, 6u);
  // Nothing of the job is left to annul after the clock.
  EXPECT_EQ(owner.annul(5, 10), 0u);
}

TEST(ReservationLedgerEquivalence, ReAddAfterAnnulIsAMove) {
  SlotOwner owner(8);
  owner.add(res(3, 0, {10, 20}, 4));
  owner.add(res(4, 0, {0, 5}, 1));
  EXPECT_EQ(owner.annul(3, 0), 1u);
  owner.add(res(3, 0, {30, 50}, 2));  // the job's new, lower rung
  const auto& entries = owner.ledger.reservations();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].jobId, 4u);
  EXPECT_EQ(entries[1].interval, (TimeInterval{30, 50}));
  EXPECT_EQ(owner.ledger.totalArea(), 5 + 2 * 20);
  EXPECT_EQ(owner.ledger.makespan(), 50);
  EXPECT_TRUE(owner.ledger.verify().ok);
}

TEST(ReservationLedgerEquivalence, AnnullingTheMakespanEntryRecomputesIt) {
  SlotOwner owner(8);
  owner.add(res(1, 0, {0, 30}, 1));
  owner.add(res(2, 0, {0, 100}, 1));
  owner.add(res(3, 0, {0, 100}, 1));  // ties the makespan
  EXPECT_EQ(owner.annul(2, 0), 1u);
  EXPECT_EQ(owner.ledger.makespan(), 100);
  EXPECT_EQ(owner.annul(3, 0), 1u);
  EXPECT_EQ(owner.ledger.makespan(), 30);
  owner.add(res(4, 0, {10, 20}, 1));  // adds while the makespan is stale
  EXPECT_EQ(owner.ledger.makespan(), 30);
  EXPECT_EQ(owner.annul(1, 0), 1u);
  EXPECT_EQ(owner.ledger.makespan(), 20);
  EXPECT_EQ(owner.annul(4, 0), 1u);
  EXPECT_EQ(owner.ledger.makespan(), 0);
  EXPECT_EQ(owner.ledger.totalArea(), 0);
  EXPECT_TRUE(owner.ledger.reservations().empty());
}

TEST(ReservationLedgerEquivalence, CompactionKeepsOrderAndChangesLayout) {
  ReservationLedger ledger(4);
  std::vector<std::vector<ReservationLedger::Slot>> slots(40);
  for (std::uint64_t job = 0; job < 40; ++job) {
    const auto begin = static_cast<Time>(job);
    slots[job].push_back(ledger.add(res(job, 0, {begin, begin + 1}, 1)));
  }
  // Tombstones below a quarter of the entries stay in place.
  for (std::uint64_t job = 0; job < 10; ++job) {
    EXPECT_EQ(ledger.annul(job * 4, 0, slots[job * 4]), 1u);
    EXPECT_TRUE(slots[job * 4].empty());
  }
  EXPECT_EQ(ledger.layout(), 0u);
  EXPECT_EQ(ledger.totalArea(), 30);
  // The eleventh crosses the threshold: one compaction drops them all.
  EXPECT_EQ(ledger.annul(1, 0, slots[1]), 1u);
  EXPECT_EQ(ledger.layout(), 1u);
  const auto& entries = ledger.reservations();
  ASSERT_EQ(entries.size(), 29u);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].jobId, entries[i].jobId);  // insertion order
  }
  EXPECT_EQ(ledger.layout(), 1u);  // nothing left to compact
}

}  // namespace
}  // namespace tprm::resource
