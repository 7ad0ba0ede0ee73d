#include "resource/reservation_ledger.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/check.h"

namespace tprm::resource {

ReservationLedger::ReservationLedger(int totalProcessors)
    : total_(totalProcessors) {
  TPRM_CHECK(totalProcessors > 0, "machine needs at least one processor");
}

ReservationLedger::Slot ReservationLedger::add(const Reservation& r) {
  TPRM_CHECK(!r.interval.empty() || r.processors == 0,
             "reservation interval must be non-empty");
  TPRM_CHECK(r.processors >= 0 && r.processors <= total_,
             "reservation processor count out of range");
  entries_.push_back(r);
  totalArea_ += r.area();
  makespan_ = std::max(makespan_, r.interval.end);
  return entries_.size() - 1;
}

std::size_t ReservationLedger::annul(std::uint64_t jobId, Time from,
                                     std::vector<Slot>& slots) {
  std::size_t removed = 0;
  std::size_t kept = 0;
  for (const Slot slot : slots) {
    TPRM_CHECK(slot < entries_.size(), "ledger slot out of range");
    Reservation& r = entries_[slot];
    TPRM_CHECK(!annulled(r) && r.jobId == jobId,
               "ledger slot does not hold a live entry of the job");
    if (r.interval.begin < from) {
      slots[kept++] = slot;
      continue;
    }
    totalArea_ -= r.area();
    if (r.interval.end == makespan_) makespanStale_ = true;
    r.processors = kAnnulled;
    ++removed;
  }
  slots.resize(kept);
  dead_ += removed;
  if (dead_ * 4 > entries_.size()) compact();
  return removed;
}

void ReservationLedger::compact() const {
  std::erase_if(entries_, annulled);
  dead_ = 0;
  ++layout_;
}

Time ReservationLedger::makespan() const {
  if (makespanStale_) {
    makespan_ = 0;
    for (const auto& r : entries_) {
      if (!annulled(r)) makespan_ = std::max(makespan_, r.interval.end);
    }
    makespanStale_ = false;
  }
  return makespan_;
}

double ReservationLedger::utilization(Time horizon) const {
  TPRM_CHECK(horizon > 0, "utilization horizon must be positive");
  std::int64_t clipped = 0;
  for (const auto& r : entries_) {
    if (annulled(r)) continue;
    const TimeInterval w = r.interval.intersect(TimeInterval{0, horizon});
    if (!w.empty()) {
      clipped += static_cast<std::int64_t>(r.processors) * w.length();
    }
  }
  return static_cast<double>(clipped) /
         (static_cast<double>(total_) * static_cast<double>(horizon));
}

VerificationReport ReservationLedger::verify() const {
  VerificationReport report;
  auto fail = [&report](const std::string& what) {
    if (report.ok) {
      report.ok = false;
      report.firstViolation = what;
    }
    ++report.violations;
  };

  // Capacity: sweep over +processors at begin, -processors at end events.
  std::map<Time, std::int64_t> delta;
  for (const auto& r : entries_) {
    if (r.processors <= 0) continue;  // empty or annulled
    delta[r.interval.begin] += r.processors;
    delta[r.interval.end] -= r.processors;
  }
  std::int64_t inUse = 0;
  for (const auto& [t, d] : delta) {
    inUse += d;
    if (inUse > total_) {
      std::ostringstream os;
      os << "capacity exceeded at t=" << formatTime(t) << ": " << inUse << " > "
         << total_;
      fail(os.str());
    }
  }

  // Deadlines.
  for (const auto& r : entries_) {
    if (!annulled(r) && r.interval.end > r.deadline) {
      std::ostringstream os;
      os << "job " << r.jobId << " task " << r.taskIndex << " ends at "
         << formatTime(r.interval.end) << " after deadline "
         << formatTime(r.deadline);
      fail(os.str());
    }
  }

  // Precedence within each (job, chain).
  std::map<std::pair<std::uint64_t, int>, std::vector<const Reservation*>> byJob;
  for (const auto& r : entries_) {
    if (annulled(r)) continue;
    byJob[{r.jobId, r.chainIndex}].push_back(&r);
  }
  for (auto& [key, tasks] : byJob) {
    std::sort(tasks.begin(), tasks.end(),
              [](const Reservation* a, const Reservation* b) {
                return a->taskIndex < b->taskIndex;
              });
    for (std::size_t i = 1; i < tasks.size(); ++i) {
      if (tasks[i]->taskIndex == tasks[i - 1]->taskIndex) {
        std::ostringstream os;
        os << "job " << key.first << " has duplicate reservations for task "
           << tasks[i]->taskIndex;
        fail(os.str());
      } else if (tasks[i]->interval.begin < tasks[i - 1]->interval.end) {
        std::ostringstream os;
        os << "job " << key.first << " task " << tasks[i]->taskIndex
           << " starts before its predecessor finishes";
        fail(os.str());
      }
    }
  }

  return report;
}

}  // namespace tprm::resource
