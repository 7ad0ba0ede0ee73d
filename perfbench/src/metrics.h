// Metric arithmetic of the benchmark, kept apart from the workloads so the
// self-tests (perfbench/tests/metrics_test.cpp) can pin it without a daemon.
//
//  * percentiles use the nearest-rank rule, and a percentile is only
//    reported when at least `kTailSamples` samples lie beyond it;
//  * JobBook turns the decision stream a client saw (admissions, reshape
//    moves, cancels) into the final placements, from which admit ratio,
//    mean quality and utilization follow;
//  * selfTime is a span's duration minus the part of it its children cover.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/time.h"
#include "sched/arbitrator.h"

namespace perfbench {

/// Samples a reported percentile must leave beyond it.
inline constexpr std::size_t kTailSamples = 10;

/// 0-based index of the nearest-rank `q`-quantile (q in (0, 1]) of n sorted
/// samples: the smallest index whose rank covers a share q of the samples.
inline std::size_t rankIndex(std::size_t n, double q) {
  if (n == 0) throw std::invalid_argument("percentile of no samples");
  const double rank = std::ceil(q * static_cast<double>(n));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return std::min(index, n - 1);
}

/// Samples strictly beyond the nearest-rank `q`-quantile of n samples.
inline std::size_t samplesBeyond(std::size_t n, double q) {
  return n - 1 - rankIndex(n, q);
}

/// Nearest-rank `q`-quantile.  Throws unless at least `kTailSamples`
/// samples lie beyond it, so a reported tail is never one outlier.
inline double percentile(std::vector<double> samples, double q) {
  if (samplesBeyond(samples.size(), q) < kTailSamples) {
    throw std::invalid_argument("too few samples beyond the percentile");
  }
  const std::size_t index = rankIndex(samples.size(), q);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

/// Median of a non-empty set (mean of the middle pair for even sizes).
inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Mean of a non-empty set.
inline double mean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("mean of no values");
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Failed operations over attempted operations (0 when nothing ran).
inline double errorRatio(std::uint64_t failed, std::uint64_t attempted) {
  if (failed > attempted) throw std::invalid_argument("failed > attempted");
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

/// A closed interval of monotonic nanoseconds.
struct Interval {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

/// `span`'s length minus the length of the union of `children` clipped to
/// it: the time the span's own layer was busy (its self time).
inline std::int64_t selfTime(Interval span, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  std::int64_t covered = 0;
  std::int64_t reach = span.begin;  // everything before reach is counted
  for (const auto& child : children) {
    const std::int64_t begin = std::max(child.begin, reach);
    const std::int64_t end = std::min(child.end, span.end);
    if (end > begin) {
      covered += end - begin;
      reach = end;
    }
  }
  return (span.end - span.begin) - covered;
}

/// Final outcome of every negotiated job as the client saw it.  Moves and
/// cancels may be fed in any order relative to each other: a cancelled job
/// is never moved afterwards (only live jobs move), so clipping at finish()
/// time gives the same placements as clipping when the cancel happened.
class JobBook {
 public:
  /// A job offered for negotiation, released at `release`.
  void offer(tprm::Time release) {
    ++offered_;
    firstRelease_ = std::min(firstRelease_, release);
  }
  void admit(std::uint64_t jobId, double quality,
             std::vector<tprm::sched::TaskPlacement> placements) {
    ++admitted_;
    jobs_[jobId] = Job{quality, std::move(placements)};
  }
  /// A reshape move: the job now holds `placements` at `quality`.
  void move(std::uint64_t jobId, double quality,
            std::vector<tprm::sched::TaskPlacement> placements) {
    auto& job = jobs_.at(jobId);
    job.quality = quality;
    job.placements = std::move(placements);
  }
  /// A cancel executed at arbitrator clock `clock`: reservations that had
  /// not begun by then are returned, begun ones stay committed.
  void cancel(std::uint64_t jobId, tprm::Time clock) {
    cancels_.emplace_back(jobId, clock);
  }

  [[nodiscard]] std::uint64_t offered() const { return offered_; }
  [[nodiscard]] std::uint64_t admitted() const { return admitted_; }

  [[nodiscard]] double admitRatio() const {
    return offered_ == 0 ? 0.0
                         : static_cast<double>(admitted_) /
                               static_cast<double>(offered_);
  }
  /// Mean final quality over admitted jobs.
  [[nodiscard]] double meanQuality() const {
    if (jobs_.empty()) return 0.0;
    double sum = 0.0;
    for (const auto& [id, job] : jobs_) sum += job.quality;
    return sum / static_cast<double>(jobs_.size());
  }
  /// Processor-ticks of the final placements.
  [[nodiscard]] std::int64_t grantedArea() const {
    std::int64_t area = 0;
    forEachFinal([&](const tprm::sched::TaskPlacement& p) {
      area += static_cast<std::int64_t>(p.processors) * p.interval.length();
    });
    return area;
  }
  /// Granted processor-ticks over processors x span of the schedule, the
  /// span running from the first release to the last final placement end.
  [[nodiscard]] double utilization(int processors) const {
    tprm::Time last = firstRelease_;
    forEachFinal([&](const tprm::sched::TaskPlacement& p) {
      last = std::max(last, p.interval.end);
    });
    if (offered_ == 0 || last <= firstRelease_) return 0.0;
    return static_cast<double>(grantedArea()) /
           (static_cast<double>(processors) *
            static_cast<double>(last - firstRelease_));
  }

 private:
  struct Job {
    double quality = 0.0;
    std::vector<tprm::sched::TaskPlacement> placements;
  };

  template <typename Fn>
  void forEachFinal(Fn&& fn) const {
    std::map<std::uint64_t, tprm::Time> cancelledAt;
    for (const auto& [id, clock] : cancels_) {
      auto [it, fresh] = cancelledAt.emplace(id, clock);
      if (!fresh) it->second = std::min(it->second, clock);
    }
    for (const auto& [id, job] : jobs_) {
      const auto cancel = cancelledAt.find(id);
      for (const auto& p : job.placements) {
        if (cancel != cancelledAt.end() && p.interval.begin >= cancel->second) {
          continue;
        }
        fn(p);
      }
    }
  }

  std::uint64_t offered_ = 0;
  std::uint64_t admitted_ = 0;
  tprm::Time firstRelease_ = std::numeric_limits<tprm::Time>::max();
  std::map<std::uint64_t, Job> jobs_;
  std::vector<std::pair<std::uint64_t, tprm::Time>> cancels_;
};

}  // namespace perfbench
