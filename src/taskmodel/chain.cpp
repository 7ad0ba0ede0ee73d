#include "taskmodel/chain.h"

#include <algorithm>
#include <string>

#include "common/check.h"

namespace tprm::task {

std::int64_t Chain::totalArea() const {
  std::int64_t area = 0;
  for (const auto& t : tasks) area += t.request.area();
  return area;
}

Time Chain::criticalPathLength() const {
  Time length = 0;
  for (const auto& t : tasks) length += t.request.duration;
  return length;
}

int Chain::maxProcessors() const {
  int maxProcs = 0;
  for (const auto& t : tasks) maxProcs = std::max(maxProcs, t.request.processors);
  return maxProcs;
}

double Chain::quality(QualityComposition comp) const {
  if (tasks.empty()) return 0.0;
  switch (comp) {
    case QualityComposition::Multiplicative: {
      double q = 1.0;
      for (const auto& t : tasks) q *= t.quality;
      return q;
    }
    case QualityComposition::Minimum: {
      double q = 1.0;
      for (const auto& t : tasks) q = std::min(q, t.quality);
      return q;
    }
  }
  return 0.0;
}

bool prefixAreasLess(const Chain& a, const Chain& b) {
  const std::size_t common = std::min(a.tasks.size(), b.tasks.size());
  std::int64_t runningA = 0;
  std::int64_t runningB = 0;
  for (std::size_t k = 0; k < common; ++k) {
    runningA += a.tasks[k].request.area();
    runningB += b.tasks[k].request.area();
    if (runningA != runningB) return runningA < runningB;
  }
  // Equal common prefix: the shorter sequence orders first.
  return a.tasks.size() < b.tasks.size();
}

Time JobInstance::absoluteDeadline(std::size_t chainIndex,
                                   std::size_t taskIndex) const {
  TPRM_CHECK(chainIndex < spec.chains.size(), "chain index out of range");
  const Chain& chain = spec.chains[chainIndex];
  TPRM_CHECK(taskIndex < chain.tasks.size(), "task index out of range");
  const Time rel = chain.tasks[taskIndex].relativeDeadline;
  if (rel >= kTimeInfinity) return kTimeInfinity;
  return release + rel;
}

std::vector<std::string> validate(const TunableJobSpec& spec) {
  std::vector<std::string> errors;

  if (spec.chains.empty()) {
    errors.push_back("job '" + spec.name + "' has no chains");
    return errors;
  }
  for (std::size_t c = 0; c < spec.chains.size(); ++c) {
    const Chain& chain = spec.chains[c];
    // Location strings are built only for a failing check.
    const auto where = [&] {
      return "job '" + spec.name + "' chain " + std::to_string(c) + " ('" +
             chain.name + "')";
    };
    if (chain.tasks.empty()) {
      errors.push_back(where() + " is empty");
      continue;
    }
    Time previousDeadline = 0;
    Time earliestFinish = 0;
    for (std::size_t k = 0; k < chain.tasks.size(); ++k) {
      const TaskSpec& t = chain.tasks[k];
      const auto fail = [&](const std::string& what) {
        errors.push_back(where() + " task " + std::to_string(k) + " ('" +
                         t.name + "')" + what);
      };
      if (t.request.processors <= 0) fail(": processors <= 0");
      if (t.request.duration <= 0) fail(": duration <= 0");
      if (t.quality < 0.0 || t.quality > 1.0) {
        fail(": quality outside [0, 1]");
      }
      if (t.malleable) {
        if (t.malleable->work <= 0) fail(": malleable work <= 0");
        if (t.malleable->maxConcurrency < t.request.processors) {
          fail(": degree of concurrency below the rigid shape's processors");
        }
      }
      if (t.relativeDeadline < previousDeadline) {
        fail(": relative deadline decreases along the chain (a deadline "
             "covers all predecessors, so it must be non-decreasing)");
      }
      previousDeadline = t.relativeDeadline;
      // Saturates: durations near the tick range must not overflow the sum.
      if (__builtin_add_overflow(earliestFinish, t.request.duration,
                                 &earliestFinish)) {
        earliestFinish = kTimeInfinity;
      }
      if (t.relativeDeadline < kTimeInfinity &&
          earliestFinish > t.relativeDeadline) {
        fail(": infeasible even on an idle machine (critical path " +
             formatTime(earliestFinish) + " exceeds deadline " +
             formatTime(t.relativeDeadline) + ")");
      }
    }
  }
  return errors;
}

std::string admissionBoundError(const TunableJobSpec& spec, Time release) {
  for (std::size_t c = 0; c < spec.chains.size(); ++c) {
    std::int64_t chainArea = 0;
    Time horizon = std::max<Time>(release, 0);
    const auto& tasks = spec.chains[c].tasks;
    for (std::size_t k = 0; k < tasks.size(); ++k) {
      const TaskSpec& t = tasks[k];
      const auto at = [&](const char* what) {
        return "chains[" + std::to_string(c) + "].tasks[" +
               std::to_string(k) + "]: " + what + " exceeds the admission bound";
      };
      std::int64_t area = 0;
      if (__builtin_mul_overflow(std::int64_t{t.request.processors},
                                 t.request.duration, &area) ||
          area > kMaxAdmissionTicks ||
          (t.malleable && t.malleable->work > kMaxAdmissionTicks)) {
        return at("area (processors x duration)");
      }
      // Each term is at most 2^50, so neither sum can overflow before the
      // bound check stops it.
      chainArea += area;
      if (chainArea > kMaxAdmissionTicks) return at("chain area");
      // A malleable task may be placed on one processor: its longest run
      // is its whole work.
      horizon += t.malleable ? std::max(t.malleable->work, t.request.duration)
                             : t.request.duration;
      if (horizon > kMaxAdmissionTicks) {
        return at("horizon (release + critical path)");
      }
    }
  }
  return {};
}

}  // namespace tprm::task
