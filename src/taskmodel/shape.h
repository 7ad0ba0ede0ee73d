// The planner's form of a job: a compact, string-free copy of a spec.
//
// A configuration of a tunable task is a (parameter values, resource
// request, quality) triple (Section 4), but the arbitrator plans only with
// the requests, deadlines and qualities (Sections 3.1 and 5.2); names and
// parameter bindings belong to the QoS agent.  A JobShape keeps exactly
// what planning reads: every chain's tasks in one contiguous array, plus
// per-chain values computed once (quality under the spec's composition,
// widest task, prefix areas for the tie-break).  One shape owns one
// heap block, so a shared copy costs two allocations with its control
// block.
//
// A JobView is what the planner is handed: a shape plus a release, the
// anchor its relative deadlines are measured from, and an optional chain
// filter.  Renegotiation expresses "rebase to the clock" (release moves,
// anchor stays, so absolute deadlines are the same integers) and "quality
// band" (filter) as view parameters instead of building a new spec.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <span>

#include "common/check.h"
#include "taskmodel/chain.h"

namespace tprm::task {

/// One task as the planner reads it: a TaskSpec without its name.
struct ShapeTask {
  ResourceRequest request;
  Time relativeDeadline = kTimeInfinity;
  /// Meaningful iff `malleable`.
  MalleableSpec malleableSpec;
  bool malleable = false;
  /// Processor-ticks of tasks [0, k] of the task's chain.
  std::int64_t prefixArea = 0;
};

/// Per-chain values, computed once when the shape is built.
struct ShapeChain {
  std::uint32_t firstTask = 0;
  std::uint32_t taskCount = 0;
  /// Path quality under the spec's composition (Chain::quality).
  double quality = 0.0;
  /// Widest task (Chain::maxProcessors).
  int maxProcessors = 0;
};

/// Immutable planning form of a TunableJobSpec.  Copies allocate exactly
/// the used size; assign() reuses the storage it already has.
class JobShape {
 public:
  JobShape() = default;
  explicit JobShape(const TunableJobSpec& spec) { assign(spec); }
  JobShape(const JobShape& other);
  JobShape& operator=(const JobShape& other);
  /// A moved-from shape is valid (empty, or the target's old job).
  JobShape(JobShape&& other) noexcept { swap(other); }
  JobShape& operator=(JobShape&& other) noexcept {
    swap(other);
    return *this;
  }
  ~JobShape() = default;

  /// Rebuilds this shape from `spec`, allocating only when the spec needs
  /// more room than the storage already holds.
  void assign(const TunableJobSpec& spec);

  [[nodiscard]] std::size_t chainCount() const { return chainCount_; }
  [[nodiscard]] const ShapeChain& chain(std::size_t c) const {
    return chains()[c];
  }
  /// Chain `c`'s tasks, in order.
  [[nodiscard]] std::span<const ShapeTask> tasks(std::size_t c) const {
    const ShapeChain& ch = chain(c);
    return {taskArray() + ch.firstTask, ch.taskCount};
  }
  /// Narrowest chain's widest task: no machine narrower than this can hold
  /// any chain (int max for a shape without chains).
  [[nodiscard]] int minChainWidth() const { return minChainWidth_; }

  /// The Section 5.2 tie-break (task::prefixAreasLess) over chains `a` and
  /// `b` of this shape.
  [[nodiscard]] bool prefixAreasLess(std::size_t a, std::size_t b) const;

 private:
  // Inline: the planner reads a chain's record and tasks on every probe.
  [[nodiscard]] const ShapeTask* taskArray() const {
    if (taskCount_ == 0) return nullptr;
    return std::launder(reinterpret_cast<const ShapeTask*>(storage_.get()));
  }
  [[nodiscard]] const ShapeChain* chains() const {
    if (chainCount_ == 0) return nullptr;
    return std::launder(reinterpret_cast<const ShapeChain*>(
        storage_.get() + taskCount_ * sizeof(ShapeTask)));
  }
  void swap(JobShape& other) noexcept;

  /// Tasks, then chains; both arrays of trivially copyable records.
  std::unique_ptr<std::byte[]> storage_;
  std::size_t capacity_ = 0;  // bytes of storage_
  std::uint32_t chainCount_ = 0;
  std::uint32_t taskCount_ = 0;
  int minChainWidth_ = std::numeric_limits<int>::max();
};

/// Lends this thread's reusable shape, rebuilt from one spec, for the
/// guard's lifetime: planning a caller's spec allocates nothing once the
/// thread's storage has grown to the spec's size.  Each thread has its own,
/// so concurrent submits never share one.  A guard opened while another is
/// alive on the same thread builds a private shape instead.
class ScratchShape {
 public:
  explicit ScratchShape(const TunableJobSpec& spec);
  ~ScratchShape();
  ScratchShape(const ScratchShape&) = delete;
  ScratchShape& operator=(const ScratchShape&) = delete;

  [[nodiscard]] const JobShape& operator*() const { return *shape_; }
  [[nodiscard]] const JobShape* operator->() const { return shape_; }

 private:
  std::optional<JobShape> own_;  // only when the thread's shape is lent out
  const JobShape* shape_ = nullptr;
};

/// Which chains of a shape a rebased view offers the planner, and from
/// which task.  Besides the chains it excludes, a filter drops every chain
/// with a planned task whose absolute deadline is at or before the view's
/// release plus the task's duration: a deadline that came too close.
struct ChainFilter {
  static constexpr std::size_t kAllChains =
      std::numeric_limits<std::size_t>::max();

  /// Offer only this chain (kAllChains: every chain).
  std::size_t only = kAllChains;
  /// Plan the offered chain from this task on (a committed suffix).  Only
  /// with a single offered chain.
  std::size_t firstTask = 0;
  /// Chain quality q is offered iff above < q, q < below and q <= atMost
  /// (the defaults offer every quality).
  double above = -std::numeric_limits<double>::infinity();
  double below = std::numeric_limits<double>::infinity();
  double atMost = std::numeric_limits<double>::infinity();
};

/// An arrived job as the planner reads it.  Non-owning: the shape (and the
/// filter) must outlive the view, which callers keep to one call.
struct JobView {
  std::uint64_t id = 0;
  /// Earliest start of the first planned task.
  Time release = 0;
  /// Absolute deadline of a task = deadlineAnchor + its relative deadline.
  /// Equal to `release` except for rebased views.
  Time deadlineAnchor = 0;
  const JobShape& shape;
  const ChainFilter* filter = nullptr;

  JobView(std::uint64_t jobId, Time releaseTime, const JobShape& jobShape)
      : id(jobId), release(releaseTime), deadlineAnchor(releaseTime),
        shape(jobShape) {}
  /// A rebased, filtered view: planning starts at `releaseTime` while
  /// deadlines stay anchored at `anchor`.
  JobView(std::uint64_t jobId, Time releaseTime, Time anchor,
          const JobShape& jobShape, const ChainFilter* chainFilter)
      : id(jobId), release(releaseTime), deadlineAnchor(anchor),
        shape(jobShape), filter(chainFilter) {
    // Every planner applies firstTask() to each offered chain.
    TPRM_CHECK(filter == nullptr || filter->firstTask == 0 ||
                   filter->only != ChainFilter::kAllChains,
               "a committed suffix needs a single offered chain");
  }

  /// True iff the planner may consider chain `c`.
  [[nodiscard]] bool offers(std::size_t c) const {
    return filter == nullptr || offersFiltered(c);
  }
  /// Chains offered (all of them without a filter).
  [[nodiscard]] std::size_t offeredCount() const {
    return filter == nullptr ? shape.chainCount() : offeredFilteredCount();
  }
  /// First task of each offered chain that the planner places.
  [[nodiscard]] std::size_t firstTask() const {
    return filter == nullptr ? 0 : filter->firstTask;
  }

  /// Absolute deadline of a task with relative deadline `relative`.
  [[nodiscard]] Time absoluteDeadline(Time relative) const {
    return relative >= kTimeInfinity ? kTimeInfinity
                                     : deadlineAnchor + relative;
  }

 private:
  [[nodiscard]] bool offersFiltered(std::size_t c) const;
  [[nodiscard]] std::size_t offeredFilteredCount() const;
};

}  // namespace tprm::task
