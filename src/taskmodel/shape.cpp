#include "taskmodel/shape.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/check.h"

namespace tprm::task {

static_assert(std::is_trivially_copyable_v<ShapeTask>);
static_assert(std::is_trivially_copyable_v<ShapeChain>);
// Chains follow the tasks in one block: every task record keeps them
// aligned.
static_assert(sizeof(ShapeTask) % alignof(ShapeChain) == 0);
static_assert(alignof(ShapeTask) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

namespace {

std::size_t bytesFor(std::size_t chains, std::size_t tasks) {
  return tasks * sizeof(ShapeTask) + chains * sizeof(ShapeChain);
}

}  // namespace

JobShape::JobShape(const JobShape& other)
    : chainCount_(other.chainCount_), taskCount_(other.taskCount_),
      minChainWidth_(other.minChainWidth_) {
  const std::size_t bytes = bytesFor(chainCount_, taskCount_);
  if (bytes == 0) return;
  storage_ = std::make_unique_for_overwrite<std::byte[]>(bytes);
  capacity_ = bytes;
  std::memcpy(storage_.get(), other.storage_.get(), bytes);
}

JobShape& JobShape::operator=(const JobShape& other) {
  if (this != &other) JobShape(other).swap(*this);
  return *this;
}

void JobShape::swap(JobShape& other) noexcept {
  std::swap(storage_, other.storage_);
  std::swap(capacity_, other.capacity_);
  std::swap(chainCount_, other.chainCount_);
  std::swap(taskCount_, other.taskCount_);
  std::swap(minChainWidth_, other.minChainWidth_);
}

void JobShape::assign(const TunableJobSpec& spec) {
  std::size_t tasks = 0;
  for (const auto& chain : spec.chains) tasks += chain.tasks.size();
  TPRM_CHECK(spec.chains.size() <= UINT32_MAX && tasks <= UINT32_MAX,
             "job shape too large");
  const std::size_t bytes = bytesFor(spec.chains.size(), tasks);
  if (bytes > capacity_) {
    storage_ = std::make_unique_for_overwrite<std::byte[]>(bytes);
    capacity_ = bytes;
  }
  chainCount_ = static_cast<std::uint32_t>(spec.chains.size());
  taskCount_ = static_cast<std::uint32_t>(tasks);
  minChainWidth_ = std::numeric_limits<int>::max();

  std::byte* base = storage_.get();
  std::byte* chainBase = base + tasks * sizeof(ShapeTask);
  std::uint32_t next = 0;
  for (std::size_t c = 0; c < spec.chains.size(); ++c) {
    const Chain& chain = spec.chains[c];
    ShapeChain record;
    record.firstTask = next;
    record.taskCount = static_cast<std::uint32_t>(chain.tasks.size());
    record.quality = chain.quality(spec.qualityComposition);
    std::int64_t prefix = 0;
    for (const TaskSpec& t : chain.tasks) {
      ShapeTask task;
      task.request = t.request;
      task.relativeDeadline = t.relativeDeadline;
      if (t.malleable) {
        task.malleable = true;
        task.malleableSpec = *t.malleable;
      }
      prefix += t.request.area();
      task.prefixArea = prefix;
      record.maxProcessors = std::max(record.maxProcessors,
                                      t.request.processors);
      ::new (base + next * sizeof(ShapeTask)) ShapeTask(task);
      ++next;
    }
    minChainWidth_ = std::min(minChainWidth_, record.maxProcessors);
    ::new (chainBase + c * sizeof(ShapeChain)) ShapeChain(record);
  }
}

bool JobShape::prefixAreasLess(std::size_t a, std::size_t b) const {
  const auto ta = tasks(a);
  const auto tb = tasks(b);
  const std::size_t common = std::min(ta.size(), tb.size());
  for (std::size_t k = 0; k < common; ++k) {
    if (ta[k].prefixArea != tb[k].prefixArea) {
      return ta[k].prefixArea < tb[k].prefixArea;
    }
  }
  // Equal common prefix: the shorter sequence orders first.
  return ta.size() < tb.size();
}

namespace {

struct ThreadScratch {
  JobShape shape;
  bool lent = false;
};
thread_local ThreadScratch tScratch;

}  // namespace

ScratchShape::ScratchShape(const TunableJobSpec& spec) {
  if (tScratch.lent) {
    shape_ = &own_.emplace(spec);
    return;
  }
  tScratch.lent = true;
  tScratch.shape.assign(spec);
  shape_ = &tScratch.shape;
}

ScratchShape::~ScratchShape() {
  if (!own_.has_value()) tScratch.lent = false;
}

std::size_t JobView::offeredFilteredCount() const {
  std::size_t offered = 0;
  for (std::size_t c = 0; c < shape.chainCount(); ++c) {
    if (offersFiltered(c)) ++offered;
  }
  return offered;
}

bool JobView::offersFiltered(std::size_t c) const {
  const ChainFilter& f = *filter;
  if (f.only != ChainFilter::kAllChains && c != f.only) return false;
  const double q = shape.chain(c).quality;
  if (!(q > f.above && q < f.below && q <= f.atMost)) return false;
  const auto tasks = shape.tasks(c);
  for (std::size_t k = f.firstTask; k < tasks.size(); ++k) {
    const ShapeTask& t = tasks[k];
    if (t.relativeDeadline >= kTimeInfinity) continue;
    if (deadlineAnchor + t.relativeDeadline <= release + t.request.duration) {
      return false;
    }
  }
  return true;
}

}  // namespace tprm::task
