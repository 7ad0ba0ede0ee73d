// Pluggable server→shard command handoff queues.
//
// The negotiation server hands decoded commands from its event loops to the
// per-shard worker threads through one queue per shard.  This seam makes the
// queue implementation swappable (`tprmd --queue={mutex,mpsc,steal}`) while
// preserving the two invariants record→replay decision identity rests on:
//
//   1. Push order per queue == arrivalSeq order.  The server draws the
//      sequence number and pushes under one lock (seqMutex_), so any FIFO
//      queue observes commands in arrivalSeq order regardless of how the
//      push itself synchronises.
//   2. Drain order per queue == push order, and batches are *executed*
//      under the consumer claim.  Whoever drains (the owning worker or, in
//      steal mode, a thief) holds the claim token across both the drain and
//      the execution of the drained batch, so per-shard commands execute in
//      arrivalSeq order even when different threads take turns draining.
//      The server's event loops also take the claim, without draining, to
//      run a command themselves when its queue is empty; a worker that
//      finds the claim taken parks in waitClaimReleased() until the holder
//      lets go instead of re-polling.
//
// Implementations:
//   * MutexCommandQueue  — the original mutex + std::deque + two condition
//     variables (notEmpty for the consumer, notFull for bounded producers).
//     Decision-identical baseline; the only implementation with a truly
//     blocking bounded push.
//   * MpscCommandQueue   — Vyukov-style intrusive linked MPSC queue:
//     producers exchange the head pointer and link with a release store
//     (wait-free, no producer lock); one consumer walks the tail.  A
//     mutex+CV pair is used only to park an idle consumer, never on the
//     push path.
//   * StealCommandQueue  — the same linked-node core operated as a
//     work-stealing intake: the consumer claim token is contended by
//     design, so an idle sibling worker may claim, drain a batch from the
//     FRONT (oldest first — FIFO is preserved), execute it, and release.
//     This replaces lock-coupled donation at the handoff layer: imbalance
//     is absorbed by thieves draining the deepest queue rather than by
//     moving jobs between shards.
//
// closeAndDrain contract (all implementations): close() marks the queue
// closed and wakes every parked consumer AND every blocked producer (the
// shutdown lost-wakeup fix — notifying only notEmpty leaves a producer in
// pushBounded() asleep forever).  Pushes after close() return Closed and
// commit nothing; drains after close() keep returning the remaining items
// until the queue is empty, so nothing admitted is ever lost.  Callers that
// push concurrently with close() must serialise the two externally (the
// server does: close happens under the same lock that guards every push).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace tprm::qos {

/// Which handoff queue implementation a server (or harness) runs.
enum class QueueKind { Mutex, Mpsc, Steal };

/// Parses "mutex" / "mpsc" / "steal"; nullopt on anything else.
[[nodiscard]] std::optional<QueueKind> queueKindFromName(
    const std::string& name);
[[nodiscard]] const char* toString(QueueKind kind);

/// Outcome of a push.
enum class QueuePush {
  Ok,            // admitted, depth below capacity
  OkAtCapacity,  // admitted, but depth is now at/above capacity — the
                 // producer should throttle (v1 pause-reads signal)
  Refused,       // not admitted (refuseAtCapacity and the queue is full,
                 // or a bounded push timed out); nothing committed
  Closed,        // queue closed; nothing committed
};

struct QueuePushResult {
  QueuePush status = QueuePush::Ok;
  /// Depth immediately after this push committed (or the depth observed at
  /// refusal).  Sampled before push() returns so gauges see every peak —
  /// a consumer draining whole batches between samples cannot hide one.
  std::size_t depth = 0;
};

/// Wait forever (until an item arrives or the queue closes).
inline constexpr std::chrono::milliseconds kWaitForever{-1};

/// Abstract handoff queue.  Producers call push()/pushBounded() from any
/// thread.  Consumers must hold the claim token around tryDrainUpTo() and
/// around executing what it returned; see the file comment for why.
template <typename T>
class CommandQueue {
 public:
  virtual ~CommandQueue() = default;

  CommandQueue(const CommandQueue&) = delete;
  CommandQueue& operator=(const CommandQueue&) = delete;

  /// Non-blocking push.  With refuseAtCapacity, a full queue refuses
  /// instead of admitting past capacity (the v2 `busy` discipline); without
  /// it the queue is soft-bounded and reports OkAtCapacity as the throttle
  /// signal (the v1 pause-reads discipline).
  virtual QueuePushResult push(T item, bool refuseAtCapacity) = 0;

  /// Bounded blocking push: waits up to `timeout` (kWaitForever = no
  /// limit) for depth to fall below capacity.  Returns Refused on timeout,
  /// Closed if the queue closes while waiting — close() MUST wake these
  /// waiters (the shutdown lost-wakeup regression).
  virtual QueuePushResult pushBounded(T item,
                                      std::chrono::milliseconds timeout) = 0;

  /// Claims the consumer token; false if another thread holds it.  The
  /// holder is the queue's only legal drainer until releaseConsumer().
  [[nodiscard]] bool tryClaimConsumer() {
    bool expected = false;
    if (claimed_.compare_exchange_strong(expected, true,
                                         std::memory_order_acquire)) {
      return true;
    }
    claimMisses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  /// Releases the claim and wakes every thread parked in
  /// waitClaimReleased().  The store and the waiter count are both seq_cst
  /// (Dekker, as in the linked queue's push): either the releaser sees the
  /// waiter registered, or the waiter sees the claim already free.
  void releaseConsumer() {
    claimed_.store(false);
    if (claimWaiters_.load() != 0) {
      std::lock_guard<std::mutex> lock(claimMu_);
      claimCv_.notify_all();
    }
  }

  /// Parks the caller while another thread holds the consumer claim, until
  /// it is released or `timeout` elapses (kWaitForever = no limit).
  /// Returns at once when the claim is free.  Spurious returns are fine;
  /// callers re-poll.
  void waitClaimReleased(std::chrono::milliseconds timeout) {
    if (!claimed_.load()) return;
    std::unique_lock<std::mutex> lock(claimMu_);
    claimWaiters_.fetch_add(1);
    const auto released = [&] { return !claimed_.load(); };
    if (timeout < std::chrono::milliseconds::zero()) {
      claimCv_.wait(lock, released);
    } else {
      claimCv_.wait_for(lock, timeout, released);
    }
    claimWaiters_.fetch_sub(1);
  }

  /// tryClaimConsumer() calls that found the claim taken.
  [[nodiscard]] std::uint64_t claimMisses() const {
    return claimMisses_.load(std::memory_order_relaxed);
  }

  /// Drains up to `max` items FIFO into `out` (appended).  Caller must
  /// hold the consumer claim.  May return 0 with approxDepth() > 0 when a
  /// producer is mid-push (lock-free implementations); callers just poll
  /// again.  After close(), keeps returning the remaining items until
  /// empty.
  virtual std::size_t tryDrainUpTo(std::size_t max, std::vector<T>* out) = 0;

  /// Parks the caller until the queue is (probably) non-empty or closed,
  /// or `timeout` elapses (kWaitForever = no limit).  Spurious returns are
  /// fine; callers re-poll.
  virtual void waitNonEmpty(std::chrono::milliseconds timeout) = 0;

  /// Marks the queue closed and wakes every parked consumer and producer.
  /// Idempotent.  See the closeAndDrain contract above.
  virtual void close() = 0;

  [[nodiscard]] virtual bool closed() const = 0;

  /// Racy depth snapshot (no lock); exact when producers are externally
  /// serialised, which they are in the server (seqMutex_).
  [[nodiscard]] virtual std::size_t approxDepth() const = 0;

  [[nodiscard]] virtual QueueKind kind() const = 0;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 protected:
  explicit CommandQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  std::size_t capacity_;

 private:
  std::atomic<bool> claimed_{false};
  std::atomic<std::uint64_t> claimMisses_{0};
  // Claim parking only — touched on release when a waiter is registered.
  std::mutex claimMu_;
  std::condition_variable claimCv_;
  std::atomic<int> claimWaiters_{0};
};

/// The original handoff queue: one mutex guards a deque, notEmpty wakes the
/// consumer, notFull wakes bounded producers.  Every operation is exact
/// (no approximation windows), which is why it stays the default.
template <typename T>
class MutexCommandQueue final : public CommandQueue<T> {
 public:
  explicit MutexCommandQueue(std::size_t capacity)
      : CommandQueue<T>(capacity) {}

  ~MutexCommandQueue() override = default;

  QueuePushResult push(T item, bool refuseAtCapacity) override {
    std::size_t depth = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return {QueuePush::Closed, items_.size()};
      if (refuseAtCapacity && items_.size() >= this->capacity_) {
        return {QueuePush::Refused, items_.size()};
      }
      items_.push_back(std::move(item));
      depth = items_.size();
      depthMirror_.store(depth, std::memory_order_relaxed);
    }
    notEmpty_.notify_one();
    return {depth >= this->capacity_ ? QueuePush::OkAtCapacity : QueuePush::Ok,
            depth};
  }

  QueuePushResult pushBounded(T item,
                              std::chrono::milliseconds timeout) override {
    std::size_t depth = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      const auto haveRoom = [&] {
        return closed_ || items_.size() < this->capacity_;
      };
      if (timeout < std::chrono::milliseconds::zero()) {
        notFull_.wait(lock, haveRoom);
      } else if (!notFull_.wait_for(lock, timeout, haveRoom)) {
        return {QueuePush::Refused, items_.size()};
      }
      if (closed_) return {QueuePush::Closed, items_.size()};
      items_.push_back(std::move(item));
      depth = items_.size();
      depthMirror_.store(depth, std::memory_order_relaxed);
    }
    notEmpty_.notify_one();
    return {depth >= this->capacity_ ? QueuePush::OkAtCapacity : QueuePush::Ok,
            depth};
  }

  std::size_t tryDrainUpTo(std::size_t max, std::vector<T>* out) override {
    std::size_t n = 0;
    bool freedRoom = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const bool wasFull = items_.size() >= this->capacity_;
      while (n < max && !items_.empty()) {
        out->push_back(std::move(items_.front()));
        items_.pop_front();
        ++n;
      }
      depthMirror_.store(items_.size(), std::memory_order_relaxed);
      freedRoom = wasFull && items_.size() < this->capacity_;
    }
    if (freedRoom) notFull_.notify_all();
    return n;
  }

  void waitNonEmpty(std::chrono::milliseconds timeout) override {
    std::unique_lock<std::mutex> lock(mu_);
    const auto ready = [&] { return closed_ || !items_.empty(); };
    if (timeout < std::chrono::milliseconds::zero()) {
      notEmpty_.wait(lock, ready);
    } else {
      notEmpty_.wait_for(lock, timeout, ready);
    }
  }

  void close() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    // Both CVs: a consumer parked on notEmpty AND a producer blocked on the
    // bounded not-full wait must observe the close (the lost-wakeup fix —
    // the old server only ever notified notEmpty).
    notEmpty_.notify_all();
    notFull_.notify_all();
  }

  [[nodiscard]] bool closed() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  [[nodiscard]] std::size_t approxDepth() const override {
    return depthMirror_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] QueueKind kind() const override { return QueueKind::Mutex; }

 private:
  mutable std::mutex mu_;
  std::condition_variable notEmpty_;
  std::condition_variable notFull_;
  std::deque<T> items_;       // guarded by mu_
  bool closed_ = false;       // guarded by mu_
  std::atomic<std::size_t> depthMirror_{0};
};

namespace detail {

/// Shared linked-node core of the mpsc and steal queues: a Vyukov-style
/// intrusive MPSC list.  Producers are wait-free (one exchange + one
/// release store, no lock, no CAS loop); the claim holder walks the tail.
/// The push path's only synchronisation with a parked consumer is the
/// eventcount-style waiters check, and that takes the park mutex only when
/// a consumer is actually asleep.
template <typename T>
class LinkedCommandQueue : public CommandQueue<T> {
 public:
  ~LinkedCommandQueue() override {
    Node* node = tail_;
    while (node != nullptr) {
      Node* next = node->next.load(std::memory_order_relaxed);
      delete node;
      node = next;
    }
  }

  QueuePushResult push(T item, bool refuseAtCapacity) override {
    if (closed_.load(std::memory_order_acquire)) {
      return {QueuePush::Closed, depth_.load(std::memory_order_relaxed)};
    }
    if (refuseAtCapacity &&
        depth_.load(std::memory_order_relaxed) >= this->capacity_) {
      return {QueuePush::Refused, depth_.load(std::memory_order_relaxed)};
    }
    Node* node = new Node(std::move(item));
    // Count before linking: a consumer that sees depth > 0 but no linked
    // node knows a push is in flight and re-polls instead of sleeping.
    // seq_cst pairs with the waiter's registration (Dekker: the producer
    // reads waiters_ after writing depth_; the waiter reads depth_ after
    // writing waiters_ — at least one side sees the other).
    const std::size_t depth = depth_.fetch_add(1) + 1;
    Node* prev = head_.exchange(node, std::memory_order_acq_rel);
    prev->next.store(node, std::memory_order_release);
    if (waiters_.load() != 0) {
      std::lock_guard<std::mutex> lock(parkMu_);
      parkCv_.notify_all();
    }
    return {depth >= this->capacity_ ? QueuePush::OkAtCapacity : QueuePush::Ok,
            depth};
  }

  QueuePushResult pushBounded(T item,
                              std::chrono::milliseconds timeout) override {
    // Lock-free producers have no not-full CV to sleep on; bounded pushes
    // poll.  Only tests and the harness use this path on these queues —
    // the server never blocks a loop thread on a push.
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    for (;;) {
      if (closed_.load(std::memory_order_acquire)) {
        return {QueuePush::Closed, depth_.load(std::memory_order_relaxed)};
      }
      if (depth_.load(std::memory_order_relaxed) < this->capacity_) {
        const auto result = push(std::move(item), /*refuseAtCapacity=*/false);
        // A racing producer may have refilled the queue; the item is in
        // regardless, which is the soft-bound contract.
        return result;
      }
      if (timeout >= std::chrono::milliseconds::zero() &&
          std::chrono::steady_clock::now() >= deadline) {
        return {QueuePush::Refused, depth_.load(std::memory_order_relaxed)};
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  std::size_t tryDrainUpTo(std::size_t max, std::vector<T>* out) override {
    std::size_t n = 0;
    while (n < max) {
      Node* next = tail_->next.load(std::memory_order_acquire);
      if (next == nullptr) {
        // Empty — or a producer swung head_ but has not linked yet (the
        // mid-push window).  depth_ tells them apart.
        if (depth_.load() == 0) break;
        bool linked = false;
        for (int spin = 0; spin < 4096 && !linked; ++spin) {
          next = tail_->next.load(std::memory_order_acquire);
          linked = next != nullptr;
          if (!linked && (spin & 63) == 63) std::this_thread::yield();
        }
        if (!linked) break;  // producer preempted mid-push; caller re-polls
      }
      out->push_back(std::move(next->value));
      Node* consumed = tail_;
      tail_ = next;
      delete consumed;
      depth_.fetch_sub(1);
      ++n;
    }
    return n;
  }

  void waitNonEmpty(std::chrono::milliseconds timeout) override {
    if (depth_.load() > 0 || closed_.load(std::memory_order_acquire)) return;
    std::unique_lock<std::mutex> lock(parkMu_);
    waiters_.fetch_add(1);
    const auto ready = [&] {
      return depth_.load() > 0 || closed_.load(std::memory_order_acquire);
    };
    if (timeout < std::chrono::milliseconds::zero()) {
      parkCv_.wait(lock, ready);
    } else {
      parkCv_.wait_for(lock, timeout, ready);
    }
    waiters_.fetch_sub(1);
  }

  void close() override {
    closed_.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lock(parkMu_);
    parkCv_.notify_all();
  }

  [[nodiscard]] bool closed() const override {
    return closed_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t approxDepth() const override {
    return depth_.load(std::memory_order_relaxed);
  }

 protected:
  explicit LinkedCommandQueue(std::size_t capacity)
      : CommandQueue<T>(capacity) {
    Node* stub = new Node();
    head_.store(stub, std::memory_order_relaxed);
    tail_ = stub;
  }

 private:
  struct Node {
    Node() = default;
    explicit Node(T v) : value(std::move(v)) {}
    std::atomic<Node*> next{nullptr};
    T value{};
  };

  std::atomic<Node*> head_;  // last pushed node; producers exchange
  Node* tail_;               // consumed sentinel; claim holder advances
  std::atomic<std::size_t> depth_{0};
  std::atomic<bool> closed_{false};

  // Consumer parking only — never touched on an uncontended push.
  std::mutex parkMu_;
  std::condition_variable parkCv_;
  std::atomic<int> waiters_{0};
};

}  // namespace detail

/// Lock-free MPSC intake with a dedicated consumer (the shard's own
/// worker).  The claim token is uncontended in this mode; it exists so the
/// drain discipline is identical across implementations.
template <typename T>
class MpscCommandQueue final : public detail::LinkedCommandQueue<T> {
 public:
  explicit MpscCommandQueue(std::size_t capacity)
      : detail::LinkedCommandQueue<T>(capacity) {}
  [[nodiscard]] QueueKind kind() const override { return QueueKind::Mpsc; }
};

/// The same linked core operated as a work-stealing intake: idle sibling
/// workers contend for the claim token and, when they win it, drain a batch
/// from the front (oldest first) and execute it before releasing.  FIFO per
/// queue — and therefore arrivalSeq execution order per shard — is
/// preserved because execution happens under the claim.
template <typename T>
class StealCommandQueue final : public detail::LinkedCommandQueue<T> {
 public:
  explicit StealCommandQueue(std::size_t capacity)
      : detail::LinkedCommandQueue<T>(capacity) {}
  [[nodiscard]] QueueKind kind() const override { return QueueKind::Steal; }
};

template <typename T>
[[nodiscard]] std::unique_ptr<CommandQueue<T>> makeCommandQueue(
    QueueKind kind, std::size_t capacity) {
  switch (kind) {
    case QueueKind::Mpsc:
      return std::make_unique<MpscCommandQueue<T>>(capacity);
    case QueueKind::Steal:
      return std::make_unique<StealCommandQueue<T>>(capacity);
    case QueueKind::Mutex:
      break;
  }
  return std::make_unique<MutexCommandQueue<T>>(capacity);
}

}  // namespace tprm::qos
