// The server→shard command handoff queue.
//
// The negotiation server hands decoded commands from its event loops to the
// per-shard worker threads through one queue per shard.  Record→replay
// decision identity rests on two properties of that handoff, not on how the
// queue synchronises:
//
//   1. Push order per queue == arrivalSeq order.  The server draws the
//      sequence number and pushes under one lock (seqMutex_), so the queue
//      observes commands in arrivalSeq order.
//   2. Drain order per queue == push order, and batches are *executed*
//      under the consumer claim.  The drainer holds the claim token across
//      both the drain and the execution of the drained batch, so per-shard
//      commands execute in arrivalSeq order even when different threads take
//      turns.  The server's event loops also take the claim, without
//      draining, to run a command themselves when its queue is empty; a
//      worker that finds the claim taken parks in waitClaimReleased() until
//      the holder lets go instead of re-polling.
//
// The queue is a Vyukov-style intrusive linked MPSC list: producers
// exchange the head pointer and link with a release store (no lock, no CAS
// loop); the claim holder walks the tail.  A mutex+CV pair parks an idle
// consumer and is touched on the push path only when a consumer is asleep,
// so a push under seqMutex_ makes no futex call while nobody waits.
//
// The queue is unbounded; the server enforces its capacity itself, before
// stamping a command.
//
// closeAndDrain contract: close() marks the queue closed and wakes every
// parked consumer.  Pushes after close() return 0 and commit nothing;
// drains after close() keep returning the remaining items until the queue
// is empty, so nothing admitted is ever lost.  Callers that push
// concurrently with close() must serialise the two externally (the server
// marks itself closed under the lock that guards every push, then closes
// the queues).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace tprm::qos {

/// Wait forever (until an item arrives or the queue closes).
inline constexpr std::chrono::milliseconds kWaitForever{-1};

/// Producers call push() from any thread.  Consumers must hold the claim
/// token around tryDrainUpTo() and around executing what it returned; see
/// the file comment for why.
template <typename T>
class CommandQueue {
 public:
  CommandQueue() : head_(new Node()), tail_(head_.load()) {}

  ~CommandQueue() {
    Node* node = tail_;
    while (node != nullptr) {
      Node* next = node->next.load(std::memory_order_relaxed);
      delete node;
      node = next;
    }
  }

  CommandQueue(const CommandQueue&) = delete;
  CommandQueue& operator=(const CommandQueue&) = delete;

  /// Non-blocking push.  Returns the depth immediately after this push
  /// committed, sampled before push() returns so gauges see every peak (a
  /// consumer draining whole batches between samples cannot hide one), or 0
  /// if the queue is closed and nothing was committed.
  std::size_t push(T item) {
    if (closed_.load(std::memory_order_acquire)) return 0;
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
    return depth;
  }

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
  /// (Dekker, as in push): either the releaser sees the waiter registered,
  /// or the waiter sees the claim already free.
  void releaseConsumer() {
    claimed_.store(false);
    if (claimWaiters_.load() != 0) {
      std::lock_guard<std::mutex> lock(claimMu_);
      claimCv_.notify_all();
    }
  }

  /// Parks the caller while another thread holds the consumer claim, until
  /// it is released.  Returns at once when the claim is free.  The claim
  /// may be taken again before the caller re-claims; callers re-poll.
  void waitClaimReleased() {
    if (!claimed_.load()) return;
    std::unique_lock<std::mutex> lock(claimMu_);
    claimWaiters_.fetch_add(1);
    claimCv_.wait(lock, [&] { return !claimed_.load(); });
    claimWaiters_.fetch_sub(1);
  }

  /// tryClaimConsumer() calls that found the claim taken.
  [[nodiscard]] std::uint64_t claimMisses() const {
    return claimMisses_.load(std::memory_order_relaxed);
  }

  /// Drains up to `max` items FIFO into `out` (appended).  Caller must
  /// hold the consumer claim.  May return 0 with approxDepth() > 0 when a
  /// producer is mid-push; callers just poll again.  After close(), keeps
  /// returning the remaining items until empty.
  std::size_t tryDrainUpTo(std::size_t max, std::vector<T>* out) {
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

  /// Parks the caller until the queue is (probably) non-empty or closed,
  /// or `timeout` elapses (kWaitForever = no limit).  Spurious returns are
  /// fine; callers re-poll.
  void waitNonEmpty(std::chrono::milliseconds timeout) {
    if (depth_.load() > 0 || closed()) return;
    std::unique_lock<std::mutex> lock(parkMu_);
    waiters_.fetch_add(1);
    const auto ready = [&] { return depth_.load() > 0 || closed(); };
    if (timeout < std::chrono::milliseconds::zero()) {
      parkCv_.wait(lock, ready);
    } else {
      parkCv_.wait_for(lock, timeout, ready);
    }
    waiters_.fetch_sub(1);
  }

  /// Marks the queue closed and wakes every parked consumer.  Idempotent.
  /// See the closeAndDrain contract above.
  void close() {
    closed_.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lock(parkMu_);
    parkCv_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }

  /// Racy depth snapshot (no lock); exact when producers are externally
  /// serialised, which they are in the server (seqMutex_).
  [[nodiscard]] std::size_t approxDepth() const {
    return depth_.load(std::memory_order_relaxed);
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

  std::atomic<bool> claimed_{false};
  std::atomic<std::uint64_t> claimMisses_{0};
  // Claim parking only — touched on release when a waiter is registered.
  std::mutex claimMu_;
  std::condition_variable claimCv_;
  std::atomic<int> claimWaiters_{0};
};

}  // namespace tprm::qos
