// Tests for the server→shard handoff queue: FIFO drain order, the depth
// each push observes, the closeAndDrain contract, claim exclusivity and
// parking, and a multi-producer stress run (FIFO-per-producer and no-loss
// under contention — the sanitizer CI legs run this binary).  Each case
// runs once per access pattern (see Access).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "qos/command_queue.h"

namespace tprm::qos {
namespace {

using Item = std::uint64_t;

// How a case drives the queue.  The instance suffixes (mutex, mpsc,
// steal) are the names these cases carried when the handoff had three
// queue kinds, kept so results compare across the suite's history; each
// now selects the access pattern its kind stood for, on the one queue:
//   mutex: every push holds one outside mutex, as the server's pushes
//          hold seqMutex_;
//   mpsc:  pushes take no outside lock (the queue's own contract);
//   steal: drains run on a thread other than the pusher's, and the
//          stress run adds a second drainer contending for the claim.
enum class Access { Mutex, Mpsc, Steal };

std::string accessName(Access access) {
  switch (access) {
    case Access::Mutex:
      return "mutex";
    case Access::Mpsc:
      return "mpsc";
    case Access::Steal:
      return "steal";
  }
  return "unknown";
}

// Drains everything currently in the queue under a claim, re-polling
// through any mid-push window a racing producer may expose.
std::vector<Item> drainAll(CommandQueue<Item>& queue) {
  std::vector<Item> out;
  EXPECT_TRUE(queue.tryClaimConsumer());
  while (queue.approxDepth() > 0) {
    if (queue.tryDrainUpTo(16, &out) == 0) std::this_thread::yield();
  }
  queue.releaseConsumer();
  return out;
}

class CommandQueueTest : public ::testing::TestWithParam<Access> {
 protected:
  std::size_t push(Item item) {
    if (GetParam() != Access::Mutex) return queue_.push(item);
    std::lock_guard<std::mutex> lock(pushMu_);
    return queue_.push(item);
  }

  // Runs fn where this access pattern drains: inline, or on a thread of
  // its own for steal.
  template <typename Fn>
  void onDrainer(Fn&& fn) {
    if (GetParam() != Access::Steal) {
      fn();
      return;
    }
    std::thread drainer(std::forward<Fn>(fn));
    drainer.join();
  }

  std::vector<Item> drain() {
    std::vector<Item> out;
    onDrainer([&] { out = drainAll(queue_); });
    return out;
  }

  CommandQueue<Item> queue_;
  std::mutex pushMu_;
};

TEST_P(CommandQueueTest, DrainsInPushOrder) {
  for (Item i = 0; i < 10; ++i) EXPECT_EQ(push(i), i + 1);
  EXPECT_EQ(queue_.approxDepth(), 10u);
  const auto drained = drain();
  ASSERT_EQ(drained.size(), 10u);
  for (Item i = 0; i < 10; ++i) EXPECT_EQ(drained[i], i);
  EXPECT_EQ(queue_.approxDepth(), 0u);
}

TEST_P(CommandQueueTest, PushDepthSeesEveryPeak) {
  // The gauge-undercount fix: the depth reported by push() itself must
  // reflect this push, so a consumer draining whole batches between
  // samples cannot hide the peak.
  std::size_t maxSeen = 0;
  for (Item i = 0; i < 5; ++i) maxSeen = std::max(maxSeen, push(i));
  EXPECT_EQ(maxSeen, 5u);
}

TEST_P(CommandQueueTest, CloseRefusesPushesButDrainsRemainder) {
  EXPECT_EQ(push(1), 1u);
  EXPECT_EQ(push(2), 2u);
  queue_.close();
  EXPECT_TRUE(queue_.closed());
  EXPECT_EQ(push(3), 0u);  // refused: nothing committed
  // closeAndDrain: everything admitted before the close is still there.
  const auto drained = drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0], 1u);
  EXPECT_EQ(drained[1], 2u);
}

TEST_P(CommandQueueTest, CloseWakesParkedConsumer) {
  std::atomic<bool> woke{false};
  std::thread consumer([&] {
    queue_.waitNonEmpty(kWaitForever);
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());
  queue_.close();
  consumer.join();
  EXPECT_TRUE(woke.load());
}

TEST_P(CommandQueueTest, PushWakesParkedConsumer) {
  // A worker parks in waitNonEmpty() with no timeout, so a push that does
  // not wake it strands the command.  The wait here is bounded only so a
  // lost wakeup fails the test instead of hanging it.
  std::atomic<bool> woke{false};
  std::thread consumer([&] {
    queue_.waitNonEmpty(std::chrono::seconds(20));
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());
  const auto pushedAt = std::chrono::steady_clock::now();
  EXPECT_EQ(push(1), 1u);
  consumer.join();
  EXPECT_LT(std::chrono::steady_clock::now() - pushedAt,
            std::chrono::seconds(10));
  EXPECT_EQ(drain().size(), 1u);
}

TEST_P(CommandQueueTest, ClaimTokenIsExclusive) {
  ASSERT_TRUE(queue_.tryClaimConsumer());
  onDrainer([&] { EXPECT_FALSE(queue_.tryClaimConsumer()); });
  queue_.releaseConsumer();
  onDrainer([&] {
    EXPECT_TRUE(queue_.tryClaimConsumer());
    queue_.releaseConsumer();
  });
}

TEST_P(CommandQueueTest, ClaimWaiterParksUntilRelease) {
  // Free claim: no wait at all.
  queue_.waitClaimReleased();
  ASSERT_TRUE(queue_.tryClaimConsumer());
  ASSERT_EQ(push(1), 1u);
  std::atomic<bool> released{false};
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    // The queue is non-empty, so a worker polling it would spin; this
    // one sleeps until the holder lets go.
    EXPECT_FALSE(queue_.tryClaimConsumer());
    queue_.waitClaimReleased();
    EXPECT_TRUE(released.load());
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(woke.load());
  released.store(true);
  queue_.releaseConsumer();
  waiter.join();
  EXPECT_TRUE(woke.load());
  EXPECT_EQ(queue_.claimMisses(), 1u);
  EXPECT_EQ(drain().size(), 1u);
}

TEST_P(CommandQueueTest, MultiProducerStressKeepsFifoPerProducerAndLosesNothing) {
  // N producers race pipelined bursts at a consumer that parks when the
  // queue runs dry (two consumers contending for the claim under steal).
  // Per-producer FIFO and no-loss are exactly the invariants the server's
  // replay identity rests on; the TSan CI leg runs this test.
  constexpr int kProducers = 4;
  constexpr Item kOps = 2000;

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([this, p] {
      for (Item seq = 0; seq < kOps; ++seq) {
        const Item item = (static_cast<Item>(p) << 32) | seq;
        const std::size_t depth = push(item);
        ASSERT_NE(depth, 0u);  // never closed here
        if (depth >= 512) std::this_thread::yield();
      }
    });
  }

  // Guarded by the claim: a batch is checked before its drainer lets go.
  std::vector<Item> nextSeq(kProducers, 0);
  Item consumed = 0;
  std::atomic<bool> producersDone{false};
  const auto consume = [&] {
    std::vector<Item> batch;
    for (;;) {
      if (!queue_.tryClaimConsumer()) {
        queue_.waitClaimReleased();
        continue;
      }
      batch.clear();
      const auto n = queue_.tryDrainUpTo(32, &batch);
      for (std::size_t i = 0; i < n; ++i) {
        const auto producer = static_cast<std::size_t>(batch[i] >> 32);
        const Item seq = batch[i] & 0xffffffffu;
        // EXPECT, not ASSERT: leaving with the claim held would strand
        // the other consumer.
        EXPECT_EQ(seq, nextSeq[producer]) << "producer " << producer;
        nextSeq[producer] = seq + 1;
        ++consumed;
      }
      queue_.releaseConsumer();
      if (n == 0) {
        if (producersDone.load() && queue_.approxDepth() == 0) return;
        queue_.waitNonEmpty(std::chrono::milliseconds(1));
      }
    }
  };
  std::vector<std::thread> consumers;
  consumers.emplace_back(consume);
  if (GetParam() == Access::Steal) consumers.emplace_back(consume);

  for (auto& thread : producers) thread.join();
  producersDone.store(true);
  for (auto& thread : consumers) thread.join();
  EXPECT_EQ(consumed, static_cast<Item>(kProducers) * kOps);
  EXPECT_EQ(queue_.approxDepth(), 0u);
}

TEST_P(CommandQueueTest, ContendedClaimSerialisesDrainersInGlobalOrder) {
  // Two drainers contend for the claim of ONE queue.  Because every drain
  // happens under the claim and pops from the front, the interleaved
  // global consumption order must still be the push order, whichever
  // thread wins each round.
  constexpr Item kTotal = 4000;
  std::thread producer([&] {
    for (Item i = 0; i < kTotal; ++i) ASSERT_NE(push(i), 0u);
  });

  std::mutex consumedMu;
  std::vector<Item> consumed;
  std::atomic<bool> done{false};
  const auto drainer = [&] {
    std::vector<Item> batch;
    while (!done.load()) {
      if (!queue_.tryClaimConsumer()) {
        std::this_thread::yield();
        continue;
      }
      batch.clear();
      const auto n = queue_.tryDrainUpTo(16, &batch);
      if (n > 0) {
        // Record while still holding the claim — mirrors the server, where
        // the batch *executes* under the claim.
        std::lock_guard<std::mutex> lock(consumedMu);
        consumed.insert(consumed.end(), batch.begin(), batch.end());
        if (consumed.size() == kTotal) done.store(true);
      }
      queue_.releaseConsumer();
      if (n == 0) std::this_thread::yield();
    }
  };
  std::thread a(drainer);
  std::thread b(drainer);
  producer.join();
  a.join();
  b.join();
  ASSERT_EQ(consumed.size(), kTotal);
  for (Item i = 0; i < kTotal; ++i) EXPECT_EQ(consumed[i], i);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, CommandQueueTest,
                         ::testing::Values(Access::Mutex, Access::Mpsc,
                                           Access::Steal),
                         [](const auto& paramInfo) {
                           return accessName(paramInfo.param);
                         });

}  // namespace
}  // namespace tprm::qos
