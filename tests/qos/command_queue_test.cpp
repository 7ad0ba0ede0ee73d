// Tests for the pluggable server→shard handoff queues: FIFO drain order,
// capacity statuses, the closeAndDrain contract (including the shutdown
// lost-wakeup regression on the producer side), claim exclusivity, and a
// multi-producer stress run per implementation (FIFO-per-producer and
// no-loss under contention — the sanitizer CI legs run this binary).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "qos/command_queue.h"

namespace tprm::qos {
namespace {

using Item = std::uint64_t;
using QueuePtr = std::unique_ptr<CommandQueue<Item>>;

constexpr QueueKind kKinds[] = {QueueKind::Mutex, QueueKind::Mpsc,
                                QueueKind::Steal};

class CommandQueueTest : public ::testing::TestWithParam<QueueKind> {
 protected:
  QueuePtr make(std::size_t capacity) const {
    return makeCommandQueue<Item>(GetParam(), capacity);
  }
};

// Drains everything currently in the queue under a claim, re-polling
// through any mid-push windows the lock-free implementations may expose.
std::vector<Item> drainAll(CommandQueue<Item>& queue) {
  std::vector<Item> out;
  EXPECT_TRUE(queue.tryClaimConsumer());
  while (queue.approxDepth() > 0) {
    if (queue.tryDrainUpTo(16, &out) == 0) std::this_thread::yield();
  }
  queue.releaseConsumer();
  return out;
}

TEST(QueueKindName, RoundTripsAndRejectsUnknown) {
  for (const auto kind : kKinds) {
    const auto parsed = queueKindFromName(toString(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(queueKindFromName("deque").has_value());
  EXPECT_FALSE(queueKindFromName("").has_value());
}

TEST_P(CommandQueueTest, DrainsInPushOrder) {
  auto queue = make(64);
  EXPECT_EQ(queue->kind(), GetParam());
  for (Item i = 0; i < 10; ++i) {
    EXPECT_EQ(queue->push(i, false).status, QueuePush::Ok);
  }
  EXPECT_EQ(queue->approxDepth(), 10u);
  const auto drained = drainAll(*queue);
  ASSERT_EQ(drained.size(), 10u);
  for (Item i = 0; i < 10; ++i) EXPECT_EQ(drained[i], i);
  EXPECT_EQ(queue->approxDepth(), 0u);
}

TEST_P(CommandQueueTest, ReportsCapacityStatuses) {
  auto queue = make(2);
  EXPECT_EQ(queue->push(1, false).status, QueuePush::Ok);
  const auto second = queue->push(2, false);
  EXPECT_EQ(second.status, QueuePush::OkAtCapacity);
  EXPECT_EQ(second.depth, 2u);
  // Soft bound: without refuseAtCapacity the push still commits.
  const auto third = queue->push(3, false);
  EXPECT_EQ(third.status, QueuePush::OkAtCapacity);
  EXPECT_EQ(third.depth, 3u);
  // Hard bound: refuseAtCapacity refuses and commits nothing.
  EXPECT_EQ(queue->push(4, true).status, QueuePush::Refused);
  EXPECT_EQ(drainAll(*queue).size(), 3u);
}

TEST_P(CommandQueueTest, PushDepthSeesEveryPeak) {
  // The gauge-undercount fix: the depth reported by push() itself must
  // reflect this push, so a consumer draining whole batches between
  // samples cannot hide the peak.
  auto queue = make(128);
  std::size_t maxSeen = 0;
  for (Item i = 0; i < 5; ++i) {
    const auto result = queue->push(i, false);
    if (result.depth > maxSeen) maxSeen = result.depth;
  }
  EXPECT_EQ(maxSeen, 5u);
}

TEST_P(CommandQueueTest, CloseRefusesPushesButDrainsRemainder) {
  auto queue = make(8);
  EXPECT_EQ(queue->push(1, false).status, QueuePush::Ok);
  EXPECT_EQ(queue->push(2, false).status, QueuePush::Ok);
  queue->close();
  EXPECT_TRUE(queue->closed());
  EXPECT_EQ(queue->push(3, false).status, QueuePush::Closed);
  EXPECT_EQ(queue->pushBounded(3, kWaitForever).status, QueuePush::Closed);
  // closeAndDrain: everything admitted before the close is still there.
  const auto drained = drainAll(*queue);
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0], 1u);
  EXPECT_EQ(drained[1], 2u);
}

TEST_P(CommandQueueTest, CloseWakesParkedConsumer) {
  auto queue = make(8);
  std::atomic<bool> woke{false};
  std::thread consumer([&] {
    queue->waitNonEmpty(kWaitForever);
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());
  queue->close();
  consumer.join();
  EXPECT_TRUE(woke.load());
}

TEST_P(CommandQueueTest, CloseWakesBlockedBoundedProducer) {
  // The shutdown lost-wakeup regression at the queue level: a producer
  // asleep in pushBounded() against a full queue must observe close() and
  // return Closed instead of sleeping forever.
  auto queue = make(1);
  EXPECT_EQ(queue->push(1, false).status, QueuePush::OkAtCapacity);
  std::atomic<bool> returned{false};
  QueuePushResult result;
  std::thread producer([&] {
    result = queue->pushBounded(2, kWaitForever);
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  queue->close();
  producer.join();
  ASSERT_TRUE(returned.load());
  EXPECT_EQ(result.status, QueuePush::Closed);
  EXPECT_EQ(drainAll(*queue).size(), 1u);
}

TEST_P(CommandQueueTest, BoundedPushTimesOutAgainstFullQueue) {
  auto queue = make(1);
  EXPECT_EQ(queue->push(1, false).status, QueuePush::OkAtCapacity);
  const auto result = queue->pushBounded(2, std::chrono::milliseconds(30));
  EXPECT_EQ(result.status, QueuePush::Refused);
  EXPECT_EQ(drainAll(*queue).size(), 1u);
}

TEST_P(CommandQueueTest, BoundedPushProceedsWhenConsumerFreesRoom) {
  auto queue = make(1);
  EXPECT_EQ(queue->push(1, false).status, QueuePush::OkAtCapacity);
  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::vector<Item> out;
    ASSERT_TRUE(queue->tryClaimConsumer());
    while (queue->tryDrainUpTo(1, &out) == 0) std::this_thread::yield();
    queue->releaseConsumer();
  });
  const auto result = queue->pushBounded(2, std::chrono::milliseconds(2000));
  consumer.join();
  EXPECT_TRUE(result.status == QueuePush::Ok ||
              result.status == QueuePush::OkAtCapacity);
  EXPECT_EQ(drainAll(*queue).size(), 1u);
}

TEST_P(CommandQueueTest, ClaimTokenIsExclusive) {
  auto queue = make(8);
  ASSERT_TRUE(queue->tryClaimConsumer());
  EXPECT_FALSE(queue->tryClaimConsumer());
  queue->releaseConsumer();
  EXPECT_TRUE(queue->tryClaimConsumer());
  queue->releaseConsumer();
}

TEST_P(CommandQueueTest, ClaimWaiterParksUntilRelease) {
  auto queue = make(8);
  // Free claim: no wait at all.
  queue->waitClaimReleased(kWaitForever);
  ASSERT_TRUE(queue->tryClaimConsumer());
  ASSERT_EQ(queue->push(1, false).status, QueuePush::Ok);
  std::atomic<bool> released{false};
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    // The queue is non-empty, so a worker polling it would spin; this
    // one sleeps until the holder lets go.
    EXPECT_FALSE(queue->tryClaimConsumer());
    queue->waitClaimReleased(kWaitForever);
    EXPECT_TRUE(released.load());
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(woke.load());
  released.store(true);
  queue->releaseConsumer();
  waiter.join();
  EXPECT_TRUE(woke.load());
  EXPECT_EQ(queue->claimMisses(), 1u);
  EXPECT_EQ(drainAll(*queue).size(), 1u);
}

TEST_P(CommandQueueTest, MultiProducerStressKeepsFifoPerProducerAndLosesNothing) {
  // N producers race pipelined bursts at one consumer.  Per-producer FIFO
  // and no-loss are exactly the invariants the server's replay identity
  // rests on; the TSan CI leg runs this against every implementation.
  constexpr int kProducers = 4;
  constexpr Item kOps = 2000;
  auto queue = make(256);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (Item seq = 0; seq < kOps; ++seq) {
        const Item item = (static_cast<Item>(p) << 32) | seq;
        const auto result = queue->push(item, false);
        ASSERT_NE(result.status, QueuePush::Closed);
        ASSERT_NE(result.status, QueuePush::Refused);
        if (result.depth >= 512) std::this_thread::yield();
      }
    });
  }

  std::vector<Item> nextSeq(kProducers, 0);
  Item consumed = 0;
  std::atomic<bool> producersDone{false};
  std::thread consumer([&] {
    std::vector<Item> batch;
    for (;;) {
      batch.clear();
      ASSERT_TRUE(queue->tryClaimConsumer());
      const auto n = queue->tryDrainUpTo(32, &batch);
      queue->releaseConsumer();
      for (std::size_t i = 0; i < n; ++i) {
        const auto producer = static_cast<std::size_t>(batch[i] >> 32);
        const Item seq = batch[i] & 0xffffffffu;
        ASSERT_EQ(seq, nextSeq[producer]) << "producer " << producer;
        ++nextSeq[producer];
        ++consumed;
      }
      if (n == 0) {
        if (producersDone.load() && queue->approxDepth() == 0) return;
        queue->waitNonEmpty(std::chrono::milliseconds(1));
      }
    }
  });

  for (auto& thread : producers) thread.join();
  producersDone.store(true);
  consumer.join();
  EXPECT_EQ(consumed, static_cast<Item>(kProducers) * kOps);
  EXPECT_EQ(queue->approxDepth(), 0u);
}

TEST_P(CommandQueueTest, ContendedClaimSerialisesDrainersInGlobalOrder) {
  // The steal discipline in miniature: two drainers contend for the claim
  // of ONE queue.  Because every drain happens under the claim and pops
  // from the front, the interleaved global consumption order must still be
  // the push order, whichever thread wins each round.
  auto queue = make(1024);
  constexpr Item kTotal = 4000;
  std::thread producer([&] {
    for (Item i = 0; i < kTotal; ++i) {
      ASSERT_NE(queue->push(i, false).status, QueuePush::Closed);
    }
  });

  std::mutex consumedMu;
  std::vector<Item> consumed;
  std::atomic<bool> done{false};
  const auto drainer = [&] {
    std::vector<Item> batch;
    while (!done.load()) {
      if (!queue->tryClaimConsumer()) {
        std::this_thread::yield();
        continue;
      }
      batch.clear();
      const auto n = queue->tryDrainUpTo(16, &batch);
      if (n > 0) {
        // Record while still holding the claim — mirrors the server, where
        // the batch *executes* under the claim.
        std::lock_guard<std::mutex> lock(consumedMu);
        consumed.insert(consumed.end(), batch.begin(), batch.end());
        if (consumed.size() == kTotal) done.store(true);
      }
      queue->releaseConsumer();
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
                         ::testing::ValuesIn(kKinds),
                         [](const auto& paramInfo) {
                           return std::string(toString(paramInfo.param));
                         });

}  // namespace
}  // namespace tprm::qos
