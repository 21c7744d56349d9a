#include "common/bounded_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace vedr::common {
namespace {

/// pushed == popped + size (a dropped item was never pushed), and the
/// occupancy never passes the bound: the invariants every snapshot must
/// satisfy.
void expect_consistent(const QueueStats& s, std::size_t capacity) {
  EXPECT_EQ(s.pushed, s.popped + s.size);
  EXPECT_LE(s.size, capacity);
  EXPECT_LE(s.high_watermark, capacity);
}

TEST(BoundedQueue, FifoWithinCapacity) {
  // FIFO across batches: one take swaps out everything queued, in push
  // order, and the next take continues where it left off.
  BoundedQueue<int> q(8);
  EXPECT_EQ(q.capacity(), 8u);
  EXPECT_EQ(q.size(), 0u);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(q.try_push(i));
  std::vector<int> batch;
  ASSERT_EQ(q.take(batch), 3u);
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2}));
  for (int i = 3; i < 5; ++i) EXPECT_TRUE(q.try_push(i));
  ASSERT_EQ(q.take(batch), 2u);
  EXPECT_EQ(batch, (std::vector<int>{3, 4}));
  EXPECT_EQ(q.take(batch), 0u);
  EXPECT_TRUE(batch.empty());
  const QueueStats s = q.stats();
  EXPECT_EQ(s.pushed, 5u);
  EXPECT_EQ(s.popped, 5u);
  expect_consistent(s, q.capacity());
}

TEST(BoundedQueue, TryPushAccountsDrops) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  EXPECT_FALSE(q.try_push(4));
  const QueueStats s = q.stats();
  EXPECT_EQ(s.pushed, 2u);
  EXPECT_EQ(s.dropped, 2u);
  EXPECT_EQ(s.size, 2u);
  EXPECT_EQ(s.high_watermark, 2u);
  expect_consistent(s, q.capacity());
}

TEST(BoundedQueue, TakenBatchCountsAgainstTheBound) {
  // The consumer's batch is still held until it comes back for the next
  // one, so a drop-policy producer sheds load exactly as it would if the
  // items were still queued.
  BoundedQueue<int> q(3);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.try_push(i));
  std::vector<int> batch;
  ASSERT_EQ(q.take(batch), 3u);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_FALSE(q.try_push(3));  // full: the taken batch fills the bound
  expect_consistent(q.stats(), q.capacity());
  EXPECT_EQ(q.take(batch), 0u);  // releases the batch, nothing new queued
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.try_push(4));
  const QueueStats s = q.stats();
  EXPECT_EQ(s.pushed, 4u);
  EXPECT_EQ(s.popped, 3u);
  EXPECT_EQ(s.dropped, 1u);
  EXPECT_EQ(s.size, 1u);
  expect_consistent(s, q.capacity());
}

TEST(BoundedQueue, PushBlocksUntilSpaceAndCountsBlocked) {
  // A producer blocked on a full queue is released when the consumer comes
  // back for its next batch, not when it takes the batch that fills the
  // bound.
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::vector<int> batch;
  ASSERT_EQ(q.take(batch), 1u);
  std::atomic<bool> pushed{false};
  std::thread producer([&q, &pushed] {
    EXPECT_TRUE(q.push(2));
    pushed.store(true);
  });
  while (q.stats().blocked == 0) std::this_thread::yield();
  EXPECT_FALSE(pushed.load());  // still held: batch {1} is outstanding
  EXPECT_EQ(batch, (std::vector<int>{1}));
  // Returning for the next batch releases {1}: nothing was queued behind
  // it, and the producer's item lands once it wakes.
  EXPECT_EQ(q.take(batch), 0u);
  producer.join();
  EXPECT_TRUE(pushed.load());
  ASSERT_EQ(q.take(batch), 1u);
  EXPECT_EQ(batch, (std::vector<int>{2}));
  const QueueStats s = q.stats();
  EXPECT_EQ(s.pushed, 2u);
  EXPECT_EQ(s.dropped, 0u);
  EXPECT_EQ(s.blocked, 1u);
  expect_consistent(s, q.capacity());
}

TEST(BoundedQueue, CloseWakesBlockedProducerAndKeepsItemsPoppable) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(7));
  std::thread producer([&q] { EXPECT_FALSE(q.push(8)); });  // blocked, then closed
  std::thread closer([&q] { q.close(); });
  producer.join();
  closer.join();
  EXPECT_FALSE(q.try_push(9));  // closed: rejected without a drop
  std::vector<int> batch;
  EXPECT_EQ(q.take(batch), 1u);  // close-then-drain: the queued item survives
  EXPECT_EQ(batch, (std::vector<int>{7}));
  EXPECT_EQ(q.take(batch), 0u);  // closed and drained: end of stream
  const QueueStats s = q.stats();
  EXPECT_EQ(s.dropped, 0u);
  EXPECT_EQ(s.popped, 1u);
  expect_consistent(s, q.capacity());
}

TEST(BoundedQueue, ConcurrentProducersLoseNothingUnderBackpressure) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  BoundedQueue<int> q(8);  // far smaller than the item count: constant pressure
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i)
        ASSERT_TRUE(q.push(p * kPerProducer + i));
    });
  }
  std::vector<int> seen(kProducers * kPerProducer, 0);
  std::vector<int> last(kProducers, -1);
  std::thread consumer([&q, &seen, &last] {
    std::vector<int> batch;
    int received = 0;
    while (received < kProducers * kPerProducer) {
      q.take(batch);
      for (const int v : batch) {
        ++seen[static_cast<std::size_t>(v)];
        // Per-producer FIFO survives the batching.
        EXPECT_GT(v, last[static_cast<std::size_t>(v / kPerProducer)]);
        last[static_cast<std::size_t>(v / kPerProducer)] = v;
      }
      received += static_cast<int>(batch.size());
      expect_consistent(q.stats(), q.capacity());
      if (batch.empty()) std::this_thread::yield();
    }
    q.take(batch);  // release the last batch
  });
  for (auto& t : producers) t.join();
  consumer.join();
  for (const int count : seen) EXPECT_EQ(count, 1);  // every item exactly once
  const QueueStats s = q.stats();
  EXPECT_EQ(s.pushed, static_cast<std::uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(s.popped, s.pushed);
  EXPECT_EQ(s.dropped, 0u);
  expect_consistent(s, q.capacity());
}

TEST(BoundedQueue, TakeHighWatermarkResetsToCurrentSize) {
  BoundedQueue<int> q(16);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.push(i));
  std::vector<int> batch;
  ASSERT_EQ(q.take(batch), 5u);
  ASSERT_EQ(q.take(batch), 0u);  // releases all five
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(q.push(i));

  // The peak since construction was 5, even though only 2 are held now.
  EXPECT_EQ(q.take_high_watermark(), 5u);
  // Re-seeded with the *current* size, not zero: the occupancy that exists
  // right now was observed.
  EXPECT_EQ(q.take_high_watermark(), 2u);
  EXPECT_EQ(q.stats().high_watermark, 2u);

  ASSERT_TRUE(q.push(10));
  EXPECT_EQ(q.take_high_watermark(), 3u);

  // Draining below the seed does not retro-shrink the recorded peak; a
  // taken batch is still held, so only the release empties the queue.
  ASSERT_EQ(q.take(batch), 3u);
  EXPECT_EQ(q.take_high_watermark(), 3u);
  EXPECT_EQ(q.take_high_watermark(), 3u);
  ASSERT_EQ(q.take(batch), 0u);
  EXPECT_EQ(q.take_high_watermark(), 3u);
  EXPECT_EQ(q.take_high_watermark(), 0u);  // now truly empty
}

}  // namespace
}  // namespace vedr::common
