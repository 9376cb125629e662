#include "store/mpmc_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

namespace cdc::store {
namespace {

TEST(BoundedMpmcQueue, FifoSingleThread) {
  BoundedMpmcQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(queue.try_push(int{i}));
  EXPECT_EQ(queue.size(), 5u);
  int out = -1;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(queue.pop(out));
    EXPECT_EQ(out, i);
  }
}

TEST(BoundedMpmcQueue, CloseDrainsBacklogThenFails) {
  BoundedMpmcQueue<int> queue(8);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  queue.close();
  EXPECT_FALSE(queue.try_push(3));
  int out = 0;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(queue.pop(out));
}

TEST(BoundedMpmcQueue, TryPushFullAndClosed) {
  BoundedMpmcQueue<int> queue(2);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  // Full: rejected without blocking (the event-loop backpressure seam).
  EXPECT_FALSE(queue.try_push(3));
  int out = 0;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_TRUE(queue.try_push(3));
  queue.close();
  EXPECT_FALSE(queue.try_push(4));
  EXPECT_TRUE(queue.closed());
  // The backlog enqueued before close() stays poppable.
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 3);
  EXPECT_FALSE(queue.pop(out));
}

TEST(BoundedMpmcQueue, RejectedTryPushLeavesValueIntact) {
  // The backpressure contract: a try_push refused on full (or closed)
  // must leave the caller's item untouched so it can be parked and
  // retried — a by-value signature would silently destroy it (the bug
  // that lost parked ingest batches).
  BoundedMpmcQueue<std::vector<int>> queue(1);
  EXPECT_TRUE(queue.try_push({1, 2, 3}));
  std::vector<int> parked{4, 5, 6};
  EXPECT_FALSE(queue.try_push(std::move(parked)));
  EXPECT_EQ(parked, (std::vector<int>{4, 5, 6}));
  std::vector<int> out;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_TRUE(queue.try_push(std::move(parked)));  // retry succeeds
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, (std::vector<int>{4, 5, 6}));
  queue.close();
  std::vector<int> after{7};
  EXPECT_FALSE(queue.try_push(std::move(after)));
  EXPECT_EQ(after, (std::vector<int>{7}));
}

TEST(BoundedMpmcQueue, CloseIsIdempotentAndSticky) {
  BoundedMpmcQueue<int> queue(4);
  queue.close();
  queue.close();
  EXPECT_FALSE(queue.try_push(1));
  int out = 0;
  // A popper arriving after the drain observes closed-and-empty at once.
  EXPECT_FALSE(queue.pop(out));
}

TEST(BoundedMpmcQueue, BlockedPoppersWakeExactlyOnceOnClose) {
  // N poppers block on an empty queue; close() must wake each exactly
  // once — every popper either wins one of the backlog items pushed just
  // before close, or observes closed-and-empty. No popper hangs, no item
  // is delivered twice.
  constexpr int kPoppers = 6;
  constexpr int kBacklog = 3;  // fewer items than poppers
  BoundedMpmcQueue<int> queue(8);
  std::atomic<int> got_item{0};
  std::atomic<int> got_closed{0};
  std::vector<std::jthread> poppers;
  for (int p = 0; p < kPoppers; ++p) {
    poppers.emplace_back([&] {
      int value = 0;
      if (queue.pop(value))
        got_item.fetch_add(1);
      else
        got_closed.fetch_add(1);
    });
  }
  // Give the poppers time to block on the empty queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (int i = 0; i < kBacklog; ++i) EXPECT_TRUE(queue.try_push(int{i}));
  queue.close();
  for (auto& t : poppers) t.join();  // a missed wake-up hangs here
  EXPECT_EQ(got_item.load() + got_closed.load(), kPoppers);
  EXPECT_EQ(got_item.load(), kBacklog);
  EXPECT_EQ(got_closed.load(), kPoppers - kBacklog);
}

TEST(BoundedMpmcQueue, ManyProducersManyConsumersLoseNothing) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2000;
  BoundedMpmcQueue<int> queue(16);
  std::atomic<long long> sum{0};
  std::atomic<int> popped{0};
  {
    std::vector<std::jthread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
      consumers.emplace_back([&] {
        int value = 0;
        while (queue.pop(value)) {
          sum.fetch_add(value);
          popped.fetch_add(1);
        }
      });
    }
    {
      std::vector<std::jthread> producers;
      for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&queue, p] {
          // A full queue rejects try_push; the producer backs off and
          // retries, as the server's event thread does with a parked batch.
          for (int i = 0; i < kPerProducer; ++i) {
            int value = p * kPerProducer + i;
            while (!queue.try_push(std::move(value)))
              std::this_thread::yield();
          }
        });
      }
    }
    queue.close();
  }
  EXPECT_EQ(popped.load(), kProducers * kPerProducer);
  const long long n = kProducers * kPerProducer;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

}  // namespace
}  // namespace cdc::store
