#include "common/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

namespace jbs {
namespace {

TEST(BufferPoolTest, AcquireRelease) {
  BufferPool pool(1024, 4);
  EXPECT_EQ(pool.available(), 4u);
  {
    PooledBuffer buf = pool.Acquire();
    ASSERT_TRUE(buf.valid());
    EXPECT_EQ(buf.capacity(), 1024u);
    EXPECT_EQ(pool.available(), 3u);
    std::memset(buf.data(), 0xAB, buf.capacity());
    buf.set_size(100);
    EXPECT_EQ(buf.size(), 100u);
  }
  EXPECT_EQ(pool.available(), 4u);
}

TEST(BufferPoolTest, TryAcquireFailsWhenDry) {
  BufferPool pool(64, 2);
  PooledBuffer a = pool.Acquire();
  PooledBuffer b = pool.Acquire();
  PooledBuffer c = pool.TryAcquire();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_FALSE(c.valid());
}

TEST(BufferPoolTest, MoveTransfersOwnership) {
  BufferPool pool(64, 1);
  PooledBuffer a = pool.Acquire();
  uint8_t* raw = a.data();
  PooledBuffer b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.data(), raw);
  EXPECT_EQ(pool.available(), 0u);
  b.Release();
  EXPECT_EQ(pool.available(), 1u);
}

TEST(BufferPoolTest, DistinctBuffersDoNotOverlap) {
  BufferPool pool(128, 3);
  PooledBuffer a = pool.Acquire();
  PooledBuffer b = pool.Acquire();
  PooledBuffer c = pool.Acquire();
  EXPECT_GE(static_cast<size_t>(std::abs(a.data() - b.data())), 128u);
  EXPECT_GE(static_cast<size_t>(std::abs(b.data() - c.data())), 128u);
  EXPECT_GE(static_cast<size_t>(std::abs(a.data() - c.data())), 128u);
}

TEST(BufferPoolTest, BlockedAcquireWakesOnRelease) {
  BufferPool pool(64, 1);
  PooledBuffer held = pool.Acquire();
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    PooledBuffer buf = pool.Acquire();
    acquired = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired);
  held.Release();
  waiter.join();
  EXPECT_TRUE(acquired);
  EXPECT_GE(pool.stats().blocked_acquires, 1u);
}

TEST(BufferPoolTest, CancelUnblocksBlockedAcquire) {
  // MofSupplier::Stop relies on this: a disk thread parked on a dry
  // DataCache wakes with an invalid buffer and exits.
  BufferPool pool(64, 1);
  PooledBuffer held = pool.Acquire();
  std::atomic<bool> got_valid{true};
  std::thread waiter([&] { got_valid = pool.Acquire().valid(); });
  while (pool.waiters() == 0) std::this_thread::yield();
  pool.Cancel();
  waiter.join();
  EXPECT_FALSE(got_valid);
  EXPECT_EQ(pool.waiters(), 0u);
}

TEST(BufferPoolTest, ConcurrentChurnKeepsInvariant) {
  BufferPool pool(256, 8);
  std::atomic<uint64_t> total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        PooledBuffer buf = pool.Acquire();
        buf.data()[0] = static_cast<uint8_t>(i);
        total.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(total.load(), 2000u);
  EXPECT_EQ(pool.available(), 8u);  // everything returned
  EXPECT_EQ(pool.stats().acquires, 2000u);
}

}  // namespace
}  // namespace jbs
