#include "common/buffer_pool.h"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdlib>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
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

/// This process's resident set in KiB (VmRSS in /proc/self/status).
size_t ResidentKiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoul(line.substr(6));
  }
  return 0;
}

TEST(BufferPoolTest, OnlyTouchedBuffersBecomeResident) {
  // The arena is its own mapping, so a pool costs resident memory only for
  // the buffers that get written, whatever malloc's state.
  const size_t before = ResidentKiB();
  ASSERT_GT(before, 0u);
  BufferPool pool(128 * 1024, 512);  // 64 MiB
  {
    PooledBuffer buffer = pool.Acquire();
    std::memset(buffer.data(), 0xAB, buffer.capacity());
  }
  const size_t after = ResidentKiB();
  EXPECT_LT(after, before + 4 * 1024);
}

/// Resident pages among the `len` bytes at `data` (mincore).
size_t ResidentPages(const uint8_t* data, size_t len) {
  const auto page = static_cast<uintptr_t>(::sysconf(_SC_PAGESIZE));
  const uintptr_t start = reinterpret_cast<uintptr_t>(data) & ~(page - 1);
  const uintptr_t end = reinterpret_cast<uintptr_t>(data) + len;
  std::vector<unsigned char> pages((end - start + page - 1) / page);
  if (::mincore(reinterpret_cast<void*>(start), end - start, pages.data()) !=
      0) {
    ADD_FAILURE() << "mincore failed";
    return 0;
  }
  size_t resident = 0;
  for (unsigned char flags : pages) resident += flags & 1;
  return resident;
}

/// Mallocs, writes and frees `bytes`, in a way the compiler cannot elide.
void TouchAndFree(size_t bytes) {
  void* block = std::malloc(bytes);
  ASSERT_NE(block, nullptr);
  std::memset(block, 0x5C, bytes);
  asm volatile("" : : "r"(block) : "memory");
  std::free(block);
}

TEST(BufferPoolTest, ArenaNeverReusesTouchedHeapPages) {
  // The heap case behind a pool that counts as resident in full: freeing
  // a 16 MiB mapped block raises glibc's mmap threshold past 8 MiB, and a
  // 12 MiB block written and freed after it leaves written pages at the
  // top of the heap (below the raised trim threshold). A DataCache-sized
  // arena (8 MiB) taken from malloc would reuse those pages, resident
  // before the pool writes a byte; the pool's own mapping never does.
  TouchAndFree(16 * 1024 * 1024);
  TouchAndFree(12 * 1024 * 1024);
  BufferPool pool(128 * 1024, 64);
  std::vector<PooledBuffer> buffers;
  for (size_t i = 0; i < pool.capacity(); ++i) buffers.push_back(pool.Acquire());
  std::memset(buffers[0].data(), 0xAB, buffers[0].capacity());
  size_t resident = 0;
  for (size_t i = 1; i < buffers.size(); ++i) {
    resident += ResidentPages(buffers[i].data(), buffers[i].capacity());
  }
  EXPECT_EQ(resident, 0u);
}

}  // namespace
}  // namespace jbs
