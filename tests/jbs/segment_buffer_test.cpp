// The page-backed segment buffer NetMerger reassembles fetched chunks in,
// and the pool that recycles its mappings.
#include "jbs/segment_buffer.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

namespace jbs::shuffle {
namespace {

std::vector<uint8_t> Pattern(size_t n, uint8_t salt) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>(i * 31 + salt);
  return out;
}

/// A buffer on a fresh mapping of its own: a pool with no budget keeps
/// nothing, so the buffer unmaps when it is dropped.
StatusOr<std::unique_ptr<SegmentBuffer>> Map(uint64_t capacity) {
  return std::make_shared<SegmentPool>(/*budget_bytes=*/0)->Acquire(capacity);
}

uint64_t Page() { return static_cast<uint64_t>(::sysconf(_SC_PAGESIZE)); }

TEST(SegmentBufferTest, AppendsUpToCapacity) {
  auto buffer = Map(10000);
  ASSERT_TRUE(buffer.ok()) << buffer.status().ToString();
  const auto a = Pattern(4000, 1);
  const auto b = Pattern(6000, 2);
  ASSERT_TRUE((*buffer)->Append(a).ok());
  ASSERT_TRUE((*buffer)->Append(b).ok());
  EXPECT_EQ((*buffer)->size(), 10000u);
  EXPECT_EQ((*buffer)->capacity(), 10000u);
  std::vector<uint8_t> expected = a;
  expected.insert(expected.end(), b.begin(), b.end());
  const auto bytes = (*buffer)->bytes();
  EXPECT_EQ(std::vector<uint8_t>(bytes.begin(), bytes.end()), expected);
}

TEST(SegmentBufferTest, OverrunIsRejectedWithoutWriting) {
  auto buffer = Map(100);
  ASSERT_TRUE(buffer.ok());
  ASSERT_TRUE((*buffer)->Append(Pattern(60, 3)).ok());
  // The mapping has a whole page of room, but the segment ends at 100.
  const Status over = (*buffer)->Append(Pattern(41, 4));
  EXPECT_EQ(over.code(), StatusCode::kInternal) << over.ToString();
  EXPECT_EQ((*buffer)->size(), 60u);
  EXPECT_TRUE((*buffer)->Append(Pattern(40, 5)).ok());
  EXPECT_EQ((*buffer)->Append(Pattern(1, 6)).code(), StatusCode::kInternal);
  EXPECT_EQ((*buffer)->size(), 100u);
}

TEST(SegmentBufferTest, ZeroLengthSegmentMapsNothing) {
  const uint64_t live_before = LiveSegmentMappedBytes();
  auto buffer = Map(0);
  ASSERT_TRUE(buffer.ok());
  EXPECT_EQ(LiveSegmentMappedBytes(), live_before);
  EXPECT_EQ((*buffer)->size(), 0u);
  EXPECT_TRUE((*buffer)->bytes().empty());
  EXPECT_TRUE((*buffer)->Append({}).ok());
  EXPECT_EQ((*buffer)->Append(Pattern(1, 7)).code(), StatusCode::kInternal);
}

TEST(SegmentBufferTest, HugeSizeIsResourceExhausted) {
  // A forged size fails before anything is mapped, so it can neither
  // enter nor pin the pool.
  auto pool = std::make_shared<SegmentPool>();
  const uint64_t live_before = LiveSegmentMappedBytes();
  for (const uint64_t size :
       {uint64_t{1} << 62, std::numeric_limits<uint64_t>::max()}) {
    auto buffer = pool->Acquire(size);
    ASSERT_FALSE(buffer.ok()) << size;
    EXPECT_EQ(buffer.status().code(), StatusCode::kResourceExhausted)
        << buffer.status().ToString();
    EXPECT_EQ(LiveSegmentMappedBytes(), live_before);
  }
  EXPECT_EQ(pool->live_bytes(), 0u);
  EXPECT_EQ(pool->pooled_bytes(), 0u);
  EXPECT_TRUE(pool->Acquire(Page()).ok());
}

TEST(SegmentBufferTest, LiveMappedBytesCountsWholePages) {
  const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  const uint64_t live_before = LiveSegmentMappedBytes();
  {
    auto one = Map(1);
    auto two = Map(page + 1);
    ASSERT_TRUE(one.ok() && two.ok());
    EXPECT_EQ(LiveSegmentMappedBytes(), live_before + 3 * page);
  }
  EXPECT_EQ(LiveSegmentMappedBytes(), live_before);
}

TEST(SegmentBufferTest, CommitExposesSpareBytesOnlyWhenCommitted) {
  auto buffer = Map(3000);
  ASSERT_TRUE(buffer.ok());
  ASSERT_TRUE((*buffer)->Append(Pattern(1000, 8)).ok());
  std::span<uint8_t> spare = (*buffer)->spare();
  ASSERT_EQ(spare.size(), 2000u);
  const auto placed = Pattern(1500, 9);
  std::copy(placed.begin(), placed.end(), spare.begin());
  EXPECT_EQ((*buffer)->size(), 1000u);  // written, not yet committed
  ASSERT_TRUE((*buffer)->Commit(placed.size()).ok());
  EXPECT_EQ((*buffer)->size(), 2500u);
  const auto bytes = (*buffer)->bytes();
  EXPECT_TRUE(std::equal(placed.begin(), placed.end(), bytes.begin() + 1000));
  EXPECT_EQ((*buffer)->Commit(501).code(), StatusCode::kInternal);
  EXPECT_EQ((*buffer)->size(), 2500u);
  EXPECT_TRUE((*buffer)->Commit(500).ok());
  EXPECT_TRUE((*buffer)->spare().empty());
}

TEST(SegmentBufferTest, ReaderSeesEveryCommittedByteWhileTheWriterFills) {
  // The committed size publishes the bytes before it: a reader on another
  // thread that loads it may read that whole prefix (TSan checks the
  // handoff), whether the bytes were appended or written in place.
  constexpr size_t kSize = 256 * 1024;
  const std::vector<uint8_t> expected = Pattern(kSize, 9);
  auto buffer = Map(kSize);
  ASSERT_TRUE(buffer.ok());
  SegmentBuffer& segment = **buffer;
  std::thread writer([&] {
    for (size_t offset = 0, step = 1; offset < kSize; step = step % 4093 + 7) {
      const size_t n = std::min(step, kSize - offset);
      if (step % 2 == 0) {
        ASSERT_TRUE(segment.Append({expected.data() + offset, n}).ok());
      } else {
        std::copy_n(expected.data() + offset, n, segment.spare().data());
        ASSERT_TRUE(segment.Commit(n).ok());
      }
      offset += n;
    }
  });
  size_t checked = 0;
  while (checked < kSize) {
    const std::span<const uint8_t> bytes = segment.bytes();
    ASSERT_GE(bytes.size(), checked);
    ASSERT_TRUE(std::equal(bytes.begin() + checked, bytes.end(),
                           expected.begin() + checked));
    checked = bytes.size();
  }
  writer.join();
  EXPECT_EQ(segment.size(), kSize);
}

TEST(SegmentPoolTest, SamePageRoundedSizeReusesTheMapping) {
  auto pool = std::make_shared<SegmentPool>();
  const uint64_t live_before = LiveSegmentMappedBytes();
  const uint8_t* first = nullptr;
  {
    auto buffer = pool->Acquire(3 * Page() - 10);
    ASSERT_TRUE(buffer.ok()) << buffer.status().ToString();
    first = (*buffer)->spare().data();
    EXPECT_EQ(pool->live_bytes(), 3 * Page());
    EXPECT_EQ(LiveSegmentMappedBytes(), live_before + 3 * Page());
  }
  // Freed into the pool, not unmapped.
  EXPECT_EQ(pool->live_bytes(), 0u);
  EXPECT_EQ(pool->pooled_bytes(), 3 * Page());
  EXPECT_EQ(LiveSegmentMappedBytes(), live_before);
  auto again = pool->Acquire(2 * Page() + 1);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->spare().data(), first);
  EXPECT_EQ((*again)->capacity(), 2 * Page() + 1);
  EXPECT_EQ(pool->pooled_bytes(), 0u);
  EXPECT_EQ(pool->live_bytes(), 3 * Page());
}

TEST(SegmentPoolTest, SlackBeyondTwiceTheRequestMapsFresh) {
  auto pool = std::make_shared<SegmentPool>();
  const uint8_t* big = nullptr;
  {
    auto buffer = pool->Acquire(4 * Page());
    ASSERT_TRUE(buffer.ok());
    big = (*buffer)->spare().data();
  }
  {
    // One page would pin four: not a fit.
    auto small = pool->Acquire(Page());
    ASSERT_TRUE(small.ok());
    EXPECT_NE((*small)->spare().data(), big);
    EXPECT_EQ(pool->pooled_bytes(), 4 * Page());
  }
  auto fits = pool->Acquire(2 * Page());  // 4 <= 2 x 2 pages
  ASSERT_TRUE(fits.ok());
  EXPECT_EQ((*fits)->spare().data(), big);
}

TEST(SegmentPoolTest, ReusedBufferShowsOnlyItsOwnBytes) {
  auto pool = std::make_shared<SegmentPool>();
  const auto stale = Pattern(8000, 10);
  {
    auto buffer = pool->Acquire(stale.size());
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE((*buffer)->Append(stale).ok());
  }
  auto buffer = pool->Acquire(stale.size());
  ASSERT_TRUE(buffer.ok());
  EXPECT_EQ(pool->pooled_bytes(), 0u);  // the same mapping came back
  EXPECT_EQ((*buffer)->size(), 0u);
  EXPECT_TRUE((*buffer)->bytes().empty());
  const auto fresh = Pattern(100, 11);
  ASSERT_TRUE((*buffer)->Append(fresh).ok());
  const auto bytes = (*buffer)->bytes();
  EXPECT_EQ(std::vector<uint8_t>(bytes.begin(), bytes.end()), fresh);
}

TEST(SegmentPoolTest, FreePastTheBudgetUnmaps) {
  auto pool = std::make_shared<SegmentPool>(/*budget_bytes=*/2 * Page());
  const uint64_t live_before = LiveSegmentMappedBytes();
  const uint64_t pooled_before = PooledSegmentMappedBytes();
  {
    auto a = pool->Acquire(Page());
    auto b = pool->Acquire(Page());
    auto c = pool->Acquire(Page());
    auto huge = pool->Acquire(3 * Page());  // alone exceeds the budget
    ASSERT_TRUE(a.ok() && b.ok() && c.ok() && huge.ok());
    EXPECT_EQ(pool->live_bytes(), 6 * Page());
  }
  EXPECT_EQ(pool->pooled_bytes(), 2 * Page());
  EXPECT_EQ(PooledSegmentMappedBytes(), pooled_before + 2 * Page());
  EXPECT_EQ(LiveSegmentMappedBytes(), live_before);
  EXPECT_EQ(pool->live_bytes(), 0u);
}

TEST(SegmentPoolTest, CloseUnmapsIdleAndLaterFrees) {
  const uint64_t live_before = LiveSegmentMappedBytes();
  const uint64_t pooled_before = PooledSegmentMappedBytes();
  auto pool = std::make_shared<SegmentPool>();
  ASSERT_TRUE(pool->Acquire(Page()).ok());  // dropped at once: pooled
  auto held = pool->Acquire(5 * Page());
  ASSERT_TRUE(held.ok());
  EXPECT_EQ(PooledSegmentMappedBytes(), pooled_before + Page());
  pool->Close();
  EXPECT_EQ(pool->pooled_bytes(), 0u);
  EXPECT_EQ(PooledSegmentMappedBytes(), pooled_before);
  // The owner lets go of the pool while a buffer is still out: the buffer
  // keeps it alive, and its free unmaps because the pool is closed.
  pool.reset();
  ASSERT_TRUE((*held)->Append(Pattern(5 * Page(), 12)).ok());
  held->reset();
  EXPECT_EQ(LiveSegmentMappedBytes(), live_before);
  EXPECT_EQ(PooledSegmentMappedBytes(), pooled_before);
}

TEST(SegmentPoolTest, DestroyedPoolReturnsItsIdlePages) {
  const uint64_t pooled_before = PooledSegmentMappedBytes();
  {
    auto pool = std::make_shared<SegmentPool>();
    ASSERT_TRUE(pool->Acquire(2 * Page()).ok());
    EXPECT_EQ(PooledSegmentMappedBytes(), pooled_before + 2 * Page());
  }
  EXPECT_EQ(PooledSegmentMappedBytes(), pooled_before);
}

}  // namespace
}  // namespace jbs::shuffle
