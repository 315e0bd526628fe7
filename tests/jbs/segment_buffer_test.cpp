// The page-backed segment buffer NetMerger reassembles fetched chunks in.
#include "jbs/segment_buffer.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <limits>
#include <vector>

namespace jbs::shuffle {
namespace {

std::vector<uint8_t> Pattern(size_t n, uint8_t salt) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>(i * 31 + salt);
  return out;
}

TEST(SegmentBufferTest, AppendsUpToCapacity) {
  auto buffer = SegmentBuffer::Create(10000);
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
  auto buffer = SegmentBuffer::Create(100);
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
  auto buffer = SegmentBuffer::Create(0);
  ASSERT_TRUE(buffer.ok());
  EXPECT_EQ(LiveSegmentMappedBytes(), live_before);
  EXPECT_EQ((*buffer)->size(), 0u);
  EXPECT_TRUE((*buffer)->bytes().empty());
  EXPECT_TRUE((*buffer)->Append({}).ok());
  EXPECT_EQ((*buffer)->Append(Pattern(1, 7)).code(), StatusCode::kInternal);
}

TEST(SegmentBufferTest, HugeSizeIsResourceExhausted) {
  for (const uint64_t size :
       {uint64_t{1} << 62, std::numeric_limits<uint64_t>::max()}) {
    const uint64_t live_before = LiveSegmentMappedBytes();
    auto buffer = SegmentBuffer::Create(size);
    ASSERT_FALSE(buffer.ok()) << size;
    EXPECT_EQ(buffer.status().code(), StatusCode::kResourceExhausted)
        << buffer.status().ToString();
    EXPECT_EQ(LiveSegmentMappedBytes(), live_before);
  }
}

TEST(SegmentBufferTest, LiveMappedBytesCountsWholePages) {
  const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  const uint64_t live_before = LiveSegmentMappedBytes();
  {
    auto one = SegmentBuffer::Create(1);
    auto two = SegmentBuffer::Create(page + 1);
    ASSERT_TRUE(one.ok() && two.ok());
    EXPECT_EQ(LiveSegmentMappedBytes(), live_before + 3 * page);
  }
  EXPECT_EQ(LiveSegmentMappedBytes(), live_before);
}

}  // namespace
}  // namespace jbs::shuffle
