// Counts global operator new calls while records are read, to check that
// the IFile reader, the segment stream and the merge allocate nothing per
// record. The replacement operator new is process-wide, so this test is
// its own executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "mapred/ifile.h"
#include "mapred/merger.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

}  // namespace

// Out of line, so the compiler never sees a `free` inlined next to the
// `new` that allocated the same pointer through these replacements and
// takes the pair for a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace jbs::mr {
namespace {

constexpr int kSources = 32;

// kSources sorted segments of `per_source` records each: 10-byte keys
// interleaved across sources, 100-byte values.
std::vector<std::vector<uint8_t>> Segments(int per_source) {
  std::vector<std::vector<uint8_t>> segments;
  const std::string value(100, 'v');
  for (int s = 0; s < kSources; ++s) {
    IFileWriter writer;
    for (int i = 0; i < per_source; ++i) {
      char key[16];
      std::snprintf(key, sizeof(key), "%010d", i * kSources + s);
      writer.Append(key, value);
    }
    segments.push_back(writer.Finish());
  }
  return segments;
}

std::vector<std::unique_ptr<RecordStream>> Streams(
    const std::vector<std::vector<uint8_t>>& segments) {
  std::vector<std::unique_ptr<RecordStream>> streams;
  for (const auto& segment : segments) {
    streams.push_back(std::make_unique<SegmentStream>(segment));
  }
  return streams;
}

// operator new calls made while `drain` runs; it returns the records read.
template <typename Drain>
uint64_t AllocationsDuring(Drain drain, uint64_t* records) {
  g_allocations.store(0);
  g_counting.store(true);
  *records = drain();
  g_counting.store(false);
  return g_allocations.load();
}

TEST(RecordViewAllocTest, IFileReaderReadsInPlace) {
  const auto segments = Segments(2000);
  IFileReader reader(segments[0]);
  uint64_t records = 0;
  const uint64_t allocations = AllocationsDuring(
      [&] {
        RecordView view;
        uint64_t n = 0;
        while (reader.NextView(&view)) ++n;
        return n;
      },
      &records);
  EXPECT_TRUE(reader.status().ok());
  EXPECT_EQ(records, 2000u);
  EXPECT_EQ(allocations, 0u);
}

TEST(RecordViewAllocTest, SegmentStreamReadsInPlace) {
  const auto segments = Segments(2000);
  SegmentStream stream(segments[0]);
  uint64_t records = 0;
  const uint64_t allocations = AllocationsDuring(
      [&] {
        RecordView view;
        uint64_t n = 0;
        while (stream.NextView(&view)) ++n;
        return n;
      },
      &records);
  EXPECT_TRUE(stream.status().ok());
  EXPECT_EQ(records, 2000u);
  EXPECT_EQ(allocations, 0u);
}

TEST(RecordViewAllocTest, MergeOfViewsAllocatesNothing) {
  const auto segments = Segments(2000);
  KWayMerger merger(Streams(segments));
  uint64_t records = 0;
  const uint64_t allocations = AllocationsDuring(
      [&] {
        RecordView view;
        uint64_t n = 0;
        while (merger.NextView(&view)) ++n;
        return n;
      },
      &records);
  EXPECT_TRUE(merger.status().ok());
  EXPECT_EQ(records, 2000u * kSources);
  EXPECT_EQ(allocations, 0u);
}

// Building a merger over `segments` and draining it into one reused
// Record: the copy path a caller that keeps records takes.
uint64_t AllocationsToDrain(const std::vector<std::vector<uint8_t>>& segments,
                            uint64_t* records) {
  return AllocationsDuring(
      [&] {
        KWayMerger merger(Streams(segments));
        Record record;
        uint64_t n = 0;
        while (merger.Next(&record)) ++n;
        EXPECT_TRUE(merger.status().ok());
        return n;
      },
      records);
}

TEST(KWayMergerAllocTest, DrainAllocatesNothingPerRecord) {
  const auto small = Segments(200);
  const auto large = Segments(2000);
  uint64_t small_records = 0;
  uint64_t large_records = 0;
  const uint64_t small_allocations = AllocationsToDrain(small, &small_records);
  const uint64_t large_allocations = AllocationsToDrain(large, &large_records);
  ASSERT_EQ(small_records, 200u * kSources);
  ASSERT_EQ(large_records, 2000u * kSources);
  EXPECT_EQ(large_allocations, small_allocations)
      << "10x the records cost " << large_allocations - small_allocations
      << " more allocations";
}

}  // namespace
}  // namespace jbs::mr
