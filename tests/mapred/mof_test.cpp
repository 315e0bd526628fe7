#include "mapred/mof.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "mapred/ifile.h"

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace jbs::mr {
namespace {

namespace fs = std::filesystem;

class MofTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mof_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static std::vector<uint8_t> MakeSegment(
      const std::vector<Record>& records) {
    IFileWriter writer;
    for (const Record& r : records) writer.Append(r);
    return writer.Finish();
  }

  fs::path dir_;
};

TEST_F(MofTest, IndexSerializeParseRoundTrip) {
  std::vector<IndexEntry> entries = {{0, 100, 3}, {100, 50, 1}, {150, 0, 0}};
  MofIndex index(entries);
  auto parsed = MofIndex::Parse(index.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->entries(), entries);
  EXPECT_EQ(parsed->num_partitions(), 3);
  EXPECT_EQ(parsed->total_bytes(), 150u);
}

TEST_F(MofTest, ParseRejectsBadMagic) {
  std::vector<uint8_t> junk(8, 0);
  EXPECT_FALSE(MofIndex::Parse(junk).ok());
}

TEST_F(MofTest, ParseRejectsSizeMismatch) {
  MofIndex index({{0, 10, 1}});
  auto data = index.Serialize();
  data.pop_back();
  EXPECT_FALSE(MofIndex::Parse(data).ok());
}

TEST_F(MofTest, WriteReadSegments) {
  MofWriter writer(dir_ / "mof_0");
  auto seg0 = MakeSegment({{"a", "1"}, {"b", "2"}});
  auto seg1 = MakeSegment({{"c", "3"}});
  ASSERT_TRUE(writer.AppendSegment(seg0, 2).ok());
  ASSERT_TRUE(writer.AppendSegment(seg1, 1).ok());
  auto handle = writer.Finish(/*map_task=*/7, /*node=*/2);
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle->map_task, 7);
  EXPECT_EQ(handle->node, 2);

  auto reader = MofReader::Open(*handle);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->index().num_partitions(), 2);
  EXPECT_EQ(reader->index().entry(0).records, 2u);

  std::vector<uint8_t> out;
  ASSERT_TRUE(reader->ReadSegment(0, out).ok());
  EXPECT_EQ(out, seg0);
  ASSERT_TRUE(reader->ReadSegment(1, out).ok());
  EXPECT_EQ(out, seg1);
}

TEST_F(MofTest, RangedSegmentRead) {
  MofWriter writer(dir_ / "mof_1");
  auto seg0 = MakeSegment({{"aaaa", std::string(100, 'x')}});
  auto seg1 = MakeSegment({{"bbbb", std::string(100, 'y')}});
  ASSERT_TRUE(writer.AppendSegment(seg0, 1).ok());
  ASSERT_TRUE(writer.AppendSegment(seg1, 1).ok());
  auto handle = writer.Finish(0, 0);
  ASSERT_TRUE(handle.ok());
  auto reader = MofReader::Open(*handle);
  ASSERT_TRUE(reader.ok());

  // Fetch segment 1 in two buffer-sized chunks and reassemble.
  const uint64_t len = reader->index().entry(1).length;
  const uint64_t half = len / 2;
  std::vector<uint8_t> part1, part2;
  ASSERT_TRUE(reader->ReadSegmentRange(1, 0, half, part1).ok());
  ASSERT_TRUE(reader->ReadSegmentRange(1, half, len - half, part2).ok());
  part1.insert(part1.end(), part2.begin(), part2.end());
  EXPECT_EQ(part1, seg1);
}

TEST_F(MofTest, RangeBeyondSegmentFails) {
  MofWriter writer(dir_ / "mof_2");
  ASSERT_TRUE(writer.AppendSegment(MakeSegment({{"a", "1"}}), 1).ok());
  auto handle = writer.Finish(0, 0);
  auto reader = MofReader::Open(*handle);
  ASSERT_TRUE(reader.ok());
  std::vector<uint8_t> out;
  EXPECT_FALSE(reader->ReadSegmentRange(0, 0, 10000, out).ok());
  EXPECT_FALSE(reader->ReadSegment(5, out).ok());
  EXPECT_FALSE(reader->ReadSegment(-1, out).ok());
}

TEST_F(MofTest, EmptyMofHasIndexButNoData) {
  MofWriter writer(dir_ / "mof_empty");
  auto handle = writer.Finish(1, 0);
  ASSERT_TRUE(handle.ok());
  EXPECT_TRUE(fs::exists(handle->data_path));
  EXPECT_EQ(fs::file_size(handle->data_path), 0u);
  auto reader = MofReader::Open(*handle);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->index().num_partitions(), 0);
}

TEST_F(MofTest, SegmentsReadableThroughIFileReader) {
  MofWriter writer(dir_ / "mof_3");
  ASSERT_TRUE(
      writer.AppendSegment(MakeSegment({{"k1", "v1"}, {"k2", "v2"}}), 2).ok());
  auto handle = writer.Finish(0, 0);
  auto reader = MofReader::Open(*handle);
  std::vector<uint8_t> segment;
  ASSERT_TRUE(reader->ReadSegment(0, segment).ok());
  IFileReader records(segment);
  ASSERT_TRUE(records.VerifyChecksum().ok());
  Record r;
  ASSERT_TRUE(records.Next(&r));
  EXPECT_EQ(r.key, "k1");
}

TEST_F(MofTest, MissingIndexFileFailsOpen) {
  MofHandle handle;
  handle.data_path = dir_ / "nope.data";
  handle.index_path = dir_ / "nope.index";
  EXPECT_FALSE(MofReader::Open(handle).ok());
}

MofHandle HandleWithPaths(int map_task, const char* data_format,
                          const char* index_format) {
  char data[64];
  char index[64];
  std::snprintf(data, sizeof(data), data_format, map_task);
  std::snprintf(index, sizeof(index), index_format, map_task);
  return {map_task, 0, data, index};
}

TEST(MofRegistryTest, EntryHeapFootprintIsCompact) {
#ifdef __GLIBC__
  constexpr int kEntries = 10000;
  MofRegistry registry;
  const size_t before = mallinfo2().uordblks;
  for (int m = 0; m < kEntries; ++m) {
    // 48-character data and index paths.
    const MofHandle handle =
        HandleWithPaths(m, "/var/lib/jbs/local/job_0001/mof_m%010d.data",
                        "/var/lib/jbs/local/job_0001/mof_m%09d.index");
    ASSERT_EQ(handle.data_path.string().size(), 48u);
    ASSERT_EQ(handle.index_path.string().size(), 48u);
    ASSERT_TRUE(registry.Publish(handle).ok());
  }
  const size_t after = mallinfo2().uordblks;
  EXPECT_EQ(registry.size(), static_cast<size_t>(kEntries));
  const size_t per_entry = after > before ? (after - before) / kEntries : 0;
  EXPECT_LE(per_entry, 400u);
#else
  GTEST_SKIP() << "heap accounting needs glibc mallinfo2";
#endif
}

TEST(MofRegistryTest, RepublishReplacesAndUnknownIsNotFound) {
  MofRegistry registry;
  ASSERT_TRUE(registry.Publish(HandleWithPaths(7, "a/%d.data", "a/%d.index"))
                  .ok());
  ASSERT_TRUE(registry.Publish(HandleWithPaths(7, "b/%d.data", "b/%d.index"))
                  .ok());
  EXPECT_EQ(registry.size(), 1u);
  auto mof = registry.Lookup(7);
  ASSERT_TRUE(mof.ok()) << mof.status().ToString();
  EXPECT_EQ(mof->data_path, "b/7.data");
  EXPECT_EQ(mof->index_path, "b/7.index");

  auto unknown = registry.Lookup(8);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(unknown.status().message(), "unknown MOF");
}

}  // namespace
}  // namespace jbs::mr
