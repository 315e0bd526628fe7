#include "mapred/collector.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "common/rng.h"
#include "mapred/ifile.h"
#include "mapred/merger.h"

namespace jbs::mr {
namespace {

namespace fs = std::filesystem;

class CollectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("collector_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  MapOutputCollector::Options Opts(int partitions,
                                   size_t sort_buffer = 1 << 20) {
    MapOutputCollector::Options o;
    o.num_partitions = partitions;
    o.sort_buffer_bytes = sort_buffer;
    o.work_dir = dir_;
    return o;
  }

  static std::vector<Record> ReadPartition(const MofHandle& handle,
                                           int partition) {
    auto reader = MofReader::Open(handle);
    EXPECT_TRUE(reader.ok());
    std::vector<uint8_t> segment;
    EXPECT_TRUE(reader->ReadSegment(partition, segment).ok());
    SegmentStream stream(segment);
    std::vector<Record> out;
    Record r;
    while (stream.Next(&r)) out.push_back(r);
    EXPECT_TRUE(stream.status().ok());
    return out;
  }

  fs::path dir_;
};

TEST_F(CollectorTest, SinglePartitionSorted) {
  MapOutputCollector collector(Opts(1));
  collector.Emit("delta", "4");
  collector.Emit("alpha", "1");
  collector.Emit("charlie", "3");
  collector.Emit("bravo", "2");
  auto handle = collector.Finish(0, 0);
  ASSERT_TRUE(handle.ok());
  auto records = ReadPartition(*handle, 0);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].key, "alpha");
  EXPECT_EQ(records[3].key, "delta");
}

TEST_F(CollectorTest, PartitionsRouteByPartitioner) {
  MapOutputCollector collector(Opts(4));
  HashPartitioner hasher;
  std::map<int, int> expected_counts;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "k" + std::to_string(i);
    ++expected_counts[hasher.Partition(key, 4)];
    collector.Emit(key, "v");
  }
  auto handle = collector.Finish(0, 0);
  ASSERT_TRUE(handle.ok());
  for (int p = 0; p < 4; ++p) {
    auto records = ReadPartition(*handle, p);
    EXPECT_EQ(static_cast<int>(records.size()), expected_counts[p]);
    for (const Record& r : records) {
      EXPECT_EQ(hasher.Partition(r.key, 4), p);
    }
    EXPECT_TRUE(std::is_sorted(records.begin(), records.end(),
                               [](const Record& a, const Record& b) {
                                 return a.key < b.key;
                               }));
  }
}

TEST_F(CollectorTest, SpillsWhenBufferFull) {
  // 1 KB sort buffer forces many spills; the merged MOF must still hold
  // every record in sorted order.
  MapOutputCollector collector(Opts(2, /*sort_buffer=*/1024));
  Rng rng(11);
  std::map<std::string, int> emitted;
  for (int i = 0; i < 500; ++i) {
    const std::string key = "key_" + std::to_string(rng.Below(100));
    collector.Emit(key, "value_padding_padding");
    ++emitted[key];
  }
  EXPECT_GT(collector.spills(), 1);
  auto handle = collector.Finish(3, 1);
  ASSERT_TRUE(handle.ok());

  std::map<std::string, int> merged_counts;
  size_t total = 0;
  for (int p = 0; p < 2; ++p) {
    auto records = ReadPartition(*handle, p);
    total += records.size();
    EXPECT_TRUE(std::is_sorted(records.begin(), records.end(),
                               [](const Record& a, const Record& b) {
                                 return a.key < b.key;
                               }));
    for (const Record& r : records) ++merged_counts[r.key];
  }
  EXPECT_EQ(total, 500u);
  EXPECT_EQ(merged_counts, emitted);
  // Spill files cleaned up.
  size_t spill_files = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    if (e.path().filename().string().starts_with("spill_")) ++spill_files;
  }
  EXPECT_EQ(spill_files, 0u);
}

TEST_F(CollectorTest, CombinerCollapsesDuplicates) {
  auto opts = Opts(1, /*sort_buffer=*/512);
  opts.combiner = [](const std::string& key,
                     const std::vector<std::string>& values, Emitter& out) {
    int64_t sum = 0;
    for (const auto& v : values) sum += std::stoll(v);
    out.Emit(key, std::to_string(sum));
  };
  MapOutputCollector collector(opts);
  for (int i = 0; i < 300; ++i) {
    collector.Emit("hot_key_" + std::to_string(i % 3), "1");
  }
  EXPECT_GT(collector.spills(), 0);
  auto handle = collector.Finish(0, 0);
  ASSERT_TRUE(handle.ok());
  auto records = ReadPartition(*handle, 0);
  ASSERT_EQ(records.size(), 3u);  // fully combined across spills
  int64_t total = 0;
  for (const Record& r : records) total += std::stoll(r.value);
  EXPECT_EQ(total, 300);
}

TEST_F(CollectorTest, EmptyOutputProducesEmptySegments) {
  MapOutputCollector collector(Opts(3));
  auto handle = collector.Finish(0, 0);
  ASSERT_TRUE(handle.ok());
  for (int p = 0; p < 3; ++p) {
    EXPECT_TRUE(ReadPartition(*handle, p).empty());
  }
}

TEST_F(CollectorTest, CountersTrackEmissions) {
  MapOutputCollector collector(Opts(1));
  collector.Emit("abc", "defgh");
  collector.Emit("x", "y");
  EXPECT_EQ(collector.records_collected(), 2u);
  EXPECT_EQ(collector.bytes_collected(), 8u + 2u);
  ASSERT_TRUE(collector.Finish(0, 0).ok());
}

TEST_F(CollectorTest, SingleSpillRenameFastPath) {
  MapOutputCollector collector(Opts(1));
  collector.Emit("k", "v");
  auto handle = collector.Finish(9, 0);
  ASSERT_TRUE(handle.ok());
  EXPECT_TRUE(handle->data_path.string().find("mof_9") != std::string::npos);
  EXPECT_TRUE(fs::exists(handle->data_path));
  EXPECT_TRUE(fs::exists(handle->index_path));
}

}  // namespace
}  // namespace jbs::mr
