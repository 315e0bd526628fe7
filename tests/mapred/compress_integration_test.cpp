// Map-output compression (mapred.compress.map.output) through the whole
// stack: collector -> MOF flags -> every shuffle implementation -> merge.
#include <gtest/gtest.h>

#include <filesystem>

#include "common/compress.h"
#include "mapred/collector.h"
#include "mapred/local_shuffle.h"
#include "mapred/merger.h"
#include "mapred/mof.h"

namespace jbs::mr {
namespace {

namespace fs = std::filesystem;

class CompressIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("compress_int_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(CompressIntegrationTest, IndexCarriesCompressionFlag) {
  MofIndex plain({{0, 10, 1}});
  EXPECT_FALSE(plain.compressed());
  MofIndex compressed({{0, 10, 1}}, kMofCompressed);
  EXPECT_TRUE(compressed.compressed());
  auto parsed = MofIndex::Parse(compressed.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->compressed());
  EXPECT_EQ(parsed->flags(), kMofCompressed);
}

TEST_F(CompressIntegrationTest, CollectorCompressesFinalSegments) {
  MapOutputCollector::Options options;
  options.num_partitions = 2;
  options.work_dir = dir_;
  options.compress = true;
  MapOutputCollector collector(options);
  for (int i = 0; i < 500; ++i) {
    collector.Emit("repeated_key_prefix_" + std::to_string(i % 20),
                   "identical_value_payload_identical_value_payload");
  }
  auto handle = collector.Finish(0, 0);
  ASSERT_TRUE(handle.ok());

  auto reader = MofReader::Open(*handle);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->index().compressed());
  std::vector<uint8_t> raw_segment;
  ASSERT_TRUE(reader->ReadSegment(0, raw_segment).ok());
  EXPECT_TRUE(LooksCompressed(raw_segment));

  // Decode through the canonical path and count the records back.
  auto stream = OpenSegment(raw_segment, nullptr, true);
  ASSERT_TRUE(stream.ok());
  Record record;
  size_t count = 0;
  std::string last;
  while ((*stream)->Next(&record)) {
    EXPECT_GE(record.key, last);
    last = record.key;
    ++count;
  }
  EXPECT_TRUE((*stream)->status().ok());
  std::vector<uint8_t> other_segment;
  ASSERT_TRUE(reader->ReadSegment(1, other_segment).ok());
  auto other = OpenSegment(other_segment, nullptr, true);
  ASSERT_TRUE(other.ok());
  size_t count2 = 0;
  while ((*other)->Next(&record)) ++count2;
  EXPECT_EQ(count + count2, 500u);
}

TEST_F(CompressIntegrationTest, CompressedSmallerThanPlainOnDisk) {
  auto run = [&](bool compress) {
    MapOutputCollector::Options options;
    options.num_partitions = 1;
    options.work_dir = dir_ / (compress ? "c" : "p");
    options.compress = compress;
    MapOutputCollector collector(options);
    for (int i = 0; i < 1000; ++i) {
      collector.Emit("key_" + std::to_string(i % 10),
                     std::string(100, 'v'));
    }
    auto handle = collector.Finish(0, 0);
    EXPECT_TRUE(handle.ok());
    return fs::file_size(handle->data_path);
  };
  EXPECT_LT(run(true), run(false) / 3);
}

TEST_F(CompressIntegrationTest, LocalShuffleDecompressesTransparently) {
  MapOutputCollector::Options options;
  options.num_partitions = 1;
  options.work_dir = dir_;
  options.compress = true;
  MapOutputCollector collector(options);
  for (int i = 0; i < 100; ++i) {
    collector.Emit("k" + std::to_string(i), "value");
  }
  auto handle = collector.Finish(7, 0);
  ASSERT_TRUE(handle.ok());

  LocalShufflePlugin plugin;
  Config conf;
  auto server = plugin.CreateServer(0, conf);
  auto client = plugin.CreateClient(0, conf);
  ASSERT_TRUE(server->Start().ok());
  ASSERT_TRUE(server->PublishMof(*handle).ok());
  auto stream = client->FetchAndMerge(0, {{7, 0, "", 0}});
  ASSERT_TRUE(stream.ok());
  Record record;
  size_t count = 0;
  while ((*stream)->Next(&record)) ++count;
  EXPECT_EQ(count, 100u);
}

TEST_F(CompressIntegrationTest, OpenSegmentRejectsCorruptCompressed) {
  std::vector<uint8_t> junk = {'J', 1, 0x20, 0xFF, 0xFF};
  auto stream = OpenSegment(junk, nullptr, /*compressed=*/true);
  EXPECT_FALSE(stream.ok());
}

TEST_F(CompressIntegrationTest, EmptyMapOutputCompressed) {
  MapOutputCollector::Options options;
  options.num_partitions = 3;
  options.work_dir = dir_;
  options.compress = true;
  MapOutputCollector collector(options);
  auto handle = collector.Finish(0, 0);
  ASSERT_TRUE(handle.ok());
  auto reader = MofReader::Open(*handle);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->index().compressed());
  std::vector<uint8_t> segment;
  ASSERT_TRUE(reader->ReadSegment(0, segment).ok());
  auto stream = OpenSegment(segment, nullptr, true);
  ASSERT_TRUE(stream.ok());
  Record record;
  EXPECT_FALSE((*stream)->Next(&record));
  EXPECT_TRUE((*stream)->status().ok());
}

}  // namespace
}  // namespace jbs::mr
