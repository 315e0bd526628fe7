// Heavier integration scenarios: sequential jobs on one runner, compressed
// terasort through JBS over soft-RDMA, and a wider logical cluster.
#include <gtest/gtest.h>

#include <filesystem>

#include "hdfs/minidfs.h"
#include "jbs/plugin.h"
#include "mapred/engine.h"
#include "workloads/tarazu.h"
#include "workloads/teragen.h"

namespace jbs {
namespace {

namespace fs = std::filesystem;

class EngineStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("engine_stress_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    hdfs::MiniDfs::Options dopts;
    dopts.root = root_ / "dfs";
    dopts.num_datanodes = 4;
    dopts.replication = 2;
    dopts.block_size = 64 << 10;
    dfs_ = std::make_unique<hdfs::MiniDfs>(dopts);
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
  std::unique_ptr<hdfs::MiniDfs> dfs_;
};

TEST_F(EngineStressTest, TerasortCompressedJbsRdma) {
  constexpr uint64_t kRecords = 25000;
  ASSERT_TRUE(wl::TeraGen(*dfs_, "/in", kRecords, 99).ok());

  shuffle::JbsOptions jbs_options;
  jbs_options.transport = shuffle::TransportKind::kRdma;
  jbs_options.buffer_size = 32 * 1024;
  shuffle::JbsShufflePlugin plugin(jbs_options);

  mr::LocalJobRunner::Options options;
  options.dfs = dfs_.get();
  options.plugin = &plugin;
  options.work_dir = root_ / "work";
  options.num_nodes = 4;
  options.output_format = mr::OutputFormat::kRaw;
  options.sort_buffer_bytes = 128 << 10;
  options.conf.SetBool(conf::kCompressMapOutput, true);
  mr::LocalJobRunner runner(options);

  auto spec = wl::TerasortJob(*dfs_, "/in", "/out", 8);
  ASSERT_TRUE(spec.ok());
  auto result = runner.Run(*spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->map_tasks, 16u);  // a wide merge per reducer
  auto total = wl::ValidateSorted(*dfs_, result->output_files);
  ASSERT_TRUE(total.ok()) << total.status().ToString();
  EXPECT_EQ(*total, kRecords);
  // Compression really reduced wire traffic below the raw data size.
  EXPECT_LT(result->shuffle_bytes, kRecords * wl::kTeraRecordSize);
}

TEST_F(EngineStressTest, SequentialJobsReuseRunnerAndPlugin) {
  ASSERT_TRUE(wl::GenerateText(*dfs_, "/text", 3000, 8, 500, 5).ok());
  shuffle::JbsShufflePlugin plugin;
  mr::LocalJobRunner::Options options;
  options.dfs = dfs_.get();
  options.plugin = &plugin;
  options.work_dir = root_ / "work";
  options.num_nodes = 3;
  mr::LocalJobRunner runner(options);

  uint64_t previous_words = 0;
  for (int round = 0; round < 3; ++round) {
    auto result = runner.Run(wl::WordCountJob(
        "/text", "/out/round" + std::to_string(round), 4));
    ASSERT_TRUE(result.ok()) << "round " << round << ": "
                             << result.status().ToString();
    if (round == 0) {
      previous_words = result->reduce_output_records;
    } else {
      // Same input, same shuffle machinery: identical results each round.
      EXPECT_EQ(result->reduce_output_records, previous_words);
    }
  }
}

TEST_F(EngineStressTest, WideClusterManyReducers) {
  ASSERT_TRUE(wl::GenerateText(*dfs_, "/text", 6000, 10, 2000, 13).ok());
  shuffle::JbsShufflePlugin plugin;
  mr::LocalJobRunner::Options options;
  options.dfs = dfs_.get();
  options.plugin = &plugin;
  options.work_dir = root_ / "work";
  options.num_nodes = 4;  // datanodes cap locality at 4 logical nodes
  options.map_slots = 2;
  options.reduce_slots = 4;
  mr::LocalJobRunner runner(options);
  auto result = runner.Run(wl::SequenceCountJob("/text", "/out/sc", 16));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->reduce_tasks, 16u);
  EXPECT_EQ(result->output_files.size(), 16u);
  EXPECT_EQ(result->map_input_records, 6000u);
}

TEST_F(EngineStressTest, MixedShufflesOnSameDfsAgree) {
  ASSERT_TRUE(wl::GenerateTuples(*dfs_, "/tuples", 2500, 120, 21).ok());
  auto run = [&](mr::ShufflePlugin& plugin, const std::string& tag) {
    mr::LocalJobRunner::Options options;
    options.dfs = dfs_.get();
    options.plugin = &plugin;
    options.work_dir = root_ / ("work_" + tag);
    options.num_nodes = 3;
    mr::LocalJobRunner runner(options);
    auto result = runner.Run(wl::SelfJoinJob("/tuples", "/out/" + tag, 4));
    EXPECT_TRUE(result.ok());
    std::string all;
    if (result.ok()) {
      for (const auto& file : result->output_files) {
        std::vector<uint8_t> data;
        EXPECT_TRUE(dfs_->ReadFile(file, data).ok());
        all.append(data.begin(), data.end());
      }
    }
    return all;
  };
  shuffle::JbsShufflePlugin tcp;
  shuffle::JbsOptions rdma_options;
  rdma_options.transport = shuffle::TransportKind::kRdma;
  shuffle::JbsShufflePlugin rdma(rdma_options);
  const std::string a = run(tcp, "tcp");
  const std::string b = run(rdma, "rdma");
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace jbs
