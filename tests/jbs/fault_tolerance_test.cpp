// Fault tolerance: injected connect failures and mid-fetch connection
// drops must be absorbed by fetch retries; task-level failures must be
// re-executed by the engine.
#include <gtest/gtest.h>

#include <filesystem>

#include "common/failpoints.h"
#include "hdfs/minidfs.h"
#include "jbs/mof_supplier.h"
#include "jbs/net_merger.h"
#include "mapred/engine.h"
#include "mapred/local_shuffle.h"
#include "mapred/ifile.h"
#include "transport/fault_injection.h"

namespace jbs {
namespace {

namespace fs = std::filesystem;

class FaultToleranceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoints::DisarmAll();
    dir_ = fs::temp_directory_path() /
           ("fault_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    real_transport_ = net::MakeTcpTransport();
    flaky_ = std::make_unique<net::FaultInjectingTransport>(
        real_transport_.get());
  }
  void TearDown() override {
    failpoints::DisarmAll();
    suppliers_.clear();
    fs::remove_all(dir_);
  }

  std::vector<mr::MofLocation> MakeSuppliers(int count) {
    std::vector<mr::MofLocation> locations;
    for (int m = 0; m < count; ++m) {
      shuffle::MofSupplier::Options options;
      options.transport = real_transport_.get();  // server side is healthy
      auto supplier = std::make_unique<shuffle::MofSupplier>(options);
      EXPECT_TRUE(supplier->Start().ok());
      mr::MofWriter writer(dir_ / ("mof_" + std::to_string(m)));
      mr::IFileWriter segment;
      for (int r = 0; r < 200; ++r) {
        segment.Append("key_" + std::to_string(r), "value");
      }
      const uint64_t records = segment.records();
      EXPECT_TRUE(writer.AppendSegment(segment.Finish(), records).ok());
      auto handle = writer.Finish(m, 0);
      EXPECT_TRUE(handle.ok());
      EXPECT_TRUE(supplier->PublishMof(*handle).ok());
      locations.push_back({m, 0, "127.0.0.1", supplier->port()});
      suppliers_.push_back(std::move(supplier));
    }
    return locations;
  }

  shuffle::NetMerger MakeMerger(int max_attempts = 3) {
    shuffle::NetMerger::Options options;
    options.transport = flaky_.get();
    options.max_fetch_attempts = max_attempts;
    options.retry_backoff_ms = 1;
    return shuffle::NetMerger(options);
  }

  static size_t Drain(mr::RecordStream& stream) {
    mr::Record record;
    size_t count = 0;
    while (stream.Next(&record)) ++count;
    return count;
  }

  fs::path dir_;
  std::unique_ptr<net::Transport> real_transport_;
  std::unique_ptr<net::FaultInjectingTransport> flaky_;
  std::vector<std::unique_ptr<shuffle::MofSupplier>> suppliers_;
};

TEST_F(FaultToleranceTest, ConnectFailuresAreRetried) {
  auto locations = MakeSuppliers(2);
  // Both first dials fail.
  ASSERT_TRUE(failpoints::Arm("faults.connect", "eagain*2").ok());
  auto merger = MakeMerger();
  auto stream = merger.FetchAndMerge(0, locations);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_EQ(Drain(**stream), 400u);
  EXPECT_GE(merger.merger_stats().fetch_retries, 1u);
  EXPECT_EQ(merger.merger_stats().fetch_errors, 0u);
  merger.Stop();
}

TEST_F(FaultToleranceTest, MidFetchConnectionDropRecovered) {
  auto locations = MakeSuppliers(1);
  // Every send after the first breaks its connection; the fetch needs more
  // chunks than that, so the first attempt breaks mid-conversation.
  ASSERT_TRUE(failpoints::Arm("faults.send", "eio+1").ok());
  shuffle::NetMerger::Options options;
  options.transport = flaky_.get();
  options.chunk_size = 512;  // forces many chunks
  options.max_fetch_attempts = 10;
  options.retry_backoff_ms = 1;
  shuffle::NetMerger merger(options);
  auto stream = merger.FetchAndMerge(0, locations);
  // Every retry breaks on its first send too; with 512-byte chunks the
  // segment cannot arrive in one, so this must exhaust retries and fail
  // cleanly.
  EXPECT_FALSE(stream.ok());
  EXPECT_GE(merger.merger_stats().fetch_retries, 5u);
  merger.Stop();
  // Now heal the transport: the same fetch succeeds.
  failpoints::Disarm("faults.send");
  auto merger2 = MakeMerger();
  auto stream2 = merger2.FetchAndMerge(0, locations);
  ASSERT_TRUE(stream2.ok());
  EXPECT_EQ(Drain(**stream2), 200u);
  merger2.Stop();
}

TEST_F(FaultToleranceTest, PermanentErrorNotRetried) {
  auto locations = MakeSuppliers(1);
  locations[0].map_task = 999;  // unknown MOF -> kFetchError from server
  auto merger = MakeMerger(/*max_attempts=*/5);
  auto stream = merger.FetchAndMerge(0, locations);
  EXPECT_FALSE(stream.ok());
  // A permanent server-side error must not burn retry attempts.
  EXPECT_EQ(merger.merger_stats().fetch_retries, 0u);
  merger.Stop();
}

TEST_F(FaultToleranceTest, RetriesExhaustedReportsError) {
  auto locations = MakeSuppliers(1);
  ASSERT_TRUE(failpoints::Arm("faults.connect", "eagain*100").ok());
  auto merger = MakeMerger(/*max_attempts=*/3);
  auto stream = merger.FetchAndMerge(0, locations);
  EXPECT_FALSE(stream.ok());
  EXPECT_EQ(merger.merger_stats().fetch_errors, 1u);
  EXPECT_EQ(merger.merger_stats().fetch_retries, 2u);
  merger.Stop();
}

/// Shuffle plugin whose clients fail their first FetchAndMerge — drives
/// the engine's reduce-task re-execution.
class FlakyOncePlugin final : public mr::ShufflePlugin {
 public:
  explicit FlakyOncePlugin(mr::ShufflePlugin* inner) : inner_(inner) {}
  std::string name() const override { return "flaky-once"; }
  std::unique_ptr<mr::ShuffleServer> CreateServer(
      int node, const Config& conf) override {
    return inner_->CreateServer(node, conf);
  }
  std::unique_ptr<mr::ShuffleClient> CreateClient(
      int node, const Config& conf) override {
    class Client final : public mr::ShuffleClient {
     public:
      Client(std::unique_ptr<mr::ShuffleClient> inner,
             std::atomic<int>* failures_left)
          : inner_(std::move(inner)), failures_left_(failures_left) {}
      StatusOr<std::unique_ptr<mr::RecordStream>> FetchAndMerge(
          int partition,
          const std::vector<mr::MofLocation>& sources) override {
        int left = failures_left_->load();
        while (left > 0) {
          if (failures_left_->compare_exchange_weak(left, left - 1)) {
            return Unavailable("injected shuffle failure");
          }
        }
        return inner_->FetchAndMerge(partition, sources);
      }
      void Stop() override { inner_->Stop(); }
      Stats stats() const override { return inner_->stats(); }

     private:
      std::unique_ptr<mr::ShuffleClient> inner_;
      std::atomic<int>* failures_left_;
    };
    return std::make_unique<Client>(inner_->CreateClient(node, conf),
                                    &failures_left_);
  }

  std::atomic<int> failures_left_{2};

 private:
  mr::ShufflePlugin* inner_;
};

TEST_F(FaultToleranceTest, EngineReExecutesFailedReduceTasks) {
  hdfs::MiniDfs::Options dopts;
  dopts.root = dir_ / "dfs";
  dopts.num_datanodes = 2;
  dopts.block_size = 4096;
  hdfs::MiniDfs dfs(dopts);
  std::string text;
  for (int i = 0; i < 400; ++i) text += "alpha beta gamma\n";
  ASSERT_TRUE(dfs.WriteFile("/in", AsBytes(text)).ok());

  mr::LocalShufflePlugin local;
  FlakyOncePlugin flaky_plugin(&local);

  mr::JobSpec spec;
  spec.name = "retry-job";
  spec.input_path = "/in";
  spec.output_dir = "/out";
  spec.num_reducers = 2;
  spec.map = [](std::string_view, std::string_view line, mr::Emitter& e) {
    e.Emit(line.substr(0, 5), "1");
  };
  spec.reduce = [](const std::string& key,
                   const std::vector<std::string>& values, mr::Emitter& e) {
    e.Emit(key, std::to_string(values.size()));
  };

  mr::LocalJobRunner::Options options;
  options.dfs = &dfs;
  options.plugin = &flaky_plugin;
  options.work_dir = dir_ / "work";
  options.num_nodes = 2;
  options.max_task_attempts = 3;
  mr::LocalJobRunner runner(options);
  auto result = runner.Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->task_retries, 2u);
  EXPECT_EQ(result->output_files.size(), 2u);
}

TEST_F(FaultToleranceTest, EngineGivesUpAfterMaxAttempts) {
  hdfs::MiniDfs::Options dopts;
  dopts.root = dir_ / "dfs2";
  dopts.num_datanodes = 1;
  hdfs::MiniDfs dfs(dopts);
  ASSERT_TRUE(dfs.WriteFile("/in", AsBytes(std::string("x\n"))).ok());

  mr::LocalShufflePlugin local;
  FlakyOncePlugin always_broken(&local);
  always_broken.failures_left_ = 1000000;

  mr::JobSpec spec;
  spec.input_path = "/in";
  spec.output_dir = "/out";
  spec.num_reducers = 1;
  spec.map = [](std::string_view, std::string_view, mr::Emitter& e) {
    e.Emit("k", "v");
  };
  spec.reduce = [](const std::string&, const std::vector<std::string>&,
                   mr::Emitter&) {};

  mr::LocalJobRunner::Options options;
  options.dfs = &dfs;
  options.plugin = &always_broken;
  options.work_dir = dir_ / "work2";
  options.max_task_attempts = 2;
  mr::LocalJobRunner runner(options);
  auto result = runner.Run(spec);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace jbs
