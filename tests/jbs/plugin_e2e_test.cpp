// End-to-end equivalence: the same job run through the local shuffle, the
// stock-Hadoop HTTP shuffle, JBS-over-TCP, and JBS-over-SoftRdma must
// produce byte-identical output — JBS is a *transparent* plug-in (§III-A).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "baseline/plugin.h"
#include "common/rng.h"
#include "jbs/plugin.h"
#include "mapred/engine.h"
#include "mapred/local_shuffle.h"

namespace jbs {
namespace {

namespace fs = std::filesystem;

/// Sums the values of every exposition line starting with `prefix`
/// (e.g. `shuffle_fetches_total{` sums the counter across instances).
uint64_t SumMetric(const std::string& text, const std::string& prefix) {
  uint64_t sum = 0;
  size_t pos = 0;
  while ((pos = text.find(prefix, pos)) != std::string::npos) {
    const size_t line_end = text.find('\n', pos);
    const std::string line = text.substr(
        pos, line_end == std::string::npos ? std::string::npos
                                           : line_end - pos);
    const size_t space = line.rfind(' ');
    if (space != std::string::npos) {
      sum += std::strtoull(line.c_str() + space + 1, nullptr, 10);
    }
    if (line_end == std::string::npos) break;
    pos = line_end;
  }
  return sum;
}

class PluginE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("plugin_e2e_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    hdfs::MiniDfs::Options dopts;
    dopts.root = root_ / "dfs";
    dopts.num_datanodes = 3;
    dopts.replication = 2;
    dopts.block_size = 8192;
    dfs_ = std::make_unique<hdfs::MiniDfs>(dopts);

    // Deterministic multi-block wordcount input.
    std::string text;
    Rng rng(123);
    const char* words[] = {"jvm",  "bypass", "shuffle", "merge",
                           "rdma", "epoll",  "segment", "mof"};
    for (int i = 0; i < 2500; ++i) {
      text += words[rng.Below(8)];
      text += (i % 6 == 5) ? '\n' : ' ';
    }
    text += '\n';
    ASSERT_TRUE(
        dfs_->WriteFile("/in/text",
                        {reinterpret_cast<const uint8_t*>(text.data()),
                         text.size()})
            .ok());
  }
  void TearDown() override { fs::remove_all(root_); }

  mr::JobSpec WordCount(const std::string& out) {
    mr::JobSpec spec;
    spec.name = "wc";
    spec.input_path = "/in/text";
    spec.output_dir = out;
    spec.num_reducers = 4;
    spec.map = [](std::string_view, std::string_view line, mr::Emitter& e) {
      size_t pos = 0;
      while (pos < line.size()) {
        size_t end = line.find(' ', pos);
        if (end == std::string_view::npos) end = line.size();
        if (end > pos) e.Emit(line.substr(pos, end - pos), "1");
        pos = end + 1;
      }
    };
    spec.reduce = [](const std::string& key,
                     const std::vector<std::string>& values, mr::Emitter& e) {
      e.Emit(key, std::to_string(values.size()));
    };
    return spec;
  }

  /// Runs the wordcount through `plugin` under `conf`; returns the output
  /// and, when asked, the bytes the reducers fetched.
  std::string RunWith(mr::ShufflePlugin& plugin, const std::string& tag,
                      const Config& conf = Config(),
                      uint64_t* shuffle_bytes = nullptr) {
    mr::LocalJobRunner::Options opts;
    opts.dfs = dfs_.get();
    opts.plugin = &plugin;
    opts.conf = conf;
    opts.work_dir = root_ / ("work_" + tag);
    opts.num_nodes = 3;
    opts.map_slots = 2;
    opts.reduce_slots = 2;
    opts.sort_buffer_bytes = 4096;  // force spills
    mr::LocalJobRunner runner(opts);
    auto result = runner.Run(WordCount("/out/" + tag));
    EXPECT_TRUE(result.ok()) << tag << ": " << result.status().ToString();
    if (!result.ok()) return "<failed:" + tag + ">";
    EXPECT_GT(result->shuffle_bytes, 0u) << tag;
    if (shuffle_bytes != nullptr) *shuffle_bytes = result->shuffle_bytes;
    std::string all;
    for (const auto& file : result->output_files) {
      std::vector<uint8_t> data;
      EXPECT_TRUE(dfs_->ReadFile(file, data).ok());
      all.append(data.begin(), data.end());
    }
    return all;
  }

  fs::path root_;
  std::unique_ptr<hdfs::MiniDfs> dfs_;
};

TEST_F(PluginE2eTest, AllShufflesProduceIdenticalOutput) {
  mr::LocalShufflePlugin local;
  const std::string reference = RunWith(local, "local");
  ASSERT_FALSE(reference.empty());

  baseline::HadoopShufflePlugin::Options hopts;
  hopts.spill_dir = root_ / "spills";
  baseline::HadoopShufflePlugin hadoop(hopts);
  EXPECT_EQ(RunWith(hadoop, "hadoop"), reference);

  shuffle::JbsShufflePlugin jbs_tcp;
  EXPECT_EQ(RunWith(jbs_tcp, "jbs_tcp"), reference);

  shuffle::JbsOptions ropts;
  ropts.transport = shuffle::TransportKind::kRdma;
  ropts.buffer_size = 32 * 1024;
  shuffle::JbsShufflePlugin jbs_rdma(ropts);
  EXPECT_EQ(RunWith(jbs_rdma, "jbs_rdma"), reference);
}

TEST_F(PluginE2eTest, RunPopulatesMetricsAndTrace) {
  // A full JBS job publishes client + server series into the plugin's one
  // shared registry, and the trace ring holds complete fetch lifecycles.
  shuffle::JbsShufflePlugin jbs_tcp;
  RunWith(jbs_tcp, "jbs_metrics");
  const std::string text = jbs_tcp.metrics().DumpText();
  EXPECT_GT(SumMetric(text, "shuffle_fetch_latency_ms_count{"), 0u) << text;
  EXPECT_GT(SumMetric(text, "shuffle_fetches_total{"), 0u);
  EXPECT_GT(SumMetric(text, "shuffle_connections_opened_total{"), 0u);
  EXPECT_GT(SumMetric(text, "shuffle_bytes_served_total{"), 0u);
  EXPECT_GT(SumMetric(text, "shuffle_requests_total{"), 0u);
  EXPECT_NE(text.find("jbs_mofsupplier_fdcache_hits{"), std::string::npos);
  EXPECT_NE(text.find("jbs_connmgr_hits{"), std::string::npos);
  // Per-node instances stay distinguishable in the shared registry.
  EXPECT_NE(text.find("instance=\"node0\""), std::string::npos);
  size_t merged = 0;
  for (const auto& entry : jbs_tcp.trace().Snapshot()) {
    if (entry.event == TraceEvent::kMerged) ++merged;
  }
  EXPECT_GT(merged, 0u);

  // The baseline publishes the *same* shuffle_* names under its own
  // client/server labels, so JBS-vs-baseline dumps compare directly.
  baseline::HadoopShufflePlugin::Options hopts;
  hopts.spill_dir = root_ / "spills_metrics";
  baseline::HadoopShufflePlugin hadoop(hopts);
  RunWith(hadoop, "hadoop_metrics");
  const std::string btext = hadoop.metrics().DumpText();
  EXPECT_GT(SumMetric(btext, "shuffle_fetches_total{"), 0u) << btext;
  EXPECT_GT(SumMetric(btext, "shuffle_requests_total{"), 0u);
  EXPECT_NE(btext.find("client=\"mofcopier\""), std::string::npos);
  EXPECT_NE(btext.find("server=\"httpservlet\""), std::string::npos);
}

TEST_F(PluginE2eTest, JbsSmallBuffersStillCorrect) {
  // Tiny transport buffers force heavy chunking (the 8KB end of Fig. 11).
  shuffle::JbsOptions opts;
  opts.buffer_size = 4096;
  shuffle::JbsShufflePlugin tiny(opts);
  mr::LocalShufflePlugin local;
  EXPECT_EQ(RunWith(tiny, "tiny"), RunWith(local, "local_ref"));
}

TEST_F(PluginE2eTest, JbsAblationsStillCorrect) {
  mr::LocalShufflePlugin local;
  const std::string reference = RunWith(local, "local");

  shuffle::JbsOptions no_pipeline;
  no_pipeline.pipelined = false;
  shuffle::JbsShufflePlugin p1(no_pipeline);
  EXPECT_EQ(RunWith(p1, "nopipe"), reference);

  shuffle::JbsOptions no_consolidate;
  no_consolidate.consolidate = false;
  no_consolidate.round_robin = false;
  shuffle::JbsShufflePlugin p2(no_consolidate);
  EXPECT_EQ(RunWith(p2, "nocons"), reference);
}

TEST_F(PluginE2eTest, BaselineWithSpillsMatches) {
  mr::LocalShufflePlugin local;
  const std::string reference = RunWith(local, "local");
  baseline::HadoopShufflePlugin::Options hopts;
  hopts.in_memory_budget = 1024;  // force copier spills + read-back
  hopts.spill_dir = root_ / "spills2";
  baseline::HadoopShufflePlugin hadoop(hopts);
  EXPECT_EQ(RunWith(hadoop, "hadoop_spill"), reference);
}

TEST_F(PluginE2eTest, OptionsFromConfigParsesKeys) {
  // Every key the plugin reads, each set away from its default.
  Config conf;
  conf.Set(conf::kTransport, "rdma");
  conf.Set(conf::kTransportBufferSize, "64KB");
  conf.SetBool(conf::kPipelined, false);
  conf.SetBool(conf::kConsolidate, false);
  conf.SetBool(conf::kRoundRobin, false);
  conf.SetBool(conf::kWireCompressEnabled, true);
  conf.SetBool(conf::kCompressMapOutput, true);
  const auto opts = shuffle::JbsShufflePlugin::OptionsFromConfig(conf);
  EXPECT_EQ(opts.transport, shuffle::TransportKind::kRdma);
  EXPECT_EQ(opts.buffer_size, 64u * 1024);
  EXPECT_FALSE(opts.pipelined);
  EXPECT_FALSE(opts.consolidate);
  EXPECT_FALSE(opts.round_robin);
  EXPECT_TRUE(opts.wire_compress);

  // The seventh key is the engine's: under the same Config the map side
  // writes compressed segments, so the reducers fetch fewer bytes for the
  // same output.
  mr::LocalShufflePlugin local;
  uint64_t raw_bytes = 0;
  const std::string reference = RunWith(local, "local", Config(), &raw_bytes);
  shuffle::JbsShufflePlugin jbs(opts);
  uint64_t compressed_bytes = 0;
  EXPECT_EQ(RunWith(jbs, "jbs_all_keys", conf, &compressed_bytes), reference);
  EXPECT_LT(compressed_bytes, raw_bytes);
}

TEST_F(PluginE2eTest, OptionsFromConfigKeepsDefaultForUnusableBufferSize) {
  const size_t fallback = shuffle::JbsOptions().buffer_size;
  const auto parsed = [](const std::string& value) {
    Config conf;
    conf.Set(conf::kTransportBufferSize, value);
    return shuffle::JbsShufflePlugin::OptionsFromConfig(conf).buffer_size;
  };
  // No room for a payload byte past the 32-byte data header: the chunk
  // size would underflow.
  EXPECT_EQ(parsed("16"), fallback);
  EXPECT_EQ(parsed(std::to_string(shuffle::kDataHeaderSize)), fallback);
  // Past the transports' 64 MiB frame cap (and a 64 GB DataCache).
  EXPECT_EQ(parsed("1GB"), fallback);
  // A negative size falls back too.
  EXPECT_EQ(parsed("-1KB"), fallback);
  // The edges themselves are usable.
  EXPECT_EQ(parsed(std::to_string(shuffle::kDataHeaderSize + 1)),
            shuffle::kDataHeaderSize + 1);
  EXPECT_EQ(parsed("64MB"), 64u * 1024 * 1024);
}

}  // namespace
}  // namespace jbs
