// End-to-end shuffle integrity under chaos: a full multi-node shuffle runs
// against a scripted fault schedule (a bit-flip corruption storm, then a
// mixed phase of drops, delays, and silent peers) while one supplier is
// killed mid-shuffle — and must still produce merged output byte-identical
// to the fault-free run. Along the way the per-chunk CRC must reject every
// corrupted chunk before it reaches the merge, the health tracker must
// sentence at least one node to the penalty box and let it back out, and
// replica failover must reroute the dead supplier's segments. The chaos
// seed prints on every run and can be overridden with JBS_CHAOS_SEED.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "jbs/mof_supplier.h"
#include "jbs/net_merger.h"
#include "mapred/ifile.h"
#include "transport/fault_injection.h"

namespace jbs {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

constexpr int kNodes = 3;
constexpr int kMaps = 9;
constexpr int kRecordsPerMap = 400;
// Each supplier node's slow wire (bytes/s): slow enough that every reply
// finds it behind, so every eligible chunk goes out compressed. Only the
// supplier's backlog signal sees the rate; no byte is delayed.
constexpr double kSlowWireBytesPerSec = 256;

uint64_t ChaosSeed() {
  if (const char* env = std::getenv("JBS_CHAOS_SEED")) {
    return std::strtoull(env, nullptr, 0);
  }
  return 0xC7A05D15EA5Eull;  // fixed default: runs are reproducible
}

std::vector<mr::Record> Drain(mr::RecordStream& stream) {
  std::vector<mr::Record> records;
  mr::Record record;
  while (stream.Next(&record)) records.push_back(record);
  return records;
}

class ChaosE2ETest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("chaos_e2e_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    transport_ = net::MakeTcpTransport();
    flaky_ = std::make_unique<net::FaultInjectingTransport>(transport_.get());
    for (int n = 0; n < kNodes; ++n) {
      wires_.push_back(
          std::make_unique<net::FaultInjectingTransport>(transport_.get()));
      wires_.back()->SetSlowWire(kSlowWireBytesPerSec);
    }
    BuildMofs();
    published_.resize(kNodes);
    suppliers_.resize(kNodes);
    ports_.resize(kNodes, 0);
    for (int m = 0; m < kMaps; ++m) {
      // Replication: every map output lives on two nodes, Coded
      // MapReduce-style, so a dead supplier never makes a segment
      // unreachable.
      published_[m % kNodes].push_back(m);
      published_[(m + 1) % kNodes].push_back(m);
    }
    for (int n = 0; n < kNodes; ++n) Boot(n);
  }

  void TearDown() override {
    suppliers_.clear();
    fs::remove_all(dir_);
  }

  void BuildMofs() {
    for (int m = 0; m < kMaps; ++m) {
      mr::MofWriter writer(dir_ / ("mof_" + std::to_string(m)));
      mr::IFileWriter segment;
      for (int r = 0; r < kRecordsPerMap; ++r) {
        // Globally unique keys: the merged order is then fully determined,
        // so fault-free and chaos runs compare byte for byte.
        segment.Append("k" + std::to_string(m) + "_" +
                           std::to_string(100000 + r),
                       "v" + std::to_string(m * kRecordsPerMap + r));
      }
      const uint64_t records = segment.records();
      ASSERT_TRUE(writer.AppendSegment(segment.Finish(), records).ok());
      auto handle = writer.Finish(m, 0);
      ASSERT_TRUE(handle.ok());
      handles_.push_back(*handle);
    }
  }

  /// Starts (or restarts) supplier `node` and publishes its share of the
  /// MOFs. A restarted supplier binds a fresh port.
  void Boot(int node) {
    shuffle::MofSupplier::Options options;
    // Server side is healthy apart from its slow wire.
    options.transport = wires_[node].get();
    // Whole harness runs with negotiated wire compression on, over a wire
    // slow enough that the supplier compresses every eligible chunk: every
    // chaos phase then also corrupts *compressed* chunks, and the CRC
    // (folded over the compressed payload) must catch those before
    // decompression.
    options.wire_compress = true;
    options.wire_compress_min_bytes = 256;  // chunk_size 1024 -> eligible
    auto supplier = std::make_unique<shuffle::MofSupplier>(options);
    ASSERT_TRUE(supplier->Start().ok());
    for (int m : published_[node]) {
      ASSERT_TRUE(supplier->PublishMof(handles_[m]).ok());
    }
    ports_[node] = supplier->port();
    suppliers_[node] = std::move(supplier);
  }

  void Kill(int node) { suppliers_[node].reset(); }

  mr::MofLocation LocationOn(int node, int map) const {
    return {map, node, "127.0.0.1", ports_[node]};
  }

  std::string Key(int node) const {
    return "127.0.0.1:" + std::to_string(ports_[node]);
  }

  /// One location list with both replicas of every map: primary on
  /// m % kNodes, alternate on (m + 1) % kNodes.
  std::vector<mr::MofLocation> ReplicaLocations() const {
    std::vector<mr::MofLocation> locations;
    for (int m = 0; m < kMaps; ++m) {
      locations.push_back(LocationOn(m % kNodes, m));
      locations.push_back(LocationOn((m + 1) % kNodes, m));
    }
    return locations;
  }

  shuffle::NetMerger::Options MergerOptions() {
    shuffle::NetMerger::Options options;
    options.transport = flaky_.get();
    options.chunk_size = 1024;  // many chunks per segment: more wire ops
                                // for the chaos schedule to bite
    options.max_fetch_attempts = 2;
    options.retry_backoff_ms = 1;
    options.max_retry_backoff_ms = 5;
    options.chunk_timeout_ms = 300;  // bounds blackholed receives
    options.max_failovers = 64;      // transient chaos must never exhaust
                                     // a fetch's replica budget
    options.health_penalize_after = 2;
    options.health_penalty_ms = 100;
    options.health_penalty_max_ms = 400;
    return options;
  }

  fs::path dir_;
  std::unique_ptr<net::Transport> transport_;
  std::unique_ptr<net::FaultInjectingTransport> flaky_;
  std::vector<std::unique_ptr<net::FaultInjectingTransport>> wires_;
  std::vector<mr::MofHandle> handles_;
  std::vector<std::vector<int>> published_;  // node -> map tasks it serves
  std::vector<std::unique_ptr<shuffle::MofSupplier>> suppliers_;
  std::vector<uint16_t> ports_;
};

TEST_F(ChaosE2ETest, ShuffleSurvivesCorruptionAndSupplierDeath) {
  const uint64_t seed = ChaosSeed();
  std::cout << "[chaos] seed = 0x" << std::hex << seed << std::dec
            << " (override with JBS_CHAOS_SEED)" << std::endl;

  // Fault-free reference run.
  std::vector<mr::Record> expected;
  {
    shuffle::NetMerger reference(MergerOptions());
    auto stream = reference.FetchAndMerge(0, ReplicaLocations());
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    expected = Drain(**stream);
    reference.Stop();
  }
  ASSERT_EQ(expected.size(),
            static_cast<size_t>(kMaps) * kRecordsPerMap);

  // Chaos run: a corruption storm (every receive flips a bit — the CRC
  // must catch 100% of them), then a mixed phase, then a clean wire so the
  // shuffle can finish.
  flaky_->SetChaosSchedule(
      {
          net::ChaosPhase{.ops = 18, .corrupt_prob = 1.0},
          net::ChaosPhase{.ops = 30,
                          .corrupt_prob = 0.1,
                          .drop_prob = 0.3,
                          .delay_prob = 0.3,
                          .delay_ms = 3,
                          .blackhole_prob = 0.1},
      },
      seed);

  shuffle::NetMerger merger(MergerOptions());
  auto pending = std::async(std::launch::async, [&] {
    return merger.FetchAndMerge(0, ReplicaLocations());
  });

  // While the shuffle runs: watch the penalty box and kill supplier 0 once
  // chunks are flowing (mid-shuffle, not before the first byte).
  std::map<std::string, int> max_state;
  std::map<std::string, bool> came_back;
  bool killed = false;
  const auto give_up = std::chrono::steady_clock::now() + 120s;
  while (pending.wait_for(1ms) != std::future_status::ready) {
    for (int n = 0; n < kNodes; ++n) {
      const std::string key = Key(n);
      const int state = static_cast<int>(merger.node_health(key));
      max_state[key] = std::max(max_state[key], state);
      if (max_state[key] ==
              static_cast<int>(shuffle::NodeState::kPenalized) &&
          state == static_cast<int>(shuffle::NodeState::kHealthy)) {
        came_back[key] = true;  // served a sentence, then recovered
      }
    }
    if (!killed && merger.merger_stats().chunks >= 4) {
      Kill(0);
      killed = true;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "chaos shuffle hung";
  }
  auto stream = pending.get();
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  const std::vector<mr::Record> got = Drain(**stream);

  // Byte-identical output despite corruption and a dead supplier — i.e.
  // zero corrupted chunks reached the merge.
  ASSERT_EQ(got.size(), expected.size());
  EXPECT_TRUE(got == expected) << "merged output diverged from fault-free run";
  EXPECT_TRUE(killed) << "supplier was never killed mid-shuffle";

  const auto stats = merger.merger_stats();
  EXPECT_GT(stats.chunks_corrupt, 0u);  // the CRC actually fired
  EXPECT_GT(stats.chunks_compressed, 0u);  // the wire really was compressed
  EXPECT_GT(flaky_->chaos_corruptions(), 0);
  EXPECT_GT(stats.penalties, 0u);  // somebody served a sentence
  EXPECT_GT(stats.failovers, 0u);  // the dead supplier's maps rerouted

  // At least one SURVIVING node went penalized-and-back: observed in the
  // box during the run, healthy by the end (node 0 is dead and may stay
  // sick — that's the point of killing it).
  bool penalized_and_back = false;
  for (int n = 1; n < kNodes; ++n) {
    const std::string key = Key(n);
    const bool back =
        came_back[key] ||
        (max_state[key] == static_cast<int>(shuffle::NodeState::kPenalized) &&
         merger.node_health(key) == shuffle::NodeState::kHealthy);
    penalized_and_back = penalized_and_back || back;
  }
  EXPECT_TRUE(penalized_and_back)
      << "no surviving node transitioned penalized -> healthy";
  merger.Stop();

  // Supplier restart half of the harness: node 0 comes back on a fresh
  // port and serves its MOFs again on a clean wire.
  flaky_->ClearChaos();
  Boot(0);
  shuffle::NetMerger after(MergerOptions());
  auto revived = after.FetchAndMerge(0, {LocationOn(0, 0)});
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  EXPECT_EQ(Drain(**revived).size(), static_cast<size_t>(kRecordsPerMap));
  after.Stop();
}

TEST_F(ChaosE2ETest, CorruptCompressedChunksDetectedByCrcAndRetried) {
  // Compressed-chunk corruption phase: with wire compression negotiated on
  // every connection, a storm that flips a bit in each received frame is
  // hitting compressed payloads. The chunk CRC folds over the *compressed*
  // bytes, so every flip must be rejected before Decompress ever runs, the
  // chunk refetched, and the merged output stay byte-identical.
  std::vector<mr::Record> expected;
  {
    shuffle::NetMerger reference(MergerOptions());
    auto stream = reference.FetchAndMerge(0, ReplicaLocations());
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    expected = Drain(**stream);
    reference.Stop();
  }
  const auto reference_stats_free_of_corruption =
      expected.size();  // sanity anchor for the chaos run below
  ASSERT_EQ(reference_stats_free_of_corruption,
            static_cast<size_t>(kMaps) * kRecordsPerMap);

  flaky_->SetChaosSchedule({net::ChaosPhase{.ops = 16, .corrupt_prob = 1.0}},
                           ChaosSeed() ^ 0xC033);
  shuffle::NetMerger merger(MergerOptions());
  auto stream = merger.FetchAndMerge(0, ReplicaLocations());
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_TRUE(Drain(**stream) == expected);

  const auto stats = merger.merger_stats();
  EXPECT_GT(stats.chunks_corrupt, 0u);     // CRC rejected the flips...
  EXPECT_GT(stats.chunks_compressed, 0u);  // ...on a compressed wire
  EXPECT_GT(stats.fetch_retries + stats.failovers, 0u);  // and it recovered
  merger.Stop();
}

TEST_F(ChaosE2ETest, CorruptionStormAloneCannotPoisonTheMerge) {
  // Tighter variant without the kill: every receive in the storm is
  // corrupted, and the output must still match — isolating the CRC path
  // from the failover path.
  std::vector<mr::Record> expected;
  {
    shuffle::NetMerger reference(MergerOptions());
    auto stream = reference.FetchAndMerge(0, ReplicaLocations());
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    expected = Drain(**stream);
    reference.Stop();
  }
  flaky_->SetChaosSchedule({net::ChaosPhase{.ops = 12, .corrupt_prob = 1.0}},
                           ChaosSeed());
  shuffle::NetMerger merger(MergerOptions());
  auto stream = merger.FetchAndMerge(0, ReplicaLocations());
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_TRUE(Drain(**stream) == expected);
  EXPECT_GT(merger.merger_stats().chunks_corrupt, 0u);
  merger.Stop();
}

}  // namespace
}  // namespace jbs
