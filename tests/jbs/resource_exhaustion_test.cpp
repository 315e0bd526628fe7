// Resource-exhaustion survival driven by the failpoint layer (DESIGN.md
// §16): scripted EIO/EMFILE and short reads at the syscall boundaries —
// fd-cache open(2) and the prefetch-stage pread — must be absorbed at the
// lowest layer that can recover them, and a full shuffle must complete
// byte-identical to the fault-free run. Failpoints are process-global, so
// every reference run happens before arming and every test disarms on
// both ends.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "common/failpoints.h"
#include "common/fd_cache.h"
#include "jbs/mof_supplier.h"
#include "jbs/net_merger.h"
#include "mapred/ifile.h"
#include "transport/transport.h"

namespace jbs {
namespace {

namespace fs = std::filesystem;

constexpr int kRecordsPerMap = 400;

std::vector<mr::Record> Drain(mr::RecordStream& stream) {
  std::vector<mr::Record> records;
  mr::Record record;
  while (stream.Next(&record)) records.push_back(record);
  return records;
}

class ResourceExhaustionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoints::DisarmAll();
    dir_ = fs::temp_directory_path() /
           ("resource_exhaustion_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    transport_ = net::MakeTcpTransport();
  }
  void TearDown() override {
    failpoints::DisarmAll();
    suppliers_.clear();
    fs::remove_all(dir_);
  }

  mr::MofHandle MakeMof(int map_task) {
    mr::MofWriter writer(dir_ / ("mof_" + std::to_string(map_task)));
    mr::IFileWriter segment;
    for (int r = 0; r < kRecordsPerMap; ++r) {
      // Globally unique keys: merged order is fully determined, so the
      // fault run compares record for record against the reference.
      segment.Append("k" + std::to_string(map_task) + "_" +
                         std::to_string(100000 + r),
                     "v" + std::to_string(map_task * kRecordsPerMap + r));
    }
    const uint64_t records = segment.records();
    EXPECT_TRUE(writer.AppendSegment(segment.Finish(), records).ok());
    auto handle = writer.Finish(map_task, 0);
    EXPECT_TRUE(handle.ok());
    return *handle;
  }

  shuffle::MofSupplier* Boot(shuffle::MofSupplier::Options options,
                             const std::vector<mr::MofHandle>& handles) {
    options.transport = transport_.get();
    auto supplier = std::make_unique<shuffle::MofSupplier>(options);
    EXPECT_TRUE(supplier->Start().ok());
    for (const auto& handle : handles) {
      EXPECT_TRUE(supplier->PublishMof(handle).ok());
    }
    suppliers_.push_back(std::move(supplier));
    return suppliers_.back().get();
  }

  shuffle::NetMerger::Options MergerOptions() {
    shuffle::NetMerger::Options options;
    options.transport = transport_.get();
    options.chunk_size = 1024;  // many chunks: many failpoint hits per fetch
    options.fetch_window = 1;   // stop-and-wait: one reply per conversation
                                // turn, so busy/error accounting is exact
    options.retry_backoff_ms = 1;
    options.max_retry_backoff_ms = 5;
    return options;
  }

  std::vector<mr::Record> Reference(const std::vector<mr::MofLocation>& locs) {
    shuffle::NetMerger reference(MergerOptions());
    auto stream = reference.FetchAndMerge(0, locs);
    EXPECT_TRUE(stream.ok()) << stream.status().ToString();
    std::vector<mr::Record> expected = Drain(**stream);
    reference.Stop();
    return expected;
  }

  fs::path dir_;
  std::unique_ptr<net::Transport> transport_;
  std::vector<std::unique_ptr<shuffle::MofSupplier>> suppliers_;
};

// --- fd-cache errno classification (unit level) ---

TEST_F(ResourceExhaustionTest, EmfileEvictsOldestDescriptorAndRetries) {
  FdCache cache(4);
  const fs::path a = dir_ / "a";
  const fs::path b = dir_ / "b";
  { std::ofstream(a) << "aa"; std::ofstream(b) << "bb"; }
  ASSERT_TRUE(cache.Open(a.string()).ok());  // warm: a victim exists

  // One EMFILE, then the table "clears": the cache must free its own LRU
  // descriptor and retry rather than failing the request.
  ASSERT_TRUE(failpoints::Arm("fdcache.open", "emfile*1").ok());
  auto reopened = cache.Open(b.string());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(cache.stats().emergency_evictions, 1u);
  EXPECT_EQ(cache.stats().open_failures, 0u);
  EXPECT_EQ(cache.size(), 1u);  // `a` was sacrificed
}

TEST_F(ResourceExhaustionTest, EmfileWithNothingToEvictIsResourceExhausted) {
  FdCache cache(4);  // empty: no victim to free
  const fs::path a = dir_ / "a";
  { std::ofstream(a) << "aa"; }
  ASSERT_TRUE(failpoints::Arm("fdcache.open", "emfile").ok());
  auto result = cache.Open(a.string());
  ASSERT_FALSE(result.ok());
  // EMFILE classifies as retryable exhaustion — distinct from the fatal
  // kNotFound of a vanished MOF and the generic kIoError.
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(cache.stats().open_failures, 1u);
  EXPECT_EQ(cache.stats().emergency_evictions, 0u);
}

// --- prefetch-stage pread faults ---

TEST_F(ResourceExhaustionTest, MidStreamPreadEioRecoveredServerSide) {
  shuffle::MofSupplier* supplier = Boot({}, {MakeMof(0)});
  const std::vector<mr::MofLocation> locs = {
      {0, 0, "127.0.0.1", supplier->port()}};
  const std::vector<mr::Record> expected = Reference(locs);
  ASSERT_EQ(expected.size(), static_cast<size_t>(kRecordsPerMap));

  // EIO on the 3rd pread, once: the supplier's bounded retry (invalidate
  // the descriptor, reopen, pread again) must absorb it — the merger never
  // learns a disk fault happened mid-stream.
  ASSERT_TRUE(failpoints::Arm("supplier.pread", "eio+2*1").ok());
  shuffle::NetMerger merger(MergerOptions());
  auto stream = merger.FetchAndMerge(0, locs);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_TRUE(Drain(**stream) == expected);

  EXPECT_EQ(failpoints::FireCount("supplier.pread"), 1u);
  EXPECT_GE(failpoints::HitCount("supplier.pread"), 4u);  // incl. the retry
  const auto stats = merger.merger_stats();
  EXPECT_EQ(stats.fetch_retries, 0u);
  EXPECT_EQ(stats.fetch_errors, 0u);
  merger.Stop();
}

TEST_F(ResourceExhaustionTest, ShortReadsAreTransparentlyCompleted) {
  shuffle::MofSupplier* supplier = Boot({}, {MakeMof(0)});
  const std::vector<mr::MofLocation> locs = {
      {0, 0, "127.0.0.1", supplier->port()}};
  const std::vector<mr::Record> expected = Reference(locs);

  // Every pread returns at most 3 bytes: the read loop must keep going
  // until the chunk is complete, never serving a torn buffer.
  ASSERT_TRUE(failpoints::Arm("supplier.pread", "short:3").ok());
  shuffle::NetMerger merger(MergerOptions());
  auto stream = merger.FetchAndMerge(0, locs);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_TRUE(Drain(**stream) == expected);
  EXPECT_GT(failpoints::FireCount("supplier.pread"), 100u);
  EXPECT_EQ(merger.merger_stats().fetch_errors, 0u);
  merger.Stop();
}

TEST_F(ResourceExhaustionTest, PersistentPreadFailureFailsOverToReplica) {
  const mr::MofHandle mof = MakeMof(0);
  shuffle::MofSupplier* primary = Boot({}, {mof});
  shuffle::MofSupplier* replica = Boot({}, {mof});
  const std::vector<mr::MofLocation> both = {
      {0, 0, "127.0.0.1", primary->port()},
      {0, 1, "127.0.0.1", replica->port()}};
  const std::vector<mr::Record> expected = Reference(both);

  // Both pread attempts of the primary's first chunk fail (the failpoint
  // registry is process-global, so cap at 2 fires to spare the replica):
  // the request errors, and the merger must reroute to the replica
  // instead of failing the reduce.
  ASSERT_TRUE(failpoints::Arm("supplier.pread", "eio*2").ok());
  auto options = MergerOptions();
  options.max_fetch_attempts = 1;  // exhaust the sick primary quickly
  shuffle::NetMerger merger(options);
  auto stream = merger.FetchAndMerge(0, both);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_TRUE(Drain(**stream) == expected);
  EXPECT_EQ(failpoints::FireCount("supplier.pread"), 2u);
  EXPECT_GE(merger.merger_stats().failovers, 1u);
  EXPECT_GE(primary->supplier_stats().errors, 1u);
  merger.Stop();
}

// --- EMFILE storm across a replicated multi-node shuffle ---

TEST_F(ResourceExhaustionTest, EmfileStormDuringShuffleSurvives) {
  constexpr int kNodes = 3;
  // 3 primary MOFs per node: strictly more than the 2-entry fd cache, so
  // the storm run keeps cycling files through the cache and reaching
  // open(2) instead of riding reference-run-warmed hits.
  constexpr int kMaps = 9;
  std::vector<mr::MofHandle> handles;
  handles.reserve(kMaps);
  for (int m = 0; m < kMaps; ++m) handles.push_back(MakeMof(m));

  // Every map output on two nodes, chaos-e2e style, so a request that
  // exhausts its attempts on one storm-struck supplier can fail over.
  std::vector<std::vector<mr::MofHandle>> published(kNodes);
  std::vector<mr::MofLocation> locations;
  for (int m = 0; m < kMaps; ++m) {
    published[m % kNodes].push_back(handles[m]);
    published[(m + 1) % kNodes].push_back(handles[m]);
  }
  std::vector<shuffle::MofSupplier*> nodes;
  for (int n = 0; n < kNodes; ++n) {
    shuffle::MofSupplier::Options sopts;
    // Smaller than the per-supplier working set (4 MOF files), so the
    // storm run keeps missing the cache and actually reaching open(2) —
    // at capacity >= the working set, the warm cache would serve every
    // request without a single syscall to fail.
    sopts.fd_cache_entries = 2;
    nodes.push_back(Boot(sopts, published[n]));
  }
  for (int m = 0; m < kMaps; ++m) {
    locations.push_back({m, m % kNodes, "127.0.0.1",
                         nodes[m % kNodes]->port()});
    locations.push_back({m, (m + 1) % kNodes, "127.0.0.1",
                         nodes[(m + 1) % kNodes]->port()});
  }
  // The reference run also warms every fd cache, so storm-time EMFILEs
  // find victims to evict.
  const std::vector<mr::Record> expected = Reference(locations);
  ASSERT_EQ(expected.size(), static_cast<size_t>(kMaps) * kRecordsPerMap);

  // Seeded probabilistic storm: 40% of opens hit EMFILE, 30 fires total,
  // spread across all three suppliers (the registry is process-global).
  failpoints::SetSeed(7);
  ASSERT_TRUE(failpoints::Arm("fdcache.open", "emfile%40*30").ok());
  auto options = MergerOptions();
  options.max_fetch_attempts = 4;
  options.max_failovers = 16;
  options.health_penalty_ms = 20;  // sentences expire within the test
  options.health_penalty_max_ms = 100;
  shuffle::NetMerger merger(options);
  auto stream = merger.FetchAndMerge(0, locations);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_TRUE(Drain(**stream) == expected);

  EXPECT_GT(failpoints::FireCount("fdcache.open"), 0u);
  uint64_t emergency_evictions = 0;
  uint64_t shed = 0;
  for (auto* node : nodes) {
    const auto stats = node->supplier_stats();
    emergency_evictions += stats.fd.emergency_evictions;
    shed += stats.shed;
  }
  // Warm caches mean the first EMFILE on each supplier finds a victim.
  EXPECT_GT(emergency_evictions, 0u);
  // An fd storm is exhaustion, not admission overload: nothing sheds.
  EXPECT_EQ(shed, 0u);
  merger.Stop();
}

}  // namespace
}  // namespace jbs
