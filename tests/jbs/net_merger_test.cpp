// NetMerger against real MofSupplier servers ("nodes") over loopback.
#include "jbs/net_merger.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <thread>

#include "common/bytes.h"
#include "common/compress.h"
#include "jbs/mof_supplier.h"
#include "jbs/protocol.h"
#include "jbs/segment_buffer.h"
#include "mapred/ifile.h"
#include "mapred/local_shuffle.h"
#include "transport/fault_injection.h"
#include "transport/rdma_transport.h"
#include "transport/transport.h"

namespace jbs::shuffle {
namespace {

namespace fs = std::filesystem;

class NetMergerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("merger_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    transport_ = net::MakeTcpTransport();
  }
  void TearDown() override {
    suppliers_.clear();
    fs::remove_all(dir_);
  }

  /// Brings up `nodes` suppliers; each node hosts `mofs_per_node` MOFs with
  /// `partitions` sorted segments. Returns the MofLocations. `tweak` may
  /// adjust each supplier's options.
  std::vector<mr::MofLocation> MakeCluster(
      int nodes, int mofs_per_node, int partitions, int records_per_segment,
      const std::function<void(MofSupplier::Options&)>& tweak = nullptr) {
    std::vector<mr::MofLocation> locations;
    int map_task = 0;
    for (int n = 0; n < nodes; ++n) {
      MofSupplier::Options options;
      options.transport = transport_.get();
      options.buffer_size = 2048;
      options.buffer_count = 8;
      if (tweak) tweak(options);
      auto supplier = std::make_unique<MofSupplier>(options);
      EXPECT_TRUE(supplier->Start().ok());
      for (int m = 0; m < mofs_per_node; ++m, ++map_task) {
        mr::MofWriter writer(dir_ / ("mof_" + std::to_string(map_task)));
        for (int p = 0; p < partitions; ++p) {
          mr::IFileWriter segment;
          for (int r = 0; r < records_per_segment; ++r) {
            // Keys interleave across maps so the merge is nontrivial.
            char key[32];
            std::snprintf(key, sizeof(key), "k%05d", r * 100 + map_task);
            segment.Append(key, "v" + std::to_string(map_task));
            expected_[p].emplace(key);
          }
          const uint64_t cnt = segment.records();
          std::vector<uint8_t> bytes = segment.Finish();
          segment_bytes_[p] += bytes.size();
          segment_sizes_[p].push_back(bytes.size());
          EXPECT_TRUE(writer.AppendSegment(bytes, cnt).ok());
        }
        auto handle = writer.Finish(map_task, n);
        EXPECT_TRUE(handle.ok());
        EXPECT_TRUE(supplier->PublishMof(*handle).ok());
        EXPECT_TRUE(oracle_server_->PublishMof(*handle).ok());
        locations.push_back(
            {map_task, n, "127.0.0.1", supplier->port()});
      }
      suppliers_.push_back(std::move(supplier));
    }
    return locations;
  }

  NetMerger MakeMerger(bool consolidate = true, bool round_robin = true,
                       int data_threads = 3) {
    NetMerger::Options options;
    options.transport = transport_.get();
    options.data_threads = data_threads;
    options.chunk_size = 1500;
    options.consolidate = consolidate;
    options.round_robin = round_robin;
    return NetMerger(options);
  }

  /// Asserts the stream is sorted and matches the expected multiset.
  void CheckMerged(mr::RecordStream& stream, int partition,
                   size_t expected_records) {
    mr::Record record;
    std::string last;
    size_t count = 0;
    while (stream.Next(&record)) {
      EXPECT_GE(record.key, last);
      last = record.key;
      ++count;
    }
    EXPECT_TRUE(stream.status().ok());
    EXPECT_EQ(count, expected_records);
    (void)partition;
  }

  fs::path dir_;
  std::unique_ptr<net::Transport> transport_;
  std::vector<std::unique_ptr<MofSupplier>> suppliers_;
  std::map<int, std::multiset<std::string>> expected_;
  std::map<int, uint64_t> segment_bytes_;  // partition -> sum over MOFs
  std::map<int, std::vector<uint64_t>> segment_sizes_;  // partition -> sizes
  // Every MOF is also published to LocalShuffle, the output oracle.
  mr::LocalShufflePlugin oracle_;
  std::unique_ptr<mr::ShuffleServer> oracle_server_ =
      oracle_.CreateServer(0, Config());
};

/// Every record of a stream, and its verdict.
std::vector<mr::Record> DrainAll(mr::RecordStream& stream, Status* status) {
  std::vector<mr::Record> records;
  mr::Record record;
  while (stream.Next(&record)) records.push_back(record);
  *status = stream.status();
  return records;
}

TEST_F(NetMergerTest, MergesAcrossNodesSorted) {
  auto locations = MakeCluster(/*nodes=*/3, /*mofs=*/2, /*partitions=*/2,
                               /*records=*/25);
  auto merger = MakeMerger();
  auto stream = merger.FetchAndMerge(1, locations);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  CheckMerged(**stream, 1, 6 * 25);
  auto stats = merger.merger_stats();
  EXPECT_EQ(stats.fetches, 6u);
  EXPECT_GT(stats.bytes_fetched, 0u);
  merger.Stop();
}

TEST_F(NetMergerTest, ConsolidationUsesOneConnectionPerNode) {
  auto locations = MakeCluster(3, 4, 1, 10);
  auto merger = MakeMerger(/*consolidate=*/true);
  ASSERT_TRUE(merger.FetchAndMerge(0, locations).ok());
  // 12 fetches but only 3 nodes -> exactly 3 dials.
  EXPECT_EQ(merger.merger_stats().connections_opened, 3u);
  merger.Stop();
}

TEST_F(NetMergerTest, NoConsolidationDialsPerFetch) {
  auto locations = MakeCluster(3, 4, 1, 10);
  auto merger = MakeMerger(/*consolidate=*/false);
  ASSERT_TRUE(merger.FetchAndMerge(0, locations).ok());
  EXPECT_EQ(merger.merger_stats().connections_opened, 12u);
  merger.Stop();
}

TEST_F(NetMergerTest, RefetchDoesNotDoubleCountConnectionsOpened) {
  // Regression: consolidated dials used to be counted both by the merger
  // and via the connection-manager miss path, so connections_opened could
  // drift above the number of actual dials. The dial itself (the manager's
  // `dialed` out-param) is now the single authority.
  auto locations = MakeCluster(3, 4, 1, 10);
  auto merger = MakeMerger(/*consolidate=*/true);
  ASSERT_TRUE(merger.FetchAndMerge(0, locations).ok());
  ASSERT_TRUE(merger.FetchAndMerge(0, locations).ok());
  // 24 fetches across two rounds; the second round reuses the 3 cached
  // connections, so exactly 3 dials total.
  EXPECT_EQ(merger.merger_stats().connections_opened, 3u);
  const auto cs = merger.connection_stats();
  // Invariant: every successful dial is a cache miss that didn't fail.
  EXPECT_EQ(cs.misses - cs.dial_failures,
            merger.merger_stats().connections_opened);
  EXPECT_GT(cs.hits, 0u);
  merger.Stop();
}

TEST_F(NetMergerTest, MetricsExpositionCoversFetchPath) {
  auto locations = MakeCluster(2, 2, 1, 10);
  auto merger = MakeMerger();
  ASSERT_TRUE(merger.FetchAndMerge(0, locations).ok());
  merger.Stop();
  const std::string text = merger.metrics().DumpText();
  EXPECT_NE(text.find("shuffle_fetches_total{client=\"netmerger\"} 4"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("shuffle_connections_opened_total"), std::string::npos);
  EXPECT_NE(text.find("shuffle_fetch_latency_ms_count"), std::string::npos);
  EXPECT_NE(text.find("jbs_connmgr_hits"), std::string::npos);
  // Every fetch left a complete trace ending in a merge.
  const auto entries = merger.trace().Snapshot();
  EXPECT_FALSE(entries.empty());
  size_t merged = 0;
  for (const auto& entry : entries) {
    if (entry.event == TraceEvent::kMerged) ++merged;
  }
  EXPECT_EQ(merged, 4u);
}

TEST_F(NetMergerTest, ConcurrentReducersShareMerger) {
  // Two "reducers" on the same node call FetchAndMerge concurrently — the
  // consolidation scenario of §III-C.
  auto locations = MakeCluster(2, 3, 2, 15);
  auto merger = MakeMerger();
  Status s0, s1;
  std::thread r0([&] {
    auto stream = merger.FetchAndMerge(0, locations);
    s0 = stream.status();
    if (stream.ok()) CheckMerged(**stream, 0, 6 * 15);
  });
  std::thread r1([&] {
    auto stream = merger.FetchAndMerge(1, locations);
    s1 = stream.status();
    if (stream.ok()) CheckMerged(**stream, 1, 6 * 15);
  });
  r0.join();
  r1.join();
  EXPECT_TRUE(s0.ok()) << s0.ToString();
  EXPECT_TRUE(s1.ok()) << s1.ToString();
  // Still only one connection per remote node despite 2 reducers.
  EXPECT_EQ(merger.merger_stats().connections_opened, 2u);
  merger.Stop();
}

TEST_F(NetMergerTest, RoundRobinSwitchesNodes) {
  // 400 records make each segment three 1500-byte chunks, so a claim (a
  // node's three segments, at most fetch_window requests) does not finish
  // its node.
  auto locations = MakeCluster(4, 3, 1, 400);
  const auto switches = [&](bool round_robin) {
    auto merger = MakeMerger(/*consolidate=*/true, round_robin,
                             /*data_threads=*/1);
    auto stream = merger.FetchAndMerge(0, locations);
    EXPECT_TRUE(stream.ok()) << stream.status().ToString();
    if (stream.ok()) CheckMerged(**stream, 0, 12 * 400);
    merger.Stop();
    return merger.merger_stats().node_switches;
  };
  // With 1 data thread, RR must alternate nodes: 3 chunk-granular claims
  // per node across 4 nodes yield ~11 switches; key-ordered FIFO drains
  // node by node, 3.
  EXPECT_GE(switches(/*round_robin=*/true), 8u);
  EXPECT_LE(switches(/*round_robin=*/false), 3u);
}

TEST_F(NetMergerTest, EverySegmentsHeadLandsBeforeTheBulk) {
  // 4 nodes x 8 segments of three chunks each, 3 data threads. Claims
  // advance each segment by one chunk and requeue it at the tail, and no
  // later chunk is claimed before every head has landed, so the call
  // returns with at most the claims in flight (data_threads x
  // fetch_window) past the heads. Each supplier's disk takes 5 ms a
  // chunk, so a caller slow to wake cannot watch the bulk land.
  auto locations = MakeCluster(/*nodes=*/4, /*mofs=*/8, /*partitions=*/1,
                               /*records=*/400, [](MofSupplier::Options& o) {
                                 o.disk_bytes_per_sec = 3e5;
                               });
  auto merger = MakeMerger();
  MetricCounter* chunks = merger.metrics().GetCounter(
      "jbs_netmerger_chunks_total", {{"client", "netmerger"}});
  auto stream = merger.FetchAndMerge(0, locations);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  const uint64_t at_return = chunks->value();
  EXPECT_GE(at_return, 32u);
  EXPECT_LE(at_return, 32u + 3 * 4);
  CheckMerged(**stream, 0, 32 * 400);
  merger.Stop();
}

TEST_F(NetMergerTest, RequeuedSegmentsResumeAtTheirCommittedOffset) {
  // Every segment goes back to its node's queue after each step's chunks.
  // Each resumes where it stopped: no chunk is fetched twice, the suppliers
  // serve exactly the bytes fetched, and the merge equals LocalShuffle's.
  auto locations = MakeCluster(/*nodes=*/4, /*mofs=*/3, /*partitions=*/2,
                               /*records=*/700);
  auto merger = MakeMerger();
  std::vector<std::future<std::pair<std::vector<mr::Record>, Status>>> calls;
  for (int partition = 0; partition < 2; ++partition) {
    calls.push_back(std::async(std::launch::async, [&, partition] {
      auto stream = merger.FetchAndMerge(partition, locations);
      Status status = stream.status();
      std::vector<mr::Record> records;
      if (stream.ok()) records = DrainAll(**stream, &status);
      return std::make_pair(std::move(records), status);
    }));
  }
  auto oracle = oracle_.CreateClient(0, Config());
  for (int partition = 0; partition < 2; ++partition) {
    const auto [got, status] = calls[static_cast<size_t>(partition)].get();
    ASSERT_TRUE(status.ok()) << status.ToString();
    auto expected = oracle->FetchAndMerge(partition, locations);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    Status oracle_status;
    EXPECT_EQ(got, DrainAll(**expected, &oracle_status)) << partition;
    EXPECT_TRUE(oracle_status.ok());
  }
  merger.Stop();
  uint64_t want_chunks = 0;
  for (int partition = 0; partition < 2; ++partition) {
    for (const uint64_t size : segment_sizes_[partition]) {
      want_chunks += (size + 1499) / 1500;  // the head is a whole chunk here
    }
  }
  ASSERT_GT(want_chunks, 2u * 12);  // segments span chunks, so they requeue
  const NetMerger::MergerStats stats = merger.merger_stats();
  EXPECT_EQ(stats.chunks, want_chunks);
  EXPECT_EQ(stats.fetches, 24u);
  EXPECT_EQ(stats.fetch_retries, 0u);
  EXPECT_EQ(stats.bytes_fetched, segment_bytes_[0] + segment_bytes_[1]);
  uint64_t served = 0;
  for (const auto& supplier : suppliers_) {
    served += supplier->supplier_stats().bytes_served;
  }
  EXPECT_EQ(served, stats.bytes_fetched);
  EXPECT_EQ(stats.connections_opened, 4u);
}

TEST_F(NetMergerTest, FailedCallEndsTheSegmentsItRequeued) {
  // One of 13 segments is missing. The call fails while the others sit
  // requeued between chunks, held back until every head lands, which now
  // never happens: the call must still end all of them and return.
  auto locations = MakeCluster(/*nodes=*/4, /*mofs=*/3, /*partitions=*/1,
                               /*records=*/400);
  // First in line, so it fails while the other nodes' claims are mid-step.
  locations.insert(locations.begin(),
                   {999, 0, "127.0.0.1", locations[0].port});
  auto merger = MakeMerger();
  auto call = std::async(std::launch::async,
                         [&] { return merger.FetchAndMerge(0, locations); });
  ASSERT_EQ(call.wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "FetchAndMerge still waiting for its requeued segments";
  EXPECT_FALSE(call.get().ok());
  EXPECT_EQ(merger.pending_node_count(), 0u);
  EXPECT_EQ(LiveSegmentMappedBytes(), 0u);
  merger.Stop();
}

TEST_F(NetMergerTest, FifoModeDrainsNodeByNode) {
  auto locations = MakeCluster(4, 3, 1, 10);
  auto merger = MakeMerger(/*consolidate=*/true, /*round_robin=*/false,
                           /*data_threads=*/1);
  ASSERT_TRUE(merger.FetchAndMerge(0, locations).ok());
  EXPECT_LE(merger.merger_stats().node_switches, 3u);
  merger.Stop();
}

TEST_F(NetMergerTest, FetchErrorPropagates) {
  auto locations = MakeCluster(1, 1, 1, 5);
  locations.push_back({999, 0, "127.0.0.1", locations[0].port});  // no MOF
  auto merger = MakeMerger();
  auto stream = merger.FetchAndMerge(0, locations);
  EXPECT_FALSE(stream.ok());
  EXPECT_EQ(merger.merger_stats().fetch_errors, 1u);
  merger.Stop();
}

TEST_F(NetMergerTest, UnreachableNodeFails) {
  auto locations = MakeCluster(1, 1, 1, 5);
  locations.push_back({1, 9, "127.0.0.1", 1});  // nothing listens on port 1
  auto merger = MakeMerger();
  auto stream = merger.FetchAndMerge(0, locations);
  EXPECT_FALSE(stream.ok());
  merger.Stop();
}

TEST_F(NetMergerTest, SegmentMappingsReleaseWhenStreamsDrop) {
  // Fetched segments live in anonymous mappings, which leak checkers do
  // not see: the live count must fall back to zero once the merge stream
  // is gone, and after a failed call.
  auto locations = MakeCluster(2, 2, 1, 40);
  auto merger = MakeMerger();
  ASSERT_EQ(LiveSegmentMappedBytes(), 0u);
  {
    auto stream = merger.FetchAndMerge(0, locations);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    EXPECT_GT(LiveSegmentMappedBytes(), 0u);
    CheckMerged(**stream, 0, 4 * 40);
  }
  EXPECT_EQ(LiveSegmentMappedBytes(), 0u);
  locations.push_back({999, 0, "127.0.0.1", locations[0].port});  // no MOF
  EXPECT_FALSE(merger.FetchAndMerge(0, locations).ok());
  EXPECT_EQ(LiveSegmentMappedBytes(), 0u);
  merger.Stop();
}

TEST_F(NetMergerTest, SegmentPoolWarmsAcrossShufflesAndEmptiesOnStop) {
  auto locations = MakeCluster(2, 2, 1, 40);
  auto merger = MakeMerger();
  ASSERT_EQ(PooledSegmentMappedBytes(), 0u);
  for (int shuffle = 0; shuffle < 3; ++shuffle) {
    auto stream = merger.FetchAndMerge(0, locations);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    CheckMerged(**stream, 0, 4 * 40);
  }
  // Dropped streams parked their mappings; each shuffle reused them, so
  // the pool holds one shuffle's worth, not three.
  const uint64_t pooled = PooledSegmentMappedBytes();
  EXPECT_GT(pooled, 0u);
  EXPECT_LE(pooled, 4 * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE)));
  EXPECT_EQ(LiveSegmentMappedBytes(), 0u);
  const auto gauge = [&](const char* name) {
    return merger.metrics().GetGauge(name, {{"client", "netmerger"}})->value();
  };
  (void)merger.merger_stats();  // refreshes the gauges
  EXPECT_EQ(gauge("jbs_netmerger_segment_pooled_bytes"),
            static_cast<double>(pooled));
  EXPECT_EQ(gauge("jbs_netmerger_segment_live_bytes"), 0.0);
  merger.Stop();
  EXPECT_EQ(LiveSegmentMappedBytes(), 0u);
  EXPECT_EQ(PooledSegmentMappedBytes(), 0u);
  EXPECT_EQ(gauge("jbs_netmerger_segment_pooled_bytes"), 0.0);
  EXPECT_EQ(gauge("jbs_netmerger_segment_live_bytes"), 0.0);
}

TEST_F(NetMergerTest, SupplierConservesLeasesAndBytesInBothServeModes) {
  // Conservation on a raw config: after a shuffle and Stop(), every
  // DataCache buffer is back in the pool, the supplier served exactly the
  // bytes the merger fetched, and no payload byte was copied on the way.
  // Node 0 serves pipelined, node 1 serialized; each gets its own merger.
  int node = 0;
  auto locations = MakeCluster(
      /*nodes=*/2, /*mofs=*/2, /*partitions=*/2, /*records=*/400,
      [&](MofSupplier::Options& options) { options.pipelined = node++ == 0; });
  ASSERT_EQ(suppliers_.size(), 2u);
  for (int n = 0; n < 2; ++n) {
    SCOPED_TRACE(n == 0 ? "pipelined" : "serialized");
    MofSupplier& supplier = *suppliers_[static_cast<size_t>(n)];
    const MetricLabels labels{{"server", "mofsupplier"}};
    const auto gauge = [&](const char* name) {
      return supplier.metrics().GetGauge(name, labels)->value();
    };
    (void)supplier.supplier_stats();  // refreshes the gauges
    const double copied_before = gauge("jbs_serve_bytes_copied_total");
    std::vector<mr::MofLocation> own;
    for (const mr::MofLocation& location : locations) {
      if (location.node == n) own.push_back(location);
    }
    auto merger = MakeMerger();
    for (int p = 0; p < 2; ++p) {
      auto stream = merger.FetchAndMerge(p, own);
      ASSERT_TRUE(stream.ok()) << stream.status().ToString();
      CheckMerged(**stream, p, 2 * 400);
    }
    const uint64_t fetched = merger.merger_stats().bytes_fetched;
    EXPECT_GT(fetched, 2u * 2 * 1500);  // over one chunk per segment
    merger.Stop();
    supplier.Stop();
    EXPECT_EQ(gauge("jbs_mofsupplier_datacache_buffers_in_use"), 0.0);
    EXPECT_EQ(
        supplier.metrics().GetCounter("shuffle_bytes_served_total", labels)
            ->value(),
        fetched);
    EXPECT_EQ(gauge("jbs_serve_bytes_copied_total"), copied_before);
  }
}

TEST_F(NetMergerTest, StreamsOutliveStopAndTheMerger) {
  // A merge stream holds its segment's mapping, and that mapping's pool:
  // draining it after Stop(), or after the merger is gone, must neither
  // touch freed memory nor leave a mapping behind.
  auto locations = MakeCluster(2, 2, 1, 40);
  NetMerger::Options options;
  options.transport = transport_.get();
  options.chunk_size = 1500;
  auto merger = std::make_unique<NetMerger>(options);
  auto after_stop = merger->FetchAndMerge(0, locations);
  auto after_destruction = merger->FetchAndMerge(0, locations);
  ASSERT_TRUE(after_stop.ok() && after_destruction.ok());
  merger->Stop();
  EXPECT_EQ(PooledSegmentMappedBytes(), 0u);
  CheckMerged(**after_stop, 0, 4 * 40);
  after_stop->reset();
  merger.reset();
  CheckMerged(**after_destruction, 0, 4 * 40);
  EXPECT_GT(LiveSegmentMappedBytes(), 0u);
  after_destruction->reset();
  EXPECT_EQ(LiveSegmentMappedBytes(), 0u);
  EXPECT_EQ(PooledSegmentMappedBytes(), 0u);
}

TEST_F(NetMergerTest, RawMultiChunkFetchCopiesOnlyFirstChunks) {
  // Receive in place: after the first chunk of a segment has sized its
  // mapping, every raw chunk lands in it directly. The copy counter sees
  // exactly the first chunk of each segment.
  auto locations = MakeCluster(/*nodes=*/2, /*mofs=*/2, /*partitions=*/1,
                               /*records=*/999);
  NetMerger::Options options;
  options.transport = transport_.get();
  options.chunk_size = 256;  // ~12 KiB segments: dozens of chunks each
  NetMerger merger(options);
  auto stream = merger.FetchAndMerge(0, locations);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  CheckMerged(**stream, 0, 4 * 999);
  merger.Stop();
  std::map<uint64_t, int64_t> first_chunk;  // fetch id -> bytes
  for (const TraceEntry& entry : merger.trace().Snapshot()) {
    if (entry.event == TraceEvent::kChunkReceived) {
      first_chunk.emplace(entry.fetch_id, entry.detail);
    }
  }
  ASSERT_EQ(first_chunk.size(), 4u);
  uint64_t expected = 0;
  for (const auto& [fetch, bytes] : first_chunk) {
    expected += static_cast<uint64_t>(bytes);
  }
  const NetMerger::MergerStats stats = merger.merger_stats();
  EXPECT_EQ(stats.bytes_copied, expected);
  EXPECT_GE(stats.chunks, 4u * 32);
  EXPECT_LE(stats.bytes_copied, stats.bytes_fetched / 32);
  const std::string series =
      "jbs_netmerger_bytes_copied_total{client=\"netmerger\"} ";
  const std::string text = merger.metrics().DumpText();
  EXPECT_NE(text.find(series + std::to_string(expected)), std::string::npos)
      << text;
}

/// A bare ServerEndpoint posing as a supplier: it answers every fetch
/// request with the data reply `forge` builds for it, CRC-stamped so the
/// reply passes integrity checks and only the protocol checks can catch
/// it. The CRC is computed over the reply's own `flags` and offset, so
/// clearing kChunkHasCrc there forges a chunk that is otherwise valid,
/// and so does skewing the offset; `bad_crc` stamps a CRC that fails.
class ForgingSupplier {
 public:
  struct Reply {
    uint64_t segment_total = 0;
    size_t payload_bytes = 0;
    uint32_t flags = kChunkHasCrc;
    bool bad_crc = false;
    uint64_t offset_skew = 0;  // added to the requested offset
    bool silent = false;       // no reply at all
    bool error = false;        // a kFetchError reply instead of data
    bool wire_compress = false;  // payload sent as a compressed chunk
  };
  using Forge = std::function<Reply(const FetchRequest&)>;

  ForgingSupplier(net::Transport& transport, Forge forge)
      : forge_(std::move(forge)) {
    auto endpoint = transport.CreateServer();
    EXPECT_TRUE(endpoint.ok());
    endpoint_ = std::move(endpoint).value();
    net::ServerEndpoint::Handlers handlers;
    handlers.on_frame = [this](net::ConnId conn, Frame frame) {
      const auto request = DecodeRequest(frame);
      if (!request) return;  // the capability hello
      const Reply reply = forge_(*request);
      if (reply.silent) return;
      if (reply.error) {
        (void)endpoint_->SendAsync(
            conn, EncodeError({request->map_task, request->partition,
                               "segment gone"}));
        return;
      }
      FetchDataHeader header;
      header.map_task = request->map_task;
      header.partition = request->partition;
      header.offset = request->offset + reply.offset_skew;
      header.segment_total = reply.segment_total;
      header.flags = reply.flags;
      std::vector<uint8_t> data(reply.payload_bytes, 0x5A);
      if (reply.wire_compress) {
        data = Compress(data);
        header.flags |= kChunkCompressed;
      }
      header.crc32 = ChunkWireCrc(header, Crc32(data));
      if (reply.bad_crc) header.crc32 ^= 1;
      (void)endpoint_->SendAsync(conn, EncodeData(header, data));
    };
    EXPECT_TRUE(endpoint_->Start(handlers).ok());
  }
  ~ForgingSupplier() { endpoint_->Stop(); }

  uint16_t port() const { return endpoint_->port(); }

 private:
  Forge forge_;
  std::unique_ptr<net::ServerEndpoint> endpoint_;
};

/// Fetches map 0 from a forging supplier with 1000-byte chunks and one
/// attempt, and drains the merged stream: a failure after the first chunk
/// ends the stream rather than the FetchAndMerge call. Returns the first
/// failure (and, when asked, the merger's counters and the chunk bytes it
/// verified and committed, once the fetch has ended).
Status FetchFromForger(net::Transport& transport, ForgingSupplier::Forge forge,
                       NetMerger::MergerStats* stats = nullptr,
                       uint64_t* committed = nullptr) {
  ForgingSupplier supplier(transport, std::move(forge));
  NetMerger::Options options;
  options.transport = &transport;
  options.data_threads = 1;
  options.chunk_size = 1000;
  options.max_fetch_attempts = 1;
  NetMerger merger(options);
  auto stream =
      merger.FetchAndMerge(0, {{0, 0, "127.0.0.1", supplier.port()}});
  Status status = stream.status();
  if (stream.ok()) {
    DrainAll(**stream, &status);
    // A stream that fails on its bytes leaves the fetch running: let it
    // end before Stop() cuts it short.
    const auto ended = [&] {
      for (const TraceEntry& entry : merger.trace().Snapshot()) {
        if (entry.event == TraceEvent::kMerged ||
            entry.event == TraceEvent::kFailed) {
          return true;
        }
      }
      return false;
    };
    for (int i = 0; i < 500 && !ended(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  merger.Stop();
  if (stats != nullptr) *stats = merger.merger_stats();
  if (committed != nullptr) {
    // A chunk is traced as received only once it is committed.
    *committed = 0;
    for (const TraceEntry& entry : merger.trace().Snapshot()) {
      if (entry.event == TraceEvent::kChunkReceived) {
        *committed += static_cast<uint64_t>(entry.detail);
      }
    }
  }
  return status;
}

TEST_F(NetMergerTest, ChunkWithoutCrcFlagIsCorrupt) {
  // A single flipped flag bit must not let a payload into the merge
  // unverified: every chunk has to carry its CRC.
  NetMerger::MergerStats stats;
  const Status status = FetchFromForger(
      *transport_,
      [](const FetchRequest&) {
        return ForgingSupplier::Reply{/*segment_total=*/1000, /*bytes=*/1000,
                                      /*flags=*/0};
      },
      &stats);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("CRC"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(stats.chunks_corrupt, 1u);
  EXPECT_EQ(LiveSegmentMappedBytes(), 0u);
}

TEST_F(NetMergerTest, RawChunkPastSegmentTotalIsProtocolBreach) {
  const Status status = FetchFromForger(*transport_, [](const FetchRequest&) {
    return ForgingSupplier::Reply{/*segment_total=*/500, /*bytes=*/800};
  });
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status.ToString();
  EXPECT_EQ(LiveSegmentMappedBytes(), 0u);
}

TEST_F(NetMergerTest, RawChunkOverMaxLenIsProtocolBreach) {
  // Two 2000-byte replies to 1000-byte asks fill the segment exactly, so
  // only the max_len check can catch them.
  const Status status = FetchFromForger(*transport_, [](const FetchRequest&) {
    return ForgingSupplier::Reply{/*segment_total=*/4000, /*bytes=*/2000};
  });
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status.ToString();
}

TEST_F(NetMergerTest, HeadRepliesOverTheHeadAskAreProtocolBreach) {
  // Two nodes and one data thread, so every claim is a step, and 64 KiB
  // chunks, so a segment's first request asks for a 16 KiB head. A reply
  // of 32 KiB to it, raw or as a compressed chunk, breaks that ask.
  for (const bool compressed : {false, true}) {
    std::mutex mu;
    std::vector<uint32_t> asks;
    const ForgingSupplier::Forge forge = [&](const FetchRequest& request) {
      {
        std::lock_guard lock(mu);
        asks.push_back(request.max_len);
      }
      ForgingSupplier::Reply reply{/*segment_total=*/64 * 1024,
                                   /*bytes=*/32 * 1024};
      reply.wire_compress = compressed;
      return reply;
    };
    ForgingSupplier first(*transport_, forge);
    ForgingSupplier second(*transport_, forge);
    NetMerger::Options options;
    options.transport = transport_.get();
    options.data_threads = 1;
    options.chunk_size = 64 * 1024;
    options.max_fetch_attempts = 1;
    NetMerger merger(options);
    const auto stream = merger.FetchAndMerge(
        0, {{0, 0, "127.0.0.1", first.port()},
            {1, 1, "127.0.0.1", second.port()}});
    merger.Stop();
    const Status& status = stream.status();
    EXPECT_EQ(status.code(), StatusCode::kInternal) << status.ToString();
    EXPECT_NE(status.message().find(compressed
                                        ? "compressed chunk overruns the "
                                          "requested max_len"
                                        : "exceeds the requested max_len"),
              std::string::npos)
        << status.ToString();
    std::lock_guard lock(mu);
    ASSERT_FALSE(asks.empty());
    EXPECT_EQ(asks.front(), 16u * 1024);
    EXPECT_EQ(LiveSegmentMappedBytes(), 0u);
  }
}

TEST_F(NetMergerTest, SegmentTotalChangingMidSegmentIsProtocolBreach) {
  const Status status =
      FetchFromForger(*transport_, [](const FetchRequest& request) {
        // The first reply announces 3000 bytes, every later one 5000.
        const uint64_t total = request.offset == 0 ? 3000 : 5000;
        return ForgingSupplier::Reply{total, /*bytes=*/1000};
      });
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status.ToString();
  EXPECT_NE(status.message().find("segment_total"), std::string::npos)
      << status.ToString();
}

TEST_F(NetMergerTest, ForgedHugeSegmentTotalIsResourceExhausted) {
  // 2^62 bytes cannot be mapped: the fetch fails cleanly instead of
  // throwing out of the data thread.
  const Status status = FetchFromForger(*transport_, [](const FetchRequest&) {
    return ForgingSupplier::Reply{uint64_t{1} << 62, /*bytes=*/1000};
  });
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
      << status.ToString();
  EXPECT_EQ(LiveSegmentMappedBytes(), 0u);
  EXPECT_EQ(PooledSegmentMappedBytes(), 0u);
}

/// The transports a chunk can be received in place on: TCP (recv(2) into
/// the segment), SoftRdma (one copy out of the posted region) and the
/// fault injector forwarding placement to TCP.
class PlacedReceiveTransports {
 public:
  PlacedReceiveTransports()
      : tcp_(net::MakeTcpTransport()),
        rdma_(net::MakeSoftRdmaTransport()),
        faults_(tcp_.get()) {}
  std::vector<net::Transport*> all() {
    return {tcp_.get(), rdma_.get(), &faults_};
  }
  net::FaultInjectingTransport& faults() { return faults_; }

 private:
  std::unique_ptr<net::Transport> tcp_;
  std::unique_ptr<net::Transport> rdma_;
  net::FaultInjectingTransport faults_;
};

TEST_F(NetMergerTest, SecondChunkBadCrcFailsBeforeCommit) {
  PlacedReceiveTransports transports;
  for (net::Transport* transport : transports.all()) {
    NetMerger::MergerStats stats;
    uint64_t committed = 0;
    const Status status = FetchFromForger(
        *transport,
        [](const FetchRequest& request) {
          ForgingSupplier::Reply reply{/*segment_total=*/3000,
                                       /*bytes=*/1000};
          reply.bad_crc = request.offset == 1000;
          return reply;
        },
        &stats, &committed);
    EXPECT_FALSE(status.ok()) << transport->name();
    EXPECT_NE(status.message().find("CRC"), std::string::npos)
        << transport->name() << ": " << status.ToString();
    EXPECT_EQ(stats.chunks_corrupt, 1u) << transport->name();
    EXPECT_EQ(committed, 1000u) << transport->name();
    EXPECT_EQ(LiveSegmentMappedBytes(), 0u);
  }
}

TEST_F(NetMergerTest, SecondChunkWrongOffsetIsOutOfSequence) {
  PlacedReceiveTransports transports;
  for (net::Transport* transport : transports.all()) {
    uint64_t committed = 0;
    const Status status = FetchFromForger(
        *transport,
        [](const FetchRequest& request) {
          ForgingSupplier::Reply reply{/*segment_total=*/3000,
                                       /*bytes=*/1000};
          if (request.offset == 1000) reply.offset_skew = 1000;
          return reply;
        },
        nullptr, &committed);
    EXPECT_EQ(status.code(), StatusCode::kInternal)
        << transport->name() << ": " << status.ToString();
    EXPECT_NE(status.message().find("out of sequence"), std::string::npos)
        << transport->name() << ": " << status.ToString();
    EXPECT_EQ(committed, 1000u) << transport->name();
  }
}

TEST_F(NetMergerTest, ChaosFlipInPlacedChunkIsCaughtBeforeCommit) {
  // The injector's bit flip reaches chunks received in place: the second
  // chunk's receive is corrupted, and its CRC check rejects it before a
  // byte of it joins the segment.
  PlacedReceiveTransports transports;
  transports.faults().SetChaosSchedule(
      {net::ChaosPhase{.ops = 1}, net::ChaosPhase{.ops = 1, .corrupt_prob = 1}},
      /*seed=*/21);
  NetMerger::MergerStats stats;
  uint64_t committed = 0;
  const Status status = FetchFromForger(
      transports.faults(),
      [](const FetchRequest&) {
        return ForgingSupplier::Reply{/*segment_total=*/3000, /*bytes=*/1000};
      },
      &stats, &committed);
  EXPECT_EQ(transports.faults().chaos_corruptions(), 1);
  EXPECT_NE(status.message().find("CRC"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(stats.chunks_corrupt, 1u);
  EXPECT_EQ(committed, 1000u);
}

TEST_F(NetMergerTest, PlacedChunksReassembleTheSegmentOnEveryTransport) {
  PlacedReceiveTransports transports;
  for (net::Transport* transport : transports.all()) {
    NetMerger::MergerStats stats;
    uint64_t committed = 0;
    // 5000 bytes of 0x5A: not an IFile, so the merge fails on its last
    // record — but only after every chunk was fetched and committed.
    (void)FetchFromForger(
        *transport,
        [](const FetchRequest&) {
          return ForgingSupplier::Reply{/*segment_total=*/5000,
                                        /*bytes=*/1000};
        },
        &stats, &committed);
    EXPECT_EQ(committed, 5000u) << transport->name();
    EXPECT_EQ(stats.chunks, 5u) << transport->name();
    EXPECT_EQ(stats.bytes_copied, 1000u) << transport->name();
  }
}

TEST_F(NetMergerTest, StopUnblocksADrainWaitingMidSegment) {
  // The first chunk lands, then the supplier goes silent: the reader waits
  // in the middle of the segment until Stop() ends the fetch.
  auto tcp = net::MakeTcpTransport();
  auto rdma = net::MakeSoftRdmaTransport();
  for (net::Transport* transport : {tcp.get(), rdma.get()}) {
    ForgingSupplier supplier(*transport, [](const FetchRequest& request) {
      ForgingSupplier::Reply reply{/*segment_total=*/3000, /*bytes=*/1000};
      reply.silent = request.offset > 0;
      return reply;
    });
    NetMerger::Options options;
    options.transport = transport;
    options.chunk_size = 1000;
    NetMerger merger(options);
    auto stream =
        merger.FetchAndMerge(0, {{0, 0, "127.0.0.1", supplier.port()}});
    ASSERT_TRUE(stream.ok()) << transport->name() << ": "
                             << stream.status().ToString();
    auto drain = std::async(std::launch::async, [&] {
      Status status;
      const size_t records = DrainAll(**stream, &status).size();
      return std::make_pair(records, status);
    });
    EXPECT_EQ(drain.wait_for(std::chrono::milliseconds(150)),
              std::future_status::timeout)
        << transport->name() << ": the drain should be waiting for bytes";
    merger.Stop();
    ASSERT_EQ(drain.wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << transport->name() << ": drain still blocked after Stop()";
    const auto [records, status] = drain.get();
    // 0x5A bytes read as 182-byte records: five fit in the first chunk,
    // and the merge hands each out before it reads the next.
    EXPECT_EQ(records, 5u) << transport->name();
    EXPECT_EQ(status.code(), StatusCode::kUnavailable)
        << transport->name() << ": " << status.ToString();
    stream->reset();
    EXPECT_EQ(LiveSegmentMappedBytes(), 0u) << transport->name();
  }
}

TEST_F(NetMergerTest, DroppedConnectionResumesAtTheCommittedOffset) {
  // The connection drops after ~60 of ~140 chunks, with every segment
  // part-read by the merge. The retry asks for the rest of each segment
  // only: no byte is fetched or committed twice, and the merge carries on
  // over the bytes it already read.
  net::FaultInjectingTransport faults(transport_.get());
  auto locations = MakeCluster(/*nodes=*/1, /*mofs=*/3, /*partitions=*/1,
                               /*records=*/999);
  const auto run = [&](net::Transport* transport, NetMerger::MergerStats* stats,
                       Status* status) {
    NetMerger::Options options;
    options.transport = transport;
    options.data_threads = 1;
    options.chunk_size = 256;
    options.retry_backoff_ms = 1;
    NetMerger merger(options);
    auto stream = merger.FetchAndMerge(0, locations);
    EXPECT_TRUE(stream.ok()) << stream.status().ToString();
    std::vector<mr::Record> records;
    if (stream.ok()) records = DrainAll(**stream, status);
    merger.Stop();
    *stats = merger.merger_stats();
    return records;
  };
  NetMerger::MergerStats clean_stats;
  Status clean_status;
  const std::vector<mr::Record> clean =
      run(transport_.get(), &clean_stats, &clean_status);
  ASSERT_TRUE(clean_status.ok()) << clean_status.ToString();
  ASSERT_EQ(clean.size(), 3u * 999);

  const uint64_t served_before = suppliers_[0]->supplier_stats().bytes_served;
  faults.SetChaosSchedule(
      {net::ChaosPhase{.ops = 60}, net::ChaosPhase{.ops = 1, .drop_prob = 1}},
      /*seed=*/5);
  NetMerger::MergerStats stats;
  Status status;
  const std::vector<mr::Record> resumed = run(&faults, &stats, &status);
  EXPECT_EQ(faults.chaos_drops(), 1);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(resumed, clean);  // same records, same order
  EXPECT_GE(stats.fetch_retries, 1u);
  EXPECT_EQ(stats.fetches, 3u);
  EXPECT_EQ(stats.bytes_fetched, segment_bytes_[0]);
  EXPECT_EQ(stats.bytes_fetched, clean_stats.bytes_fetched);
  // Restarting at offset 0 would serve the ~60 committed chunks again;
  // resuming re-serves at most the requests in flight when it dropped.
  const uint64_t served =
      suppliers_[0]->supplier_stats().bytes_served - served_before;
  EXPECT_LE(served, segment_bytes_[0] + 4 * 256);
  EXPECT_EQ(LiveSegmentMappedBytes(), 0u);
}

TEST_F(NetMergerTest, ReplicaReportingAnotherSegmentTotalFailsThatSegment) {
  // The primary serves the first chunk, then loses the segment; the
  // replica's copy has another size, so the bytes the merge already read
  // cannot be continued from it. The segment fails; the merger does not.
  ForgingSupplier primary(*transport_, [](const FetchRequest& request) {
    ForgingSupplier::Reply reply{/*segment_total=*/3000, /*bytes=*/1000};
    reply.error = request.offset > 0;
    return reply;
  });
  ForgingSupplier replica(*transport_, [](const FetchRequest&) {
    return ForgingSupplier::Reply{/*segment_total=*/5000, /*bytes=*/1000};
  });
  NetMerger::Options options;
  options.transport = transport_.get();
  options.chunk_size = 1000;
  NetMerger merger(options);
  auto stream = merger.FetchAndMerge(
      0, {{0, 0, "127.0.0.1", primary.port()},
          {0, 1, "127.0.0.1", replica.port()}});
  // Usually the call returns with the first chunk and the drain meets the
  // failure; the failover can also beat the call's return.
  Status status = stream.status();
  if (stream.ok()) {
    DrainAll(**stream, &status);
    stream->reset();
  }
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status.ToString();
  EXPECT_NE(status.message().find("segment_total"), std::string::npos)
      << status.ToString();
  const NetMerger::MergerStats stats = merger.merger_stats();
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.fetch_errors, 1u);
  EXPECT_EQ(stats.bytes_fetched, 1000u);  // nothing of the replica's copy
  EXPECT_EQ(LiveSegmentMappedBytes(), 0u);
  // Still serving: a fresh fetch of the replica's copy goes through.
  auto again =
      merger.FetchAndMerge(0, {{0, 1, "127.0.0.1", replica.port()}});
  EXPECT_TRUE(again.ok()) << again.status().ToString();
  merger.Stop();
}

/// A supplier whose disk model streams 1 MB/s, so a fetch of the test's
/// ~100 KB partition takes ~100 ms and the merge can overtake it.
void SlowDisk(MofSupplier::Options& options) {
  options.buffer_size = 8192;
  options.disk_bytes_per_sec = 1e6;
}

TEST_F(NetMergerTest, FirstRecordsComeOutWhileChunksAreStillArriving) {
  auto locations = MakeCluster(/*nodes=*/1, /*mofs=*/2, /*partitions=*/1,
                               /*records=*/5000, SlowDisk);
  NetMerger::Options options;
  options.transport = transport_.get();
  options.chunk_size = 4000;
  NetMerger merger(options);
  MetricCounter* chunks = merger.metrics().GetCounter(
      "jbs_netmerger_chunks_total", {{"client", "netmerger"}});
  auto stream = merger.FetchAndMerge(0, locations);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  mr::Record record;
  ASSERT_TRUE((*stream)->Next(&record));
  const uint64_t at_first_record = chunks->value();
  const uint64_t segment_chunks = (segment_bytes_[0] / 2 + 3999) / 4000;
  EXPECT_GE(at_first_record, 2u);  // one per segment, at least
  EXPECT_LT(at_first_record, segment_chunks);
  size_t count = 1;
  while ((*stream)->Next(&record)) ++count;
  EXPECT_TRUE((*stream)->status().ok()) << (*stream)->status().ToString();
  EXPECT_EQ(count, 2u * 5000);
  EXPECT_EQ(chunks->value(), 2 * segment_chunks);
  merger.Stop();
}

TEST_F(NetMergerTest, MergeWaitsCountOnlyTheWaitsThatBlock) {
  // One segment per partition, several chunks each, off a slow disk.
  auto locations = MakeCluster(/*nodes=*/1, /*mofs=*/1, /*partitions=*/2,
                               /*records=*/900, SlowDisk);
  NetMerger::Options options;
  options.transport = transport_.get();
  options.chunk_size = 4000;
  NetMerger merger(options);
  const MetricLabels labels{{"client", "netmerger"}};
  MetricCounter* waits =
      merger.metrics().GetCounter("jbs_netmerger_merge_waits_total", labels);
  MetricCounter* wait_us = merger.metrics().GetCounter(
      "jbs_netmerger_merge_wait_us_total", labels);

  // Partition 0 is drained only once its segment has landed whole: the
  // merge never waits for a byte.
  auto landed = merger.FetchAndMerge(0, locations);
  ASSERT_TRUE(landed.ok()) << landed.status().ToString();
  const auto merged = [&] {
    for (const TraceEntry& entry : merger.trace().Snapshot()) {
      if (entry.event == TraceEvent::kMerged) return true;
    }
    return false;
  };
  for (int i = 0; i < 1000 && !merged(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(merged());
  CheckMerged(**landed, 0, 900);
  EXPECT_EQ(waits->value(), 0u);
  EXPECT_EQ(wait_us->value(), 0u);

  // Partition 1 is drained as it arrives: its chunks after the first come
  // off the disk milliseconds apart, and the merge waits for them.
  auto arriving = merger.FetchAndMerge(1, locations);
  ASSERT_TRUE(arriving.ok()) << arriving.status().ToString();
  CheckMerged(**arriving, 1, 900);
  EXPECT_GT(waits->value(), 0u);
  EXPECT_GT(wait_us->value(), 0u);
  merger.Stop();
}

TEST_F(NetMergerTest, DroppedStreamReleasesItsMappingsOnceItsFetchesEnd) {
  auto locations = MakeCluster(/*nodes=*/1, /*mofs=*/2, /*partitions=*/1,
                               /*records=*/5000, SlowDisk);
  NetMerger::Options options;
  options.transport = transport_.get();
  options.chunk_size = 4000;
  NetMerger merger(options);
  {
    auto stream = merger.FetchAndMerge(0, locations);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    mr::Record record;
    ASSERT_TRUE((*stream)->Next(&record));
    EXPECT_GT(LiveSegmentMappedBytes(), 0u);
  }
  // The conversation stops asking for the dropped segments and ends them
  // once the replies in flight are in.
  for (int i = 0; i < 500 && LiveSegmentMappedBytes() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(LiveSegmentMappedBytes(), 0u);
  const NetMerger::MergerStats stats = merger.merger_stats();
  EXPECT_LT(stats.bytes_fetched, segment_bytes_[0]);
  EXPECT_EQ(stats.fetch_errors, 0u);  // a dropped stream is no failure
  EXPECT_EQ(merger.pending_node_count(), 0u);
  merger.Stop();
}

TEST_F(NetMergerTest, StopUnblocksWorkers) {
  auto merger = MakeMerger();
  merger.Stop();  // no work: must return promptly and not hang
  auto stream = merger.FetchAndMerge(0, {});
  EXPECT_FALSE(stream.ok());
}

}  // namespace
}  // namespace jbs::shuffle
