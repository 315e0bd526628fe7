// Concurrency stress of the two-stage pipelined serve path: several MOFs,
// multiple prefetch threads, interleaved windowed multi-chunk fetches.
// Verifies byte-exact segment reassembly, monotonically increasing
// per-(map, partition) reply offsets, drained request groups, and that the
// serialized ablation mode keeps the seed's one-request-per-batch stats.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "jbs/mof_supplier.h"
#include "jbs/net_merger.h"
#include "jbs/protocol.h"
#include "mapred/ifile.h"
#include "transport/transport.h"

namespace jbs::shuffle {
namespace {

namespace fs = std::filesystem;

class PipelineStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pipeline_stress_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    transport_ = net::MakeTcpTransport();
  }
  void TearDown() override { fs::remove_all(dir_); }

  mr::MofHandle MakeMof(int map_task, int partitions,
                        int records_per_segment) {
    mr::MofWriter writer(dir_ / ("mof_" + std::to_string(map_task)));
    for (int p = 0; p < partitions; ++p) {
      mr::IFileWriter segment;
      for (int r = 0; r < records_per_segment; ++r) {
        // Zero-padded keys keep each segment sorted for the k-way merge.
        char key[32];
        std::snprintf(key, sizeof(key), "key_%05d_%d", r, map_task);
        segment.Append(
            key,
            std::string(100, static_cast<char>('a' + (map_task + p) % 26)));
      }
      const uint64_t n = segment.records();
      EXPECT_TRUE(writer.AppendSegment(segment.Finish(), n).ok());
    }
    auto handle = writer.Finish(map_task, 0);
    EXPECT_TRUE(handle.ok());
    return *handle;
  }

  /// Windowed raw-protocol fetch of one segment; asserts every reply
  /// continues the segment at the expected (strictly increasing) offset.
  StatusOr<std::vector<uint8_t>> WindowedFetch(net::Connection& conn,
                                               int map_task, int partition,
                                               uint32_t max_len, int window) {
    std::vector<uint8_t> segment;
    const auto send = [&](uint64_t offset) {
      return conn.Send(EncodeRequest(
          {map_task, partition, offset, max_len}));
    };
    const auto receive = [&](uint64_t expect_offset,
                             uint64_t* total) -> StatusOr<uint64_t> {
      auto reply = conn.Receive();
      JBS_RETURN_IF_ERROR(reply.status());
      if (reply->type == kFetchError) {
        auto error = DecodeError(*reply);
        return IoError(error ? error->message : "undecodable error");
      }
      std::span<const uint8_t> data;
      auto header = DecodeData(*reply, &data);
      if (!header) return IoError("bad data frame");
      // The monotonic-ordering contract: replies for a (map, partition)
      // arrive in exactly the offset order requested, even with several
      // prefetch threads racing.
      if (header->map_task != map_task || header->partition != partition ||
          header->offset != expect_offset) {
        return Internal("reply out of order: got offset " +
                        std::to_string(header->offset) + " want " +
                        std::to_string(expect_offset));
      }
      *total = header->segment_total;
      segment.insert(segment.end(), data.begin(), data.end());
      return static_cast<uint64_t>(data.size());
    };
    JBS_RETURN_IF_ERROR(send(0));
    uint64_t total = 0;
    auto first = receive(0, &total);
    JBS_RETURN_IF_ERROR(first.status());
    uint64_t offset = *first;
    if (offset < total) {
      if (*first == 0) return Internal("no progress");
      const uint64_t stride = *first;
      uint64_t next_send = offset;
      int in_flight = 0;
      while (in_flight < window && next_send < total) {
        JBS_RETURN_IF_ERROR(send(next_send));
        next_send += stride;
        ++in_flight;
      }
      while (offset < total) {
        auto chunk = receive(offset, &total);
        JBS_RETURN_IF_ERROR(chunk.status());
        if (*chunk == 0) return Internal("no progress");
        offset += *chunk;
        --in_flight;
        while (in_flight < window && next_send < total) {
          JBS_RETURN_IF_ERROR(send(next_send));
          next_send += stride;
          ++in_flight;
        }
      }
    }
    return segment;
  }

  fs::path dir_;
  std::unique_ptr<net::Transport> transport_;
};

TEST_F(PipelineStressTest, InterleavedWindowedFetchesReassembleExactly) {
  constexpr int kMofs = 6;
  constexpr int kPartitions = 4;
  constexpr int kClients = 8;

  MofSupplier::Options options;
  options.transport = transport_.get();
  options.buffer_size = 2048;  // ~12 chunks per segment
  options.buffer_count = 8;    // small pool: exercises backpressure
  options.prefetch_threads = 3;
  options.prefetch_batch = 4;
  options.fd_cache_entries = 4;  // smaller than kMofs: exercises eviction
  MofSupplier supplier(options);
  ASSERT_TRUE(supplier.Start().ok());

  std::vector<std::vector<std::vector<uint8_t>>> expected(kMofs);
  for (int m = 0; m < kMofs; ++m) {
    auto handle = MakeMof(m, kPartitions, 200);
    ASSERT_TRUE(supplier.PublishMof(handle).ok());
    auto reader = mr::MofReader::Open(handle);
    ASSERT_TRUE(reader.ok());
    expected[m].resize(kPartitions);
    for (int p = 0; p < kPartitions; ++p) {
      ASSERT_TRUE(reader->ReadSegment(p, expected[m][p]).ok());
    }
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto conn = transport_->Connect("127.0.0.1", supplier.port());
      if (!conn.ok()) {
        ++failures;
        return;
      }
      // Each client walks every (map, partition) pair from a different
      // starting point, so requests interleave heavily across groups.
      for (int i = 0; i < kMofs * kPartitions; ++i) {
        const int idx = (i + c * 5) % (kMofs * kPartitions);
        const int m = idx / kPartitions;
        const int p = idx % kPartitions;
        auto segment =
            WindowedFetch(**conn, m, p, /*max_len=*/4096, /*window=*/5);
        if (!segment.ok() || *segment != expected[m][p]) {
          ADD_FAILURE() << "map " << m << " partition " << p << ": "
                        << segment.status().ToString();
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  const auto stats = supplier.supplier_stats();
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GT(stats.fd.hits, 0u);        // descriptors were reused
  EXPECT_GT(stats.fd.evictions, 0u);   // and the small cache churned
  // Satellite: drained group queues are erased, not leaked.
  EXPECT_EQ(supplier.pending_group_count(), 0u);
  supplier.Stop();
}

TEST_F(PipelineStressTest, NetMergerWindowedFetchOverPipelinedSupplier) {
  MofSupplier::Options options;
  options.transport = transport_.get();
  options.buffer_size = 2048;
  options.buffer_count = 8;
  options.prefetch_threads = 3;
  MofSupplier supplier(options);
  ASSERT_TRUE(supplier.Start().ok());

  constexpr int kMofs = 4;
  std::vector<mr::MofLocation> sources;
  for (int m = 0; m < kMofs; ++m) {
    ASSERT_TRUE(supplier.PublishMof(MakeMof(m, 2, 150)).ok());
    sources.push_back({m, 0, "127.0.0.1", supplier.port()});
  }

  NetMerger::Options merger_options;
  merger_options.transport = transport_.get();
  merger_options.chunk_size = 2048 - kDataHeaderSize;
  merger_options.fetch_window = 4;
  merger_options.data_threads = 2;
  NetMerger merger(merger_options);

  // Two concurrent reducers pull both partitions through the window.
  Status s0, s1;
  std::thread r0([&] {
    auto stream = merger.FetchAndMerge(0, sources);
    s0 = stream.status();
    if (stream.ok()) {
      mr::Record record;
      std::string last;
      size_t count = 0;
      while ((*stream)->Next(&record)) {
        EXPECT_GE(record.key, last);
        last = record.key;
        ++count;
      }
      EXPECT_EQ(count, static_cast<size_t>(kMofs) * 150);
    }
  });
  std::thread r1([&] {
    auto stream = merger.FetchAndMerge(1, sources);
    s1 = stream.status();
    // The segments are still arriving when the call returns: drain, so
    // the fetch counters below see every segment.
    if (stream.ok()) {
      mr::Record record;
      while ((*stream)->Next(&record)) {
      }
      EXPECT_TRUE((*stream)->status().ok()) << (*stream)->status().ToString();
    }
  });
  r0.join();
  r1.join();
  EXPECT_TRUE(s0.ok()) << s0.ToString();
  EXPECT_TRUE(s1.ok()) << s1.ToString();
  const auto mstats = merger.merger_stats();
  EXPECT_EQ(mstats.fetches, 2u * kMofs);
  EXPECT_GT(mstats.chunks, mstats.fetches);  // multi-chunk segments
  merger.Stop();
  supplier.Stop();
}

TEST_F(PipelineStressTest, SerializedModeKeepsSeedBatchSemantics) {
  MofSupplier::Options options;
  options.transport = transport_.get();
  options.buffer_size = 2048;
  options.buffer_count = 8;
  options.pipelined = false;  // ablation: HttpServlet-like service
  MofSupplier supplier(options);
  ASSERT_TRUE(supplier.Start().ok());
  auto handle = MakeMof(0, 1, 120);
  ASSERT_TRUE(supplier.PublishMof(handle).ok());

  auto conn = transport_->Connect("127.0.0.1", supplier.port());
  ASSERT_TRUE(conn.ok());
  // Stop-and-wait (window = 1): the seed's client behavior.
  auto segment = WindowedFetch(**conn, 0, 0, 4096, /*window=*/1);
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();

  auto reader = mr::MofReader::Open(handle);
  ASSERT_TRUE(reader.ok());
  std::vector<uint8_t> expected;
  ASSERT_TRUE(reader->ReadSegment(0, expected).ok());
  EXPECT_EQ(*segment, expected);

  // Seed equivalence: serialized mode serves one request per disk-server
  // turn, so batches == requests, and a single MOF switches groups once.
  const auto stats = supplier.supplier_stats();
  EXPECT_EQ(stats.batches, stats.requests);
  EXPECT_EQ(stats.group_switches, 1u);
  EXPECT_EQ(supplier.pending_group_count(), 0u);
  supplier.Stop();
}

}  // namespace
}  // namespace jbs::shuffle
