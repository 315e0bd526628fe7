// Integration tests of the MOFSupplier server against a hand-driven client
// speaking the fetch protocol directly.
#include "jbs/mof_supplier.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <map>

#include "common/bytes.h"
#include "common/rng.h"
#include "jbs/protocol.h"
#include "mapred/ifile.h"
#include "transport/transport.h"

namespace jbs::shuffle {
namespace {

namespace fs = std::filesystem;

class MofSupplierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("supplier_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    transport_ = net::MakeTcpTransport();
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Writes a MOF with `partitions` segments of `records_per_segment`.
  mr::MofHandle MakeMof(int map_task, int partitions,
                        int records_per_segment) {
    mr::MofWriter writer(dir_ / ("mof_" + std::to_string(map_task)));
    for (int p = 0; p < partitions; ++p) {
      mr::IFileWriter segment;
      for (int r = 0; r < records_per_segment; ++r) {
        segment.Append("key_" + std::to_string(p) + "_" + std::to_string(r),
                       std::string(100, static_cast<char>('a' + p)));
      }
      const uint64_t n = segment.records();
      EXPECT_TRUE(writer.AppendSegment(segment.Finish(), n).ok());
    }
    auto handle = writer.Finish(map_task, 0);
    EXPECT_TRUE(handle.ok());
    return *handle;
  }

  MofSupplier MakeSupplier(size_t buffer_size = 4096, bool pipelined = true) {
    MofSupplier::Options options;
    options.transport = transport_.get();
    options.buffer_size = buffer_size;
    options.buffer_count = 8;
    options.pipelined = pipelined;
    return MofSupplier(options);
  }

  /// Runs `body` once per serve mode — the pipelined two-stage path and
  /// the serialized ablation (`pipelined = false`) — each time against a
  /// freshly started supplier with `mofs` published.
  void ForEachServeMode(size_t buffer_size,
                        const std::vector<mr::MofHandle>& mofs,
                        const std::function<void(MofSupplier&)>& body) {
    for (const bool pipelined : {true, false}) {
      SCOPED_TRACE(pipelined ? "pipelined" : "serialized");
      auto supplier = MakeSupplier(buffer_size, pipelined);
      ASSERT_TRUE(supplier.Start().ok());
      for (const mr::MofHandle& mof : mofs) {
        ASSERT_TRUE(supplier.PublishMof(mof).ok());
      }
      body(supplier);
      supplier.Stop();
    }
  }

  /// Full chunked fetch of one segment over one connection.
  StatusOr<std::vector<uint8_t>> Fetch(net::Connection& conn, int map_task,
                                       int partition, uint32_t chunk) {
    std::vector<uint8_t> segment;
    uint64_t offset = 0, total = 0;
    bool first = true;
    do {
      FetchRequest request{map_task, partition, offset, chunk};
      JBS_RETURN_IF_ERROR(conn.Send(EncodeRequest(request)));
      auto reply = conn.Receive();
      JBS_RETURN_IF_ERROR(reply.status());
      if (reply->type == kFetchError) {
        auto error = DecodeError(*reply);
        return IoError(error ? error->message : "?");
      }
      std::span<const uint8_t> data;
      auto header = DecodeData(*reply, &data);
      if (!header) return IoError("bad frame");
      total = header->segment_total;
      segment.insert(segment.end(), data.begin(), data.end());
      offset += data.size();
      first = false;
    } while (first || offset < total);
    return segment;
  }

  fs::path dir_;
  std::unique_ptr<net::Transport> transport_;
};

TEST_F(MofSupplierTest, ServesWholeSegmentInChunks) {
  auto handle = MakeMof(0, 2, 50);
  // Compare against a direct disk read.
  auto reader = mr::MofReader::Open(handle);
  ASSERT_TRUE(reader.ok());
  std::vector<uint8_t> expected;
  ASSERT_TRUE(reader->ReadSegment(1, expected).ok());
  ForEachServeMode(/*buffer_size=*/1024, {handle}, [&](MofSupplier& supplier) {
    auto conn = transport_->Connect("127.0.0.1", supplier.port());
    ASSERT_TRUE(conn.ok());
    auto segment = Fetch(**conn, 0, 1, 900);
    ASSERT_TRUE(segment.ok()) << segment.status().ToString();
    EXPECT_EQ(*segment, expected);
    EXPECT_GT(supplier.supplier_stats().requests, 1u);  // chunked
  });
}

TEST_F(MofSupplierTest, ContentIsValidIFile) {
  ForEachServeMode(4096, {MakeMof(5, 1, 20)}, [&](MofSupplier& supplier) {
    auto conn = transport_->Connect("127.0.0.1", supplier.port());
    ASSERT_TRUE(conn.ok());
    auto segment = Fetch(**conn, 5, 0, 2048);
    ASSERT_TRUE(segment.ok());
    mr::IFileReader records(*segment);
    ASSERT_TRUE(records.VerifyChecksum().ok());
    mr::Record record;
    int count = 0;
    while (records.Next(&record)) ++count;
    EXPECT_TRUE(records.status().ok());
    EXPECT_EQ(count, 20);
  });
}

TEST_F(MofSupplierTest, UnknownMofReturnsError) {
  ForEachServeMode(4096, {}, [&](MofSupplier& supplier) {
    auto conn = transport_->Connect("127.0.0.1", supplier.port());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE((*conn)->Send(EncodeRequest({99, 0, 0, 1024})).ok());
    auto reply = (*conn)->Receive();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, kFetchError);
  });
}

TEST_F(MofSupplierTest, PartitionOutOfRangeReturnsError) {
  ForEachServeMode(4096, {MakeMof(1, 2, 5)}, [&](MofSupplier& supplier) {
    auto conn = transport_->Connect("127.0.0.1", supplier.port());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE((*conn)->Send(EncodeRequest({1, 7, 0, 1024})).ok());
    auto reply = (*conn)->Receive();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, kFetchError);
  });
}

TEST_F(MofSupplierTest, EmptySegmentFetchable) {
  ForEachServeMode(4096, {MakeMof(2, 1, 0)}, [&](MofSupplier& supplier) {
    auto conn = transport_->Connect("127.0.0.1", supplier.port());
    ASSERT_TRUE(conn.ok());
    auto segment = Fetch(**conn, 2, 0, 1024);
    ASSERT_TRUE(segment.ok());
    // An "empty" IFile segment still has the EOF marker + checksum.
    mr::IFileReader records(*segment);
    ASSERT_TRUE(records.VerifyChecksum().ok());
    mr::Record record;
    EXPECT_FALSE(records.Next(&record));
    EXPECT_TRUE(records.status().ok());
  });
}

TEST_F(MofSupplierTest, IndexCacheHitsOnRepeatedFetches) {
  ForEachServeMode(4096, {MakeMof(3, 4, 10)}, [&](MofSupplier& supplier) {
    auto conn = transport_->Connect("127.0.0.1", supplier.port());
    ASSERT_TRUE(conn.ok());
    for (int p = 0; p < 4; ++p) {
      ASSERT_TRUE(Fetch(**conn, 3, p, 64 * 1024).ok());
    }
    auto stats = supplier.supplier_stats();
    EXPECT_EQ(stats.index.misses, 1u);
    EXPECT_GE(stats.index.hits, 3u);
  });
}

TEST_F(MofSupplierTest, ConcurrentClientsAllServed) {
  constexpr int kMofs = 4;
  std::vector<mr::MofHandle> handles;
  std::vector<std::vector<uint8_t>> expected(kMofs);
  for (int m = 0; m < kMofs; ++m) {
    handles.push_back(MakeMof(m, 1, 40));
    auto reader = mr::MofReader::Open(handles.back());
    ASSERT_TRUE(reader->ReadSegment(0, expected[static_cast<size_t>(m)]).ok());
  }
  ForEachServeMode(/*buffer_size=*/2048, handles, [&](MofSupplier& supplier) {
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kMofs; ++c) {
      clients.emplace_back([&, c] {
        auto conn = transport_->Connect("127.0.0.1", supplier.port());
        if (!conn.ok()) {
          ++failures;
          return;
        }
        auto segment = Fetch(**conn, c, 0, 1500);
        if (!segment.ok() || *segment != expected[static_cast<size_t>(c)]) {
          ++failures;
        }
      });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_GE(supplier.supplier_stats().batches, 1u);
  });
}

TEST_F(MofSupplierTest, ServePathCopiesZeroPayloadBytes) {
  // The zero-copy contract end to end: chunk bytes go pread -> pooled
  // buffer -> sendmsg with no user-space payload copy in between, in both
  // serve modes.
  ForEachServeMode(4096, {MakeMof(0, 1, 60)}, [&](MofSupplier& supplier) {
    auto conn = transport_->Connect("127.0.0.1", supplier.port());
    ASSERT_TRUE(conn.ok());
    const uint64_t copied_before = PayloadCopyBytes();
    auto segment = Fetch(**conn, 0, 0, 2048);
    ASSERT_TRUE(segment.ok());
    EXPECT_GT(segment->size(), 4096u);  // several chunks actually moved
    EXPECT_EQ(PayloadCopyBytes(), copied_before);
  });
}

TEST_F(MofSupplierTest, RetransmitSweepIsByteIdenticalAndStamped) {
  auto supplier = MakeSupplier(/*buffer_size=*/4096);
  ASSERT_TRUE(supplier.Start().ok());
  ASSERT_TRUE(supplier.PublishMof(MakeMof(0, 1, 50)).ok());
  auto conn = transport_->Connect("127.0.0.1", supplier.port());
  ASSERT_TRUE(conn.ok());

  // One sweep over the segment; every reply must carry a wire CRC that
  // matches its header and payload.
  const auto sweep = [&]() -> StatusOr<std::vector<uint8_t>> {
    std::vector<uint8_t> segment;
    uint64_t offset = 0, total = 0;
    do {
      JBS_RETURN_IF_ERROR(
          (*conn)->Send(EncodeRequest(FetchRequest{0, 0, offset, 3000})));
      auto reply = (*conn)->Receive();
      JBS_RETURN_IF_ERROR(reply.status());
      std::span<const uint8_t> data;
      auto header = DecodeData(*reply, &data);
      if (!header) return IoError("bad frame");
      if ((header->flags & kChunkHasCrc) == 0) return IoError("no CRC");
      if (header->crc32 != ChunkWireCrc(*header, Crc32(data))) {
        return IoError("CRC mismatch");
      }
      total = header->segment_total;
      segment.insert(segment.end(), data.begin(), data.end());
      offset += data.size();
    } while (offset < total);
    return segment;
  };

  auto first = sweep();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // The retransmit sweep re-reads and re-hashes every chunk: the bytes
  // and stamps match the first sweep and the serve path copies nothing.
  const uint64_t copied_before = PayloadCopyBytes();
  auto second = sweep();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT(first->size(), 4096u);
  EXPECT_EQ(*second, *first);
  EXPECT_EQ(PayloadCopyBytes(), copied_before);
  supplier.Stop();
}

TEST_F(MofSupplierTest, WindowedRepliesKeepEverySegmentInOffsetOrder) {
  // Four disk threads post replies straight to the transport. One
  // connection keeps a window of requests in flight across every segment
  // of several MOFs, deep enough that each MOF group holds more than one
  // batch of a segment's chunks, so the group passes from thread to
  // thread mid-segment: each segment's replies must still arrive in
  // offset order and reassemble byte for byte.
  constexpr int kMofs = 4;
  constexpr int kPartitions = 3;
  constexpr uint32_t kAsk = 1000;
  constexpr size_t kWindow = 48;
  std::vector<mr::MofHandle> handles;
  std::map<std::pair<int, int>, std::vector<uint8_t>> expected;
  for (int m = 0; m < kMofs; ++m) {
    handles.push_back(MakeMof(m, kPartitions, 60));
    auto reader = mr::MofReader::Open(handles.back());
    ASSERT_TRUE(reader.ok());
    for (int p = 0; p < kPartitions; ++p) {
      ASSERT_TRUE(reader->ReadSegment(p, expected[{m, p}]).ok());
    }
  }
  // Each MOF's chunk requests walk its segments in order; the MOFs'
  // request lists are interleaved one request at a time.
  std::vector<std::vector<FetchRequest>> per_mof(kMofs);
  for (const auto& [key, bytes] : expected) {
    for (uint64_t offset = 0; offset < bytes.size(); offset += kAsk) {
      per_mof[static_cast<size_t>(key.first)].push_back(
          {key.first, key.second, offset, kAsk});
    }
  }
  size_t total = 0;
  for (const auto& list : per_mof) total += list.size();
  std::vector<FetchRequest> requests;
  for (size_t i = 0; requests.size() < total; ++i) {
    for (const auto& list : per_mof) {
      if (i < list.size()) requests.push_back(list[i]);
    }
  }
  ASSERT_GT(requests.size(), expected.size() * 4);

  MofSupplier::Options options;
  options.transport = transport_.get();
  options.buffer_size = 2048;
  options.buffer_count = 8;
  options.prefetch_threads = 4;
  MofSupplier supplier(options);
  ASSERT_TRUE(supplier.Start().ok());
  for (const mr::MofHandle& handle : handles) {
    ASSERT_TRUE(supplier.PublishMof(handle).ok());
  }
  auto conn = transport_->Connect("127.0.0.1", supplier.port());
  ASSERT_TRUE(conn.ok());

  std::map<std::pair<int, int>, std::vector<uint8_t>> received;
  size_t sent = 0;
  for (size_t replies = 0; replies < requests.size(); ++replies) {
    while (sent < requests.size() && sent < replies + kWindow) {
      ASSERT_TRUE((*conn)->Send(EncodeRequest(requests[sent++])).ok());
    }
    auto reply = (*conn)->Receive();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    std::span<const uint8_t> data;
    auto header = DecodeData(*reply, &data);
    ASSERT_TRUE(header.has_value());
    std::vector<uint8_t>& segment =
        received[{header->map_task, header->partition}];
    // In offset order: each reply continues exactly where the previous
    // reply of its segment ended.
    ASSERT_EQ(header->offset, segment.size())
        << "map " << header->map_task << " partition " << header->partition;
    segment.insert(segment.end(), data.begin(), data.end());
  }
  EXPECT_EQ(received, expected);
  supplier.Stop();
}

TEST_F(MofSupplierTest, SerializedModeStillCorrect) {
  auto supplier = MakeSupplier(4096, /*pipelined=*/false);
  ASSERT_TRUE(supplier.Start().ok());
  auto handle = MakeMof(0, 1, 30);
  ASSERT_TRUE(supplier.PublishMof(handle).ok());
  auto conn = transport_->Connect("127.0.0.1", supplier.port());
  ASSERT_TRUE(conn.ok());
  auto segment = Fetch(**conn, 0, 0, 64 * 1024);
  ASSERT_TRUE(segment.ok());
  auto reader = mr::MofReader::Open(handle);
  std::vector<uint8_t> expected;
  ASSERT_TRUE(reader->ReadSegment(0, expected).ok());
  EXPECT_EQ(*segment, expected);
  supplier.Stop();
}

}  // namespace
}  // namespace jbs::shuffle
