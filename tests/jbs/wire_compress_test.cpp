// Negotiated per-chunk wire compression (DESIGN.md §14): hello handshake,
// supplier-side compression and bail-out, CRC-over-compressed
// ordering, backward compatibility with hello-less clients, and
// end-to-end byte identity through the NetMerger.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>

#include "common/bytes.h"
#include "common/compress.h"
#include "common/rng.h"
#include "jbs/mof_supplier.h"
#include "jbs/net_merger.h"
#include "jbs/protocol.h"
#include "mapred/ifile.h"
#include "mapred/mof.h"
#include "transport/transport.h"

namespace jbs::shuffle {
namespace {

namespace fs = std::filesystem;

class WireCompressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("wire_compress_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    transport_ = net::MakeTcpTransport();
  }
  void TearDown() override {
    suppliers_.clear();
    fs::remove_all(dir_);
  }

  /// A MOF whose segments are long runs of repeated record bodies —
  /// exactly the repetitive sorted-shuffle shape the codec targets.
  mr::MofHandle MakeCompressibleMof(int map_task, int partitions,
                                    int records_per_segment) {
    mr::MofWriter writer(dir_ / ("mof_" + std::to_string(map_task)));
    for (int p = 0; p < partitions; ++p) {
      mr::IFileWriter segment;
      for (int r = 0; r < records_per_segment; ++r) {
        segment.Append("key_" + std::to_string(p) + "_" + std::to_string(r),
                       std::string(120, static_cast<char>('a' + p)));
      }
      const uint64_t n = segment.records();
      EXPECT_TRUE(writer.AppendSegment(segment.Finish(), n).ok());
    }
    auto handle = writer.Finish(map_task, 0);
    EXPECT_TRUE(handle.ok());
    return *handle;
  }

  /// A MOF of pseudo-random record bodies that the codec cannot shrink.
  mr::MofHandle MakeRandomMof(int map_task, int records) {
    mr::MofWriter writer(dir_ / ("mof_" + std::to_string(map_task)));
    Rng rng(0xC0FFEEull + static_cast<uint64_t>(map_task));
    mr::IFileWriter segment;
    for (int r = 0; r < records; ++r) {
      std::string value(120, '\0');
      for (char& c : value) {
        c = static_cast<char>(rng.Next() & 0xFF);
      }
      segment.Append("key_" + std::to_string(r), value);
    }
    const uint64_t n = segment.records();
    EXPECT_TRUE(writer.AppendSegment(segment.Finish(), n).ok());
    auto handle = writer.Finish(map_task, 0);
    EXPECT_TRUE(handle.ok());
    return *handle;
  }

  MofSupplier* MakeSupplier(bool wire_compress = true,
                            bool pipelined = true) {
    MofSupplier::Options options;
    options.transport = transport_.get();
    options.buffer_size = 4096;
    options.buffer_count = 8;
    options.wire_compress = wire_compress;
    options.wire_compress_min_bytes = 64;
    options.pipelined = pipelined;
    suppliers_.push_back(std::make_unique<MofSupplier>(options));
    MofSupplier* supplier = suppliers_.back().get();
    EXPECT_TRUE(supplier->Start().ok());
    return supplier;
  }

  Status SendHello(net::Connection& conn, uint32_t caps) {
    Hello hello;
    hello.caps = caps;
    return conn.Send(EncodeHello(hello));
  }

  struct FetchResult {
    std::vector<uint8_t> segment;  // logical (decompressed) bytes
    int chunks = 0;
    int compressed_chunks = 0;
    uint64_t wire_payload_bytes = 0;
  };

  /// Hand-driven chunked fetch that verifies each chunk's CRC over the
  /// *wire* payload (compressed or not) before decompressing.
  StatusOr<FetchResult> Fetch(net::Connection& conn, int map_task,
                              int partition, uint32_t chunk_ask) {
    FetchResult out;
    uint64_t offset = 0, total = 0;
    bool first = true;
    do {
      FetchRequest request{map_task, partition, offset, chunk_ask};
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
      if ((header->flags & kChunkHasCrc) != 0) {
        // Integrity check BEFORE decompression: the CRC covers the bytes
        // actually on the wire.
        if (ChunkWireCrc(*header, Crc32(data)) != header->crc32) {
          return IoError("chunk CRC mismatch");
        }
      }
      total = header->segment_total;
      ++out.chunks;
      out.wire_payload_bytes += data.size();
      if ((header->flags & kChunkCompressed) != 0) {
        ++out.compressed_chunks;
        auto decoded = Decompress(data);
        JBS_RETURN_IF_ERROR(decoded.status());
        out.segment.insert(out.segment.end(), decoded->begin(),
                           decoded->end());
        offset += decoded->size();
      } else {
        out.segment.insert(out.segment.end(), data.begin(), data.end());
        offset += data.size();
      }
      first = false;
    } while (first || offset < total);
    return out;
  }

  std::vector<uint8_t> DiskSegment(const mr::MofHandle& handle,
                                   int partition) {
    auto reader = mr::MofReader::Open(handle);
    EXPECT_TRUE(reader.ok());
    std::vector<uint8_t> expected;
    EXPECT_TRUE(reader->ReadSegment(partition, expected).ok());
    return expected;
  }

  fs::path dir_;
  std::unique_ptr<net::Transport> transport_;
  std::vector<std::unique_ptr<MofSupplier>> suppliers_;
};

TEST_F(WireCompressTest, AdvertisedClientGetsCompressedByteIdenticalChunks) {
  auto handle = MakeCompressibleMof(0, 2, 60);
  // Both serve modes compress in the disk stage; the serialized ablation
  // then delivers the compressed frame inline.
  for (const bool pipelined : {true, false}) {
    SCOPED_TRACE(pipelined ? "pipelined" : "serialized");
    MofSupplier* supplier = MakeSupplier(/*wire_compress=*/true, pipelined);
    ASSERT_TRUE(supplier->PublishMof(handle).ok());

    auto conn = transport_->Connect("127.0.0.1", supplier->port());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(SendHello(**conn, kCapWireCompression).ok());

    auto fetched = Fetch(**conn, 0, 1, 1 << 16);
    ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
    EXPECT_GT(fetched->compressed_chunks, 0);
    EXPECT_EQ(fetched->segment, DiskSegment(handle, 1));
    // The wire carried fewer payload bytes than the logical segment.
    EXPECT_LT(fetched->wire_payload_bytes, fetched->segment.size());

    const auto stats = supplier->supplier_stats();
    EXPECT_GT(stats.chunks_compressed, 0u);
    EXPECT_GT(stats.bytes_logical, stats.bytes_wire);
    supplier->Stop();
  }
}

TEST_F(WireCompressTest, HellolessClientStillGetsRawChunks) {
  // Backward compatibility: an old (v1) client never sends a hello, so the
  // supplier must serve it exactly as before — raw chunks, valid CRCs.
  MofSupplier* supplier = MakeSupplier();
  auto handle = MakeCompressibleMof(3, 1, 60);
  ASSERT_TRUE(supplier->PublishMof(handle).ok());

  auto conn = transport_->Connect("127.0.0.1", supplier->port());
  ASSERT_TRUE(conn.ok());
  auto fetched = Fetch(**conn, 3, 0, 1 << 16);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_EQ(fetched->compressed_chunks, 0);
  EXPECT_EQ(fetched->segment, DiskSegment(handle, 0));
  EXPECT_EQ(supplier->supplier_stats().chunks_compressed, 0u);
  supplier->Stop();
}

TEST_F(WireCompressTest, KnobOffIgnoresAdvertisement) {
  MofSupplier* supplier = MakeSupplier(/*wire_compress=*/false);
  auto handle = MakeCompressibleMof(1, 1, 60);
  ASSERT_TRUE(supplier->PublishMof(handle).ok());

  auto conn = transport_->Connect("127.0.0.1", supplier->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(SendHello(**conn, kCapWireCompression).ok());
  auto fetched = Fetch(**conn, 1, 0, 1 << 16);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_EQ(fetched->compressed_chunks, 0);
  EXPECT_EQ(fetched->segment, DiskSegment(handle, 0));
  supplier->Stop();
}

TEST_F(WireCompressTest, IncompressibleChunksShipRawViaBailout) {
  auto handle = MakeRandomMof(7, 80);
  for (const bool pipelined : {true, false}) {
    SCOPED_TRACE(pipelined ? "pipelined" : "serialized");
    MofSupplier* supplier = MakeSupplier(/*wire_compress=*/true, pipelined);
    ASSERT_TRUE(supplier->PublishMof(handle).ok());

    auto conn = transport_->Connect("127.0.0.1", supplier->port());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(SendHello(**conn, kCapWireCompression).ok());
    auto fetched = Fetch(**conn, 7, 0, 1 << 16);
    ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
    EXPECT_EQ(fetched->compressed_chunks, 0);
    EXPECT_EQ(fetched->segment, DiskSegment(handle, 0));

    const auto stats = supplier->supplier_stats();
    EXPECT_GT(stats.compress_bailouts, 0u);
    EXPECT_EQ(stats.chunks_compressed, 0u);
    EXPECT_EQ(stats.bytes_logical, stats.bytes_wire);

    // A second fetch tries again and bails out again: still raw, and one
    // more bail-out per chunk.
    auto again = Fetch(**conn, 7, 0, 1 << 16);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again->compressed_chunks, 0);
    EXPECT_EQ(again->segment, DiskSegment(handle, 0));
    const auto stats2 = supplier->supplier_stats();
    EXPECT_EQ(stats2.compress_bailouts, 2 * stats.compress_bailouts);
    EXPECT_EQ(stats2.chunks_compressed, 0u);
    EXPECT_EQ(stats2.bytes_logical, stats2.bytes_wire);
    supplier->Stop();
  }
}

TEST_F(WireCompressTest, RefetchRecompressesByteIdentical) {
  MofSupplier* supplier = MakeSupplier();
  auto handle = MakeCompressibleMof(2, 1, 60);
  ASSERT_TRUE(supplier->PublishMof(handle).ok());

  auto conn = transport_->Connect("127.0.0.1", supplier->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(SendHello(**conn, kCapWireCompression).ok());

  auto first = Fetch(**conn, 2, 0, 1 << 16);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->compressed_chunks, 0);
  const auto after_first = supplier->supplier_stats();
  // Retransmit sweep: every chunk is read and compressed again, and the
  // bytes that come back are the same.
  auto second = Fetch(**conn, 2, 0, 1 << 16);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->segment, first->segment);
  EXPECT_EQ(second->segment, DiskSegment(handle, 0));
  EXPECT_EQ(second->compressed_chunks, first->compressed_chunks);
  const auto after_second = supplier->supplier_stats();
  EXPECT_EQ(after_second.chunks_compressed,
            2 * after_first.chunks_compressed);
  supplier->Stop();
}

TEST_F(WireCompressTest, SegmentCompressedMofIsNeverRecompressed) {
  // A MOF whose segments are already block-compressed on disk ships as
  // stored: kSegmentCompressed set, kChunkCompressed never.
  mr::IFileWriter segment;
  for (int r = 0; r < 200; ++r) {
    segment.Append("key_" + std::to_string(r), std::string(80, 'z'));
  }
  const std::vector<uint8_t> raw = segment.Finish();
  const std::vector<uint8_t> packed = Compress(raw);
  mr::MofWriter writer(dir_ / "mof_precompressed", mr::kMofCompressed);
  ASSERT_TRUE(writer.AppendSegment(packed, 200).ok());
  auto handle = writer.Finish(9, 0);
  ASSERT_TRUE(handle.ok());

  MofSupplier* supplier = MakeSupplier();
  ASSERT_TRUE(supplier->PublishMof(*handle).ok());
  auto conn = transport_->Connect("127.0.0.1", supplier->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(SendHello(**conn, kCapWireCompression).ok());
  auto fetched = Fetch(**conn, 9, 0, 1 << 16);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_EQ(fetched->compressed_chunks, 0);
  EXPECT_EQ(fetched->segment, packed);  // served as stored
  EXPECT_EQ(supplier->supplier_stats().chunks_compressed, 0u);
  supplier->Stop();
}

TEST_F(WireCompressTest, MergerDecompressesEndToEnd) {
  // Full client path: NetMerger advertises by default, supplier
  // compresses, and the merged record stream is identical to a
  // compression-off run.
  MofSupplier* supplier = MakeSupplier();
  MofSupplier* plain = MakeSupplier(/*wire_compress=*/false);
  auto handle = MakeCompressibleMof(0, 2, 80);
  ASSERT_TRUE(supplier->PublishMof(handle).ok());
  ASSERT_TRUE(plain->PublishMof(handle).ok());

  const auto merge_all = [&](MofSupplier* server) {
    NetMerger::Options options;
    options.transport = transport_.get();
    options.chunk_size = 1500;
    NetMerger merger(options);
    std::vector<mr::MofLocation> sources{
        {0, 0, "127.0.0.1", server->port()}};
    auto stream = merger.FetchAndMerge(1, sources);
    EXPECT_TRUE(stream.ok()) << stream.status().ToString();
    std::string flat;
    if (stream.ok()) {
      mr::Record record;
      while ((*stream)->Next(&record)) {
        flat += record.key;
        flat += '=';
        flat += record.value;
        flat += '\n';
      }
      EXPECT_TRUE((*stream)->status().ok());
    }
    const uint64_t compressed_chunks =
        merger.merger_stats().chunks_compressed;
    merger.Stop();
    return std::pair<std::string, uint64_t>{flat, compressed_chunks};
  };

  auto [with_compress, compressed_chunks] = merge_all(supplier);
  auto [without_compress, zero_chunks] = merge_all(plain);
  ASSERT_FALSE(with_compress.empty());
  EXPECT_EQ(with_compress, without_compress);
  EXPECT_GT(compressed_chunks, 0u);
  EXPECT_EQ(zero_chunks, 0u);
  supplier->Stop();
  plain->Stop();
}

TEST_F(WireCompressTest, MultiChunkFetchDecodesIntoTheSegmentWithoutCopies) {
  // Every chunk, a segment's first one included, decodes straight into
  // the segment's mapping: no byte is copied into it.
  MofSupplier* supplier = MakeSupplier();
  auto handle = MakeCompressibleMof(0, 1, 200);
  ASSERT_TRUE(supplier->PublishMof(handle).ok());
  const std::vector<uint8_t> expected = DiskSegment(handle, 0);

  NetMerger::Options options;
  options.transport = transport_.get();
  options.chunk_size = 1500;
  NetMerger merger(options);
  auto stream =
      merger.FetchAndMerge(0, {{0, 0, "127.0.0.1", supplier->port()}});
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  mr::IFileReader reader(expected);
  mr::Record want;
  mr::Record got;
  uint64_t records = 0;
  while (reader.Next(&want)) {
    ASSERT_TRUE((*stream)->Next(&got));
    EXPECT_EQ(got.key, want.key);
    EXPECT_EQ(got.value, want.value);
    ++records;
  }
  EXPECT_FALSE((*stream)->Next(&got));
  EXPECT_TRUE((*stream)->status().ok());
  EXPECT_EQ(records, 200u);

  const NetMerger::MergerStats stats = merger.merger_stats();
  EXPECT_GE(stats.chunks, expected.size() / 1500);
  EXPECT_EQ(stats.chunks_compressed, stats.chunks);
  EXPECT_EQ(stats.bytes_fetched, expected.size());
  EXPECT_EQ(stats.bytes_copied, 0u);
  const std::string series =
      "jbs_netmerger_bytes_copied_total{client=\"netmerger\"} 0\n";
  const std::string text = merger.metrics().DumpText();
  EXPECT_NE(text.find(series), std::string::npos) << text;
  merger.Stop();
  supplier->Stop();
}

}  // namespace
}  // namespace jbs::shuffle
