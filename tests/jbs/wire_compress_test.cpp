// Negotiated per-chunk wire compression (DESIGN.md §14): hello handshake,
// supplier-side compression and bail-out, CRC-over-compressed
// ordering, backward compatibility with hello-less clients, and
// end-to-end byte identity through the NetMerger.
//
// The supplier compresses only while its wire is behind, so the fixture's
// suppliers sit on a slow wire (FaultInjectingTransport::SetSlowWire) where
// every reply, a stop-and-wait client's included, finds bytes queued ahead
// of it. Tests of the rule itself also run a supplier on a clean wire.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <thread>

#include "common/bytes.h"
#include "common/config.h"
#include "common/compress.h"
#include "common/rng.h"
#include "jbs/mof_supplier.h"
#include "jbs/net_merger.h"
#include "jbs/protocol.h"
#include "mapred/ifile.h"
#include "mapred/local_shuffle.h"
#include "mapred/mof.h"
#include "transport/fault_injection.h"
#include "transport/socket_util.h"
#include "transport/transport.h"

namespace jbs::shuffle {
namespace {

namespace fs = std::filesystem;

// A wire this slow never pays off a test's bytes, and even a lone request's
// own 30-odd bytes keep it busy for over 100 ms: every reply finds it
// behind. Nothing is delayed; only the backlog signal sees the rate.
constexpr double kSlowWireBytesPerSec = 256;

/// A user-space link between a client and a server: bytes from the server
/// cross it at `bytes_per_sec`, requests pass straight through. The relay
/// reads the server with a small receive buffer, so what the link has not
/// carried yet waits in the server's own socket, unacknowledged, as it
/// would in front of a slow wire. Nothing on the machine is reconfigured.
class PacedRelay {
 public:
  PacedRelay(uint16_t server_port, double bytes_per_sec)
      : server_port_(server_port), bytes_per_sec_(bytes_per_sec) {
    auto listener = net::ListenTcp(0);
    EXPECT_TRUE(listener.ok());
    listen_fd_ = std::move(listener->first);
    port_ = listener->second;
    accept_thread_ = std::thread([this] { AcceptLoop(); });
  }
  ~PacedRelay() {
    ::shutdown(listen_fd_.get(), SHUT_RDWR);  // wakes accept(2)
    accept_thread_.join();
    for (net::Fd& fd : fds_) ::shutdown(fd.get(), SHUT_RDWR);
    for (std::thread& thread : threads_) thread.join();
  }
  uint16_t port() const { return port_; }

 private:
  void AcceptLoop() {
    for (;;) {
      net::Fd client(::accept(listen_fd_.get(), nullptr, nullptr));
      if (!client.valid()) return;
      net::Fd server(::socket(AF_INET, SOCK_STREAM, 0));
      const int small = 16 * 1024;  // before connect: fixes the window
      ::setsockopt(server.get(), SOL_SOCKET, SO_RCVBUF, &small,
                   sizeof(small));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(server_port_);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(server.get(), reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) != 0) {
        ADD_FAILURE() << "relay could not reach the server";
        return;
      }
      (void)net::SetNoDelay(client.get());
      (void)net::SetNoDelay(server.get());
      const int to_client = client.get();
      const int to_server = server.get();
      threads_.emplace_back([=] { Pump(to_client, to_server, 0); });
      threads_.emplace_back(
          [=, this] { Pump(to_server, to_client, bytes_per_sec_); });
      fds_.push_back(std::move(client));
      fds_.push_back(std::move(server));
    }
  }

  /// Copies `from` to `to` until either end closes, at most `rate` bytes
  /// per second (0: unpaced). Closing one direction ends the other.
  static void Pump(int from, int to, double rate) {
    std::vector<uint8_t> buf(16 * 1024);
    const auto start = std::chrono::steady_clock::now();
    uint64_t moved = 0;
    for (;;) {
      const ssize_t n = ::recv(from, buf.data(), buf.size(), 0);
      if (n <= 0 || !net::SendAll(to, {buf.data(), static_cast<size_t>(n)})
                         .ok()) {
        break;
      }
      moved += static_cast<uint64_t>(n);
      if (rate > 0) {
        std::this_thread::sleep_until(
            start + std::chrono::duration<double>(moved / rate));
      }
    }
    ::shutdown(from, SHUT_RDWR);
    ::shutdown(to, SHUT_RDWR);
  }

  const uint16_t server_port_;
  const double bytes_per_sec_;
  net::Fd listen_fd_;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  // Accept thread only, until it is joined.
  std::vector<net::Fd> fds_;
  std::vector<std::thread> threads_;
};

class WireCompressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("wire_compress_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    transport_ = net::MakeTcpTransport();
    slow_wire_ = std::make_unique<net::FaultInjectingTransport>(transport_.get());
    slow_wire_->SetSlowWire(kSlowWireBytesPerSec);
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

  /// A supplier on the slow wire, or on the clean loopback one.
  MofSupplier* MakeSupplier(bool wire_compress = true,
                            bool pipelined = true, bool slow_wire = true) {
    MofSupplier::Options options;
    options.transport = slow_wire ? slow_wire_.get() : transport_.get();
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

  static uint64_t SkippedIdle(const MofSupplier& supplier) {
    return supplier.metrics()
        .GetCounter("jbs_mofsupplier_compress_skipped_idle_total",
                    {{"server", "mofsupplier"}})
        ->value();
  }

  fs::path dir_;
  std::unique_ptr<net::Transport> transport_;
  std::unique_ptr<net::FaultInjectingTransport> slow_wire_;
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

/// Chunks of a `segment`-byte fetch asked `ask` bytes at a time that clear
/// the fixture's 64-byte compression gate.
int EligibleChunks(size_t segment, size_t ask) {
  return static_cast<int>(segment / ask) + (segment % ask >= 64 ? 1 : 0);
}

TEST_F(WireCompressTest, StopAndWaitClientOnAnIdleWireGetsRawChunks) {
  // A stop-and-wait client asks for the next chunk only after the last one
  // arrived, so on a clean wire no reply ever waits behind another: every
  // chunk ships raw and byte-identical, without a compressor pass.
  auto handle = MakeCompressibleMof(4, 1, 60);
  const std::vector<uint8_t> expected = DiskSegment(handle, 0);
  for (const bool pipelined : {true, false}) {
    SCOPED_TRACE(pipelined ? "pipelined" : "serialized");
    MofSupplier* supplier =
        MakeSupplier(/*wire_compress=*/true, pipelined, /*slow_wire=*/false);
    ASSERT_TRUE(supplier->PublishMof(handle).ok());
    auto conn = transport_->Connect("127.0.0.1", supplier->port());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(SendHello(**conn, kCapWireCompression).ok());

    auto fetched = Fetch(**conn, 4, 0, 1024);
    ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
    EXPECT_GT(fetched->chunks, 4);
    EXPECT_EQ(fetched->compressed_chunks, 0);
    EXPECT_EQ(fetched->segment, expected);

    const auto stats = supplier->supplier_stats();
    EXPECT_EQ(stats.chunks_compressed, 0u);
    EXPECT_EQ(stats.compress_bailouts, 0u);
    EXPECT_EQ(stats.bytes_logical, stats.bytes_wire);
    EXPECT_EQ(SkippedIdle(*supplier),
              static_cast<uint64_t>(EligibleChunks(expected.size(), 1024)));
    supplier->Stop();
  }
}

TEST_F(WireCompressTest, EveryEligibleChunkIsCompressedOnASlowWire) {
  // The same stop-and-wait client on a slow wire: its own request is still
  // on the wire when the reply is ready, so every eligible chunk goes
  // through the compressor.
  auto handle = MakeCompressibleMof(5, 1, 60);
  const std::vector<uint8_t> expected = DiskSegment(handle, 0);
  const int eligible = EligibleChunks(expected.size(), 1024);
  for (const bool pipelined : {true, false}) {
    SCOPED_TRACE(pipelined ? "pipelined" : "serialized");
    MofSupplier* supplier = MakeSupplier(/*wire_compress=*/true, pipelined);
    ASSERT_TRUE(supplier->PublishMof(handle).ok());
    auto conn = transport_->Connect("127.0.0.1", supplier->port());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(SendHello(**conn, kCapWireCompression).ok());

    auto fetched = Fetch(**conn, 5, 0, 1024);
    ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
    EXPECT_EQ(fetched->segment, expected);
    EXPECT_GE(fetched->compressed_chunks, static_cast<int>(expected.size() / 1024));

    const auto stats = supplier->supplier_stats();
    EXPECT_EQ(SkippedIdle(*supplier), 0u);
    EXPECT_EQ(stats.chunks_compressed,
              static_cast<uint64_t>(fetched->compressed_chunks));
    EXPECT_EQ(stats.chunks_compressed + stats.compress_bailouts,
              static_cast<uint64_t>(eligible));
    supplier->Stop();
  }
}

TEST_F(WireCompressTest, NetMergerShuffleMatchesTheOracleOnEitherWire) {
  // On a clean wire a chunk is compressed only if its request found
  // earlier replies not yet received, so most ship raw; on a slow wire
  // every eligible chunk is compressed. Either way the merged stream is
  // LocalShuffle's, record for record.
  constexpr int kMaps = 3;
  constexpr int kPartitions = 2;
  mr::LocalShufflePlugin oracle;
  auto oracle_server = oracle.CreateServer(0, Config());
  std::vector<mr::MofHandle> handles;
  for (int m = 0; m < kMaps; ++m) {
    mr::MofWriter writer(dir_ / ("sorted_" + std::to_string(m)));
    for (int p = 0; p < kPartitions; ++p) {
      mr::IFileWriter segment;
      for (int r = 0; r < 150; ++r) {
        char key[32];
        std::snprintf(key, sizeof(key), "k%05d", r * kMaps + m);
        segment.Append(key, std::string(120, static_cast<char>('a' + p)));
      }
      const uint64_t n = segment.records();
      ASSERT_TRUE(writer.AppendSegment(segment.Finish(), n).ok());
    }
    auto handle = writer.Finish(m, 0);
    ASSERT_TRUE(handle.ok());
    ASSERT_TRUE(oracle_server->PublishMof(*handle).ok());
    handles.push_back(*handle);
  }
  const auto drain = [](mr::RecordStream& stream) {
    std::vector<mr::Record> records;
    mr::Record record;
    while (stream.Next(&record)) records.push_back(record);
    EXPECT_TRUE(stream.status().ok()) << stream.status().ToString();
    return records;
  };
  auto oracle_client = oracle.CreateClient(0, Config());
  for (const bool slow_wire : {false, true}) {
    SCOPED_TRACE(slow_wire ? "slow wire" : "clean wire");
    MofSupplier* supplier =
        MakeSupplier(/*wire_compress=*/true, /*pipelined=*/true, slow_wire);
    std::vector<mr::MofLocation> sources;
    for (const auto& handle : handles) {
      ASSERT_TRUE(supplier->PublishMof(handle).ok());
      sources.push_back({handle.map_task, 0, "127.0.0.1", supplier->port()});
    }
    NetMerger::Options options;
    options.transport = transport_.get();
    options.chunk_size = 1500;
    NetMerger merger(options);
    for (int p = 0; p < kPartitions; ++p) {
      auto got = merger.FetchAndMerge(p, sources);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      auto want = oracle_client->FetchAndMerge(p, sources);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      const std::vector<mr::Record> records = drain(**got);
      EXPECT_EQ(records.size(), static_cast<size_t>(kMaps * 150));
      EXPECT_EQ(records, drain(**want)) << "partition " << p;
    }
    if (slow_wire) {
      EXPECT_GT(merger.merger_stats().chunks_compressed, 0u);
      EXPECT_EQ(SkippedIdle(*supplier), 0u);
    }
    merger.Stop();
    supplier->Stop();
  }
}

TEST_F(WireCompressTest, NetMergerThroughAPacedLinkKeepsTheCodecOn) {
  // The real signal, not the slow-wire fault: a clean TCP supplier behind
  // a 16 MB/s link (128 Mb/s). NetMerger's window of 128 KiB requests
  // outruns the link, so its later requests find earlier replies still in
  // the supplier's socket, unacknowledged, and those chunks are
  // compressed; only replies sent before the link backs up go raw.
  constexpr int kMaps = 4;
  std::vector<mr::MofHandle> handles;
  Rng rng(7);
  const char* words[] = {"shuffle", "merge", "segment", "reducer", "chunk",
                         "supplier", "levitated", "partition"};
  for (int m = 0; m < kMaps; ++m) {
    mr::MofWriter writer(dir_ / ("paced_" + std::to_string(m)));
    mr::IFileWriter segment;
    for (int r = 0; r < 3000; ++r) {
      std::string value;
      while (value.size() < 150) {
        value += words[rng.Next() % 8];
        value += ' ';
      }
      char key[32];
      std::snprintf(key, sizeof(key), "k%06d", r * kMaps + m);
      segment.Append(key, value);
    }
    const uint64_t n = segment.records();
    ASSERT_TRUE(writer.AppendSegment(segment.Finish(), n).ok());
    auto handle = writer.Finish(m, 0);
    ASSERT_TRUE(handle.ok());
    handles.push_back(*handle);
  }
  MofSupplier::Options supplier_options;
  supplier_options.transport = transport_.get();
  supplier_options.wire_compress = true;
  MofSupplier supplier(supplier_options);
  ASSERT_TRUE(supplier.Start().ok());
  PacedRelay link(supplier.port(), 16e6);
  std::vector<mr::MofLocation> sources;
  uint64_t logical = 0;
  for (const auto& handle : handles) {
    ASSERT_TRUE(supplier.PublishMof(handle).ok());
    sources.push_back({handle.map_task, 0, "127.0.0.1", link.port()});
    logical += DiskSegment(handle, 0).size();
  }
  NetMerger::Options options;
  options.transport = transport_.get();
  NetMerger merger(options);
  auto stream = merger.FetchAndMerge(0, sources);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  mr::Record record, last;
  size_t records = 0;
  while ((*stream)->Next(&record)) {
    EXPECT_TRUE(records == 0 || last.key <= record.key);
    last = record;
    ++records;
  }
  ASSERT_TRUE((*stream)->status().ok()) << (*stream)->status().ToString();
  EXPECT_EQ(records, static_cast<size_t>(kMaps * 3000));

  const auto stats = supplier.supplier_stats();
  const uint64_t chunks = stats.chunks_compressed + stats.compress_bailouts +
                          SkippedIdle(supplier);
  EXPECT_EQ(stats.bytes_logical, logical);
  EXPECT_GE(chunks, 16u);
  EXPECT_EQ(stats.compress_bailouts, 0u);
  // 16 chunks here: the four head requests arrive together on an idle
  // link and ship raw, and the twelve after them find it behind.
  EXPECT_GE(SkippedIdle(supplier), 1u);
  EXPECT_GE(2 * stats.chunks_compressed, chunks)
      << "compressed " << stats.chunks_compressed << ", idle "
      << SkippedIdle(supplier);
  merger.Stop();
  supplier.Stop();
}

}  // namespace
}  // namespace jbs::shuffle
