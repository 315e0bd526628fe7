// Real-mode transport and shuffle benches over loopback: the measured
// counterpart of Fig. 2(b) using the actual JBS code paths — TCP vs
// SoftRdma frame round trips and throughput, and end-to-end segment
// fetches through MofSupplier/NetMerger vs the baseline HTTP shuffle
// (with and without the calibrated JVM penalty).
#include <benchmark/benchmark.h>

#include <filesystem>

#include "baseline/http_shuffle.h"
#include "jbs/mof_supplier.h"
#include "jbs/net_merger.h"
#include "mapred/ifile.h"
#include "transport/rdma_transport.h"
#include "transport/transport.h"

namespace jbs {
namespace {

namespace fs = std::filesystem;

std::unique_ptr<net::Transport> MakeTransport(bool rdma) {
  if (rdma) return net::MakeSoftRdmaTransport();
  return net::MakeTcpTransport();
}

/// Echo server round-trip latency for small frames.
void BM_TransportRoundTrip(benchmark::State& state) {
  auto transport = MakeTransport(state.range(0) == 1);
  auto server = transport->CreateServer();
  if (!server.ok()) {
    state.SkipWithError("server failed");
    return;
  }
  net::ServerEndpoint::Handlers handlers;
  handlers.on_frame = [&](net::ConnId conn, Frame frame) {
    (void)(*server)->SendAsync(conn, std::move(frame));
  };
  if (!(*server)->Start(handlers).ok()) {
    state.SkipWithError("start failed");
    return;
  }
  auto conn = transport->Connect("127.0.0.1", (*server)->port());
  if (!conn.ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  Frame ping;
  ping.type = 1;
  ping.payload.resize(64);
  for (auto _ : state) {
    if (!(*conn)->Send(ping).ok()) break;
    auto reply = (*conn)->Receive();
    if (!reply.ok()) break;
    benchmark::DoNotOptimize(reply->payload.data());
  }
  (*server)->Stop();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransportRoundTrip)
    ->Arg(0)  // TCP
    ->Arg(1)  // SoftRdma
    ->Unit(benchmark::kMicrosecond);

/// Bulk throughput: stream 64KB frames through the echo server.
void BM_TransportThroughput(benchmark::State& state) {
  auto transport = MakeTransport(state.range(0) == 1);
  auto server = transport->CreateServer();
  net::ServerEndpoint::Handlers handlers;
  handlers.on_frame = [&](net::ConnId conn, Frame frame) {
    Frame ack;
    ack.type = 2;
    (void)(*server)->SendAsync(conn, std::move(ack));
    benchmark::DoNotOptimize(frame.payload.data());
  };
  if (!(*server)->Start(handlers).ok()) {
    state.SkipWithError("start failed");
    return;
  }
  auto conn = transport->Connect("127.0.0.1", (*server)->port());
  if (!conn.ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  Frame chunk;
  chunk.type = 1;
  chunk.payload.resize(64 << 10);
  for (auto _ : state) {
    if (!(*conn)->Send(chunk).ok()) break;
    auto ack = (*conn)->Receive();
    if (!ack.ok()) break;
  }
  (*server)->Stop();
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(chunk.payload.size()));
}
BENCHMARK(BM_TransportThroughput)->Arg(0)->Arg(1);

/// Serve-path direction (server -> client) with large frames: the legacy
/// copy-into-frame handoff vs the zero-copy ext+lease handoff the
/// MofSupplier's disk threads use. Arg: 0=copy, 1=zero-copy.
void BM_ServerPushLargeFrame(benchmark::State& state) {
  constexpr size_t kFrameBytes = 1 << 20;
  const bool zerocopy = state.range(0) == 1;
  auto transport = net::MakeTcpTransport();
  auto server = transport->CreateServer();
  if (!server.ok()) {
    state.SkipWithError("server failed");
    return;
  }
  const auto src =
      std::make_shared<const std::vector<uint8_t>>(kFrameBytes, 0xab);
  std::vector<uint8_t> wire_scratch;
  net::ServerEndpoint::Handlers handlers;
  handlers.on_frame = [&](net::ConnId conn, Frame) {
    Frame out;
    out.type = 2;
    if (zerocopy) {
      out.ext = {src->data(), src->size()};
      out.lease = std::shared_ptr<const void>(src, src->data());
    } else {
      // Pre-zero-copy serve path: EncodeData staged the chunk into the
      // frame payload, then the endpoint encoded frame -> wire buffer
      // before write(). Pay both memcpys for a faithful baseline.
      out.payload.assign(src->begin(), src->end());
      AddPayloadCopyBytes(out.payload.size());
      wire_scratch.clear();  // EncodeFrame appends; legacy reused a
                             // cleared buffer per frame
      EncodeFrame(out, wire_scratch);
    }
    (void)(*server)->SendAsync(conn, std::move(out));
  };
  if (!(*server)->Start(handlers).ok()) {
    state.SkipWithError("start failed");
    return;
  }
  auto conn = transport->Connect("127.0.0.1", (*server)->port());
  if (!conn.ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  Frame request;
  request.type = 1;
  request.payload.resize(1);
  for (auto _ : state) {
    if (!(*conn)->Send(request).ok()) break;
    auto reply = (*conn)->Receive();
    if (!reply.ok()) break;
    benchmark::DoNotOptimize(reply->payload.data());
  }
  (*server)->Stop();
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(kFrameBytes));
}
BENCHMARK(BM_ServerPushLargeFrame)
    ->Arg(0)  // legacy: memcpy the chunk into the frame
    ->Arg(1);  // zero-copy: ext span + lease

/// End-to-end segment fetch: MofSupplier + NetMerger (JBS) vs the HTTP
/// baseline, real files + real sockets. Arg: 0=JBS, 1=HTTP,
/// 2=HTTP+JVM-penalty (scaled so the bench stays fast).
void BM_SegmentFetch(benchmark::State& state) {
  const fs::path dir = fs::temp_directory_path() /
                       ("bench_fetch_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  // One 2MB segment across 4 MOFs.
  mr::IFileWriter segment_writer;
  for (int r = 0; r < 2500; ++r) {
    segment_writer.Append("key_" + std::to_string(100000 + r),
                          std::string(180, 'x'));
  }
  const auto segment = segment_writer.Finish();
  std::vector<mr::MofHandle> handles;
  for (int m = 0; m < 4; ++m) {
    mr::MofWriter writer(dir / ("mof_" + std::to_string(m)));
    (void)writer.AppendSegment(segment, 2500);
    auto handle = writer.Finish(m, 0);
    if (!handle.ok()) {
      state.SkipWithError("mof write failed");
      return;
    }
    handles.push_back(*handle);
  }

  const int mode = static_cast<int>(state.range(0));
  auto transport = net::MakeTcpTransport();
  std::unique_ptr<mr::ShuffleServer> server;
  std::unique_ptr<mr::ShuffleClient> client;
  if (mode == 0) {
    shuffle::MofSupplier::Options soptions;
    soptions.transport = transport.get();
    server = std::make_unique<shuffle::MofSupplier>(soptions);
    shuffle::NetMerger::Options noptions;
    noptions.transport = transport.get();
    client = std::make_unique<shuffle::NetMerger>(noptions);
  } else {
    baseline::JvmPenalty penalty;
    if (mode == 2) {
      // Scaled-down calibration (1/20) keeps iterations sub-second while
      // preserving the disk:net cost ratio.
      penalty = baseline::JvmPenalty::Calibrated(0.05);
    }
    server = std::make_unique<baseline::HttpShuffleServer>(
        baseline::HttpShuffleServer::Options{.servlets = 4,
                                             .penalty = penalty});
    baseline::MofCopierClient::Options coptions;
    coptions.penalty = penalty;
    coptions.spill_dir = dir / "spill";
    client = std::make_unique<baseline::MofCopierClient>(coptions);
  }
  if (!server->Start().ok()) {
    state.SkipWithError("server start failed");
    return;
  }
  for (const auto& handle : handles) (void)server->PublishMof(handle);
  std::vector<mr::MofLocation> sources;
  for (int m = 0; m < 4; ++m) {
    sources.push_back({m, 0, "127.0.0.1", server->port()});
  }

  uint64_t records = 0;
  for (auto _ : state) {
    auto stream = client->FetchAndMerge(0, sources);
    if (!stream.ok()) {
      state.SkipWithError("fetch failed");
      break;
    }
    mr::Record record;
    while ((*stream)->Next(&record)) ++records;
  }
  benchmark::DoNotOptimize(records);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(segment.size()) * 4);
  client->Stop();
  server->Stop();
  fs::remove_all(dir);
}
BENCHMARK(BM_SegmentFetch)
    ->Arg(0)  // JBS (MofSupplier + NetMerger)
    ->Arg(1)  // baseline HTTP shuffle
    ->Arg(2)  // baseline + scaled JVM penalty
    ->Unit(benchmark::kMillisecond)
    // The work spans server and client threads; the calling thread's CPU
    // time would inflate bytes_per_second.
    ->UseRealTime();

}  // namespace
}  // namespace jbs

BENCHMARK_MAIN();
