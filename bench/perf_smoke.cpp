// CI perf-smoke: a minutes-not-hours regression canary for the zero-copy
// serve path. Four probes, all real sockets on loopback:
//
//   1. Large-frame server push — the serve-path direction — measured twice:
//      legacy copy-into-frame handoff vs zero-copy ext+lease handoff
//      (micro_transport's BM_ServerPushLargeFrame, reduced to one pass).
//   2. A reduced Figs. 4/5 sweep: serialized per-request service vs the
//      pipelined prefetch+send MofSupplier, small dataset, one repeat.
//   3. A wire-compression sweep: zipf-skewed compressible vs uniformly
//      random MOFs shuffled with negotiated per-chunk compression off and
//      on, recording bytes_logical / bytes_on_wire / ratio / elapsed. The
//      byte counts are deterministic, so two invariants are gated: the
//      compressible workload must at least halve its wire bytes, and the
//      random workload must ship raw (bail-out) with zero user-space
//      payload copies on the compression-off pass. The supplier compresses
//      only while its wire is behind, so the compression-on pass serves
//      over a slow wire (FaultInjectingTransport::SetSlowWire) on which
//      every eligible chunk is compressed and the byte counts stay fixed.
//   4. An overload sweep (DESIGN.md §16): offered load at 1x/2x/4x of a
//      byte-budgeted supplier's capacity (admitted-inflight budget fits a
//      single chunk; the disk model paces service), recording shed rate
//      and served-request p99 per point. Two gates: every merge completes
//      at every load point (pushback + retry-after must absorb the
//      overload), and the 4x point actually shed (otherwise the sweep
//      measured nothing). The shed-rate and p99 values themselves are
//      recorded, not gated.
//
// Results land in a MetricsRegistry and are dumped as JSON (default
// perf_smoke.json, or argv[1]) so CI can archive the numbers per commit.
// A probe that cannot RUN (socket setup failure, MOF write failure) is a
// hard failure: the reason prints, NO JSON is written — a partial file
// would read downstream as "the missing probes regressed to zero" — and
// the exit code is 1. Perf deltas on probes that did run are recorded,
// not gated, because shared CI runners are too noisy for hard thresholds.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/framing.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "jbs/mof_supplier.h"
#include "jbs/net_merger.h"
#include "jbs/protocol.h"
#include "mapred/ifile.h"
#include "transport/fault_injection.h"
#include "transport/transport.h"

using namespace jbs;

namespace {

namespace fs = std::filesystem;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One pass of the server-push probe: the client requests, the server
/// pushes one `frame_bytes` frame, `rounds` times. Returns MB/s; a probe
/// that cannot run returns 0 with the reason in `*err`. `copied_bytes`
/// gets the serve-side user-space copy count for the pass.
double PushThroughputMBs(bool zerocopy, size_t frame_bytes, int rounds,
                         uint64_t* copied_bytes, std::string* err) {
  auto transport = net::MakeTcpTransport();
  auto server = transport->CreateServer();
  if (!server.ok()) {
    *err = "CreateServer: " + server.status().ToString();
    return 0;
  }
  const auto src =
      std::make_shared<const std::vector<uint8_t>>(frame_bytes, 0xab);
  std::vector<uint8_t> wire_scratch;
  net::ServerEndpoint::Handlers handlers;
  handlers.on_frame = [&](net::ConnId conn, Frame) {
    Frame out;
    out.type = 2;
    if (zerocopy) {
      out.ext = {src->data(), src->size()};
      out.lease = std::shared_ptr<const void>(src, src->data());
    } else {
      // The pre-zero-copy serve path copied twice: EncodeData staged the
      // chunk into the frame payload, then the endpoint encoded frame ->
      // wire buffer before write(). Pay both memcpys so the comparison
      // reflects what the zero-copy rework actually removed.
      out.payload.assign(src->begin(), src->end());
      AddPayloadCopyBytes(out.payload.size());
      wire_scratch.clear();  // EncodeFrame appends; legacy reused a
                             // cleared buffer per frame
      EncodeFrame(out, wire_scratch);
    }
    (void)(*server)->SendAsync(conn, std::move(out));
  };
  if (Status st = (*server)->Start(handlers); !st.ok()) {
    *err = "server Start: " + st.ToString();
    return 0;
  }
  auto conn = transport->Connect("127.0.0.1", (*server)->port());
  if (!conn.ok()) {
    *err = "Connect: " + conn.status().ToString();
    return 0;
  }
  Frame request;
  request.type = 1;
  request.payload.resize(1);
  ResetPayloadCopyBytes();
  const auto start = Clock::now();
  for (int i = 0; i < rounds; ++i) {
    if (Status st = (*conn)->Send(request); !st.ok()) {
      *err = "Send: " + st.ToString();
      return 0;
    }
    auto reply = (*conn)->Receive();
    if (!reply.ok()) {
      *err = "Receive: " + reply.status().ToString();
      return 0;
    }
  }
  const double secs = SecondsSince(start);
  *copied_bytes = PayloadCopyBytes();
  (*server)->Stop();
  const double mb = static_cast<double>(frame_bytes) * rounds / (1 << 20);
  return secs > 0 ? mb / secs : 0;
}

/// One reduced Figs. 4/5 run: `reducers` concurrent fetchers against one
/// supplier with the calibrated disk model. Returns serve throughput MB/s,
/// or 0 with the reason in `*err`.
double SweepThroughputMBs(bool pipelined, int prefetch_threads,
                          int fetch_window,
                          const std::vector<mr::MofHandle>& handles,
                          std::string* err, uint16_t* port_out = nullptr) {
  auto transport = net::MakeTcpTransport();
  shuffle::MofSupplier::Options options;
  options.transport = transport.get();
  options.buffer_size = 32 * 1024;
  options.buffer_count = 64;
  options.prefetch_batch = 8;
  options.disk_bytes_per_sec = 500e6;
  options.disk_seek_ms = 0.1;
  options.prefetch_threads = prefetch_threads;
  options.pipelined = pipelined;
  shuffle::MofSupplier supplier(options);
  if (Status st = supplier.Start(); !st.ok()) {
    *err = "supplier Start: " + st.ToString();
    return 0;
  }
  for (const auto& handle : handles) (void)supplier.PublishMof(handle);
  if (port_out) *port_out = supplier.port();

  Mutex fetch_err_mu;
  std::string fetch_err;
  const auto start = Clock::now();
  std::vector<std::thread> reducers;
  for (int partition = 0; partition < 2; ++partition) {
    reducers.emplace_back([&, partition] {
      auto client_transport = net::MakeTcpTransport();
      shuffle::NetMerger::Options merger_options;
      merger_options.transport = client_transport.get();
      merger_options.chunk_size = 32 * 1024 - shuffle::kDataHeaderSize;
      merger_options.data_threads = 1;
      merger_options.fetch_window = fetch_window;
      shuffle::NetMerger merger(merger_options);
      std::vector<mr::MofLocation> sources;
      for (size_t m = 0; m < handles.size(); ++m) {
        sources.push_back(
            {static_cast<int>(m), 0, "127.0.0.1", supplier.port()});
      }
      // The stream is drained before Stop(): FetchAndMerge returns with
      // the first chunks in, and Stop() would cancel the rest.
      auto stream = merger.FetchAndMerge(partition, sources);
      Status status = stream.status();
      if (stream.ok()) {
        mr::Record record;
        while ((*stream)->Next(&record)) {
        }
        status = (*stream)->status();
      }
      if (!status.ok()) {
        MutexLock lock(fetch_err_mu);
        fetch_err = "FetchAndMerge(partition " + std::to_string(partition) +
                    "): " + status.ToString();
      }
      merger.Stop();
    });
  }
  for (auto& reducer : reducers) reducer.join();
  const double secs = SecondsSince(start);
  const auto stats = supplier.supplier_stats();
  supplier.Stop();
  if (!fetch_err.empty()) {
    *err = fetch_err;
    return 0;
  }
  return secs > 0 ? static_cast<double>(stats.bytes_served) / (1 << 20) / secs
                  : 0;
}

/// Writes `mofs` single-partition MOFs under `dir`. `compressible` picks
/// zipf-skewed words (sorted-shuffle-like repetition) vs uniform random
/// bytes that the codec must bail out on.
std::vector<mr::MofHandle> MakeCompressSweepMofs(const fs::path& dir,
                                                 bool compressible, int mofs,
                                                 int records) {
  static const char* kVocab[] = {"clickstream", "impression", "session",
                                 "checkout",    "pageview",   "search",
                                 "basket",      "login"};
  constexpr size_t kVocabSize = sizeof(kVocab) / sizeof(kVocab[0]);
  std::vector<mr::MofHandle> handles;
  Rng rng(compressible ? 0x51EEC0DE : 0x0DDB17E5);
  for (int m = 0; m < mofs; ++m) {
    mr::MofWriter writer(dir / ((compressible ? "zipf_" : "rand_") +
                                std::to_string(m)));
    mr::IFileWriter segment;
    for (int r = 0; r < records; ++r) {
      std::string value;
      if (compressible) {
        while (value.size() < 150) {
          value += kVocab[rng.NextZipf(kVocabSize, 1.2) - 1];
          value += ' ';
        }
      } else {
        value.resize(150);
        for (char& c : value) c = static_cast<char>(rng.Next() & 0xFF);
      }
      segment.Append("key_" + std::to_string(100000 + r), value);
    }
    const uint64_t n = segment.records();
    (void)writer.AppendSegment(segment.Finish(), n);
    auto handle = writer.Finish(m, 0);
    if (!handle.ok()) return {};
    handles.push_back(*handle);
  }
  return handles;
}

struct CompressSweepResult {
  uint64_t bytes_logical = 0;
  uint64_t bytes_wire = 0;
  double secs = 0;
  uint64_t copied_delta = 0;  // user-space payload copies during the sweep
};

/// Two full fetch sweeps of `handles` through one supplier with wire
/// compression `compress_on`; the second repeats the first, as a retrying
/// reducer would. With compression on the supplier serves over a slow wire
/// that every reply finds behind (only its backlog signal sees the rate;
/// no byte is delayed). A sweep that cannot run leaves the reason in
/// `*err`.
CompressSweepResult CompressSweepRun(bool compress_on,
                                     const std::vector<mr::MofHandle>& handles,
                                     std::string* err) {
  CompressSweepResult result;
  auto transport = net::MakeTcpTransport();
  net::FaultInjectingTransport slow_wire(transport.get());
  slow_wire.SetSlowWire(/*bytes_per_sec=*/256);
  shuffle::MofSupplier::Options options;
  options.transport =
      compress_on ? static_cast<net::Transport*>(&slow_wire) : transport.get();
  options.buffer_size = 32 * 1024;
  options.buffer_count = 64;
  options.wire_compress = compress_on;
  options.wire_compress_min_bytes = 1024;
  shuffle::MofSupplier supplier(options);
  if (Status st = supplier.Start(); !st.ok()) {
    *err = "supplier Start: " + st.ToString();
    return result;
  }
  for (const auto& handle : handles) (void)supplier.PublishMof(handle);

  const uint64_t copied_before = PayloadCopyBytes();
  const auto start = Clock::now();
  for (int sweep = 0; sweep < 2; ++sweep) {
    auto client_transport = net::MakeTcpTransport();
    shuffle::NetMerger::Options merger_options;
    merger_options.transport = client_transport.get();
    merger_options.chunk_size = 32 * 1024 - shuffle::kDataHeaderSize;
    shuffle::NetMerger merger(merger_options);
    std::vector<mr::MofLocation> sources;
    for (size_t m = 0; m < handles.size(); ++m) {
      sources.push_back(
          {static_cast<int>(m), 0, "127.0.0.1", supplier.port()});
    }
    auto stream = merger.FetchAndMerge(0, sources);
    if (!stream.ok()) {
      *err = "FetchAndMerge: " + stream.status().ToString();
      return result;
    }
    mr::Record record;
    while ((*stream)->Next(&record)) {
    }
    merger.Stop();
  }
  result.secs = SecondsSince(start);
  result.copied_delta = PayloadCopyBytes() - copied_before;
  const auto stats = supplier.supplier_stats();
  result.bytes_logical = stats.bytes_logical;
  result.bytes_wire = stats.bytes_wire;
  supplier.Stop();
  return result;
}

struct OverloadResult {
  uint64_t requests = 0;  // includes shed requests
  uint64_t shed = 0;
  double p99_ms = 0;  // served requests only; shed replies aren't observed
  double secs = 0;
};

/// One overload-sweep point: `reducers` concurrent mergers (each a full
/// stop-and-wait fetch of every MOF) against one supplier whose
/// admitted-byte budget fits a single 1 KiB chunk, so capacity is one
/// request at a time regardless of runner hardware — `reducers` IS the
/// load multiplier. The disk model paces service so each request occupies
/// its admitted window long enough for the clients to collide. Returns
/// false with the reason in `*err` if the point cannot run or a merger
/// fails (budget-exhausted overload IS a fetch failure here).
bool OverloadSweepPoint(int reducers,
                        const std::vector<mr::MofHandle>& handles,
                        OverloadResult* out, std::string* err) {
  auto transport = net::MakeTcpTransport();
  shuffle::MofSupplier::Options options;
  options.transport = transport.get();
  options.buffer_size = 32 * 1024;
  options.buffer_count = 64;
  options.admission_max_inflight_bytes = 1500;  // one 1 KiB chunk, not two
  options.disk_bytes_per_sec = 2e6;
  shuffle::MofSupplier supplier(options);
  if (Status st = supplier.Start(); !st.ok()) {
    *err = "supplier Start: " + st.ToString();
    return false;
  }
  for (const auto& handle : handles) (void)supplier.PublishMof(handle);

  Mutex err_mu;
  std::string fetch_err;
  const auto start = Clock::now();
  std::vector<std::thread> fetchers;
  for (int r = 0; r < reducers; ++r) {
    fetchers.emplace_back([&, r] {
      auto client_transport = net::MakeTcpTransport();
      shuffle::NetMerger::Options merger_options;
      merger_options.transport = client_transport.get();
      merger_options.chunk_size = 1024;  // many chunks: more admissions
      merger_options.fetch_window = 1;   // stop-and-wait: sheds are cheap
      merger_options.pushback_retry_budget = 100000;
      merger_options.retry_backoff_ms = 1;
      shuffle::NetMerger merger(merger_options);
      std::vector<mr::MofLocation> sources;
      for (size_t m = 0; m < handles.size(); ++m) {
        sources.push_back(
            {static_cast<int>(m), 0, "127.0.0.1", supplier.port()});
      }
      auto stream = merger.FetchAndMerge(0, sources);
      if (!stream.ok()) {
        MutexLock lock(err_mu);
        fetch_err = "FetchAndMerge(reducer " + std::to_string(r) +
                    "): " + stream.status().ToString();
      } else {
        mr::Record record;
        while ((*stream)->Next(&record)) {
        }
      }
      merger.Stop();
    });
  }
  for (auto& fetcher : fetchers) fetcher.join();
  out->secs = SecondsSince(start);
  const auto stats = supplier.supplier_stats();
  out->requests = stats.requests;
  out->shed = stats.shed;
  out->p99_ms = supplier.metrics()
                    .GetHistogram("shuffle_request_latency_ms",
                                  {{"server", "mofsupplier"}})
                    ->histogram()
                    .Percentile(99);
  supplier.Stop();
  if (!fetch_err.empty()) {
    *err = fetch_err;
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "perf_smoke.json";
  MetricsRegistry registry;
  bool ok = true;        // invariant gates on probes that ran
  bool probes_ok = true; // every probe managed to run at all
  std::string probe_err;

  // --- Probe 1: large-frame server push, copy vs zero-copy -------------
  constexpr size_t kFrameBytes = 1 << 20;
  constexpr int kRounds = 200;
  bench::PrintHeader("perf-smoke 1/4: server push, 1MB frames x 200",
                     "zero-copy serve path (DESIGN.md §13)");
  uint64_t copied = 0;
  (void)PushThroughputMBs(false, kFrameBytes, 32, &copied,
                          &probe_err);  // warmup
  probe_err.clear();
  const double copy_mbs =
      PushThroughputMBs(false, kFrameBytes, kRounds, &copied, &probe_err);
  if (!probe_err.empty()) {
    std::printf("FAIL: push probe (copy) could not run: %s\n",
                probe_err.c_str());
    probes_ok = false;
  }
  registry.GetGauge("perf_smoke_push_mbs", {{"mode", "copy"}})->Set(copy_mbs);
  registry.GetGauge("perf_smoke_push_copied_bytes", {{"mode", "copy"}})
      ->Set(static_cast<double>(copied));
  bench::PrintRow({"copy", bench::Fmt(copy_mbs, "%.0fMB/s"),
                   std::to_string(copied) + "B copied"});
  uint64_t zc_copied = 0;
  probe_err.clear();
  const double zc_mbs =
      PushThroughputMBs(true, kFrameBytes, kRounds, &zc_copied, &probe_err);
  if (!probe_err.empty()) {
    std::printf("FAIL: push probe (zerocopy) could not run: %s\n",
                probe_err.c_str());
    probes_ok = false;
  }
  registry.GetGauge("perf_smoke_push_mbs", {{"mode", "zerocopy"}})
      ->Set(zc_mbs);
  registry.GetGauge("perf_smoke_push_copied_bytes", {{"mode", "zerocopy"}})
      ->Set(static_cast<double>(zc_copied));
  bench::PrintRow({"zerocopy", bench::Fmt(zc_mbs, "%.0fMB/s"),
                   std::to_string(zc_copied) + "B copied"});
  const double improvement_pct =
      copy_mbs > 0 ? (zc_mbs - copy_mbs) / copy_mbs * 100.0 : 0;
  registry.GetGauge("perf_smoke_push_improvement_pct")->Set(improvement_pct);
  std::printf("zero-copy improvement: %.1f%%\n", improvement_pct);
  if (zc_copied != 0) {
    std::printf("FAIL: zero-copy path copied %llu bytes\n",
                static_cast<unsigned long long>(zc_copied));
    ok = false;
  }

  // --- Probe 2: reduced Figs. 4/5 sweep ---------------------------------
  const fs::path dir =
      fs::temp_directory_path() / ("perf_smoke_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  std::vector<mr::MofHandle> handles;
  for (int m = 0; m < 4; ++m) {
    mr::MofWriter writer(dir / ("mof_" + std::to_string(m)));
    for (int p = 0; p < 2; ++p) {
      mr::IFileWriter segment;
      for (int r = 0; r < 2400; ++r) {
        segment.Append("key_" + std::to_string(r * 4 + m),
                       std::string(180, static_cast<char>('a' + p)));
      }
      const uint64_t records = segment.records();
      (void)writer.AppendSegment(segment.Finish(), records);
    }
    auto handle = writer.Finish(m, 0);
    if (!handle.ok()) {
      std::printf("FAIL: Figs. 4/5 probe could not run: MOF write: %s\n",
                  handle.status().ToString().c_str());
      std::printf("no JSON written (a partial %s would misread as "
                  "regressions)\n",
                  out_path.c_str());
      return 1;
    }
    handles.push_back(*handle);
  }
  bench::PrintHeader("perf-smoke 2/4: reduced Figs. 4/5 sweep",
                     "serialized vs pipelined 2x4, 4 MOFs x 2 reducers");
  probe_err.clear();
  (void)SweepThroughputMBs(true, 2, 4, handles, &probe_err);  // warmup
  probe_err.clear();
  const double serialized_mbs =
      SweepThroughputMBs(false, 1, 1, handles, &probe_err);
  const double pipelined_mbs =
      probe_err.empty() ? SweepThroughputMBs(true, 2, 4, handles, &probe_err)
                        : 0;
  if (!probe_err.empty()) {
    std::printf("FAIL: Figs. 4/5 probe could not run: %s\n",
                probe_err.c_str());
    probes_ok = false;
  }
  registry.GetGauge("perf_smoke_fig45_mbs", {{"mode", "serialized"}})
      ->Set(serialized_mbs);
  registry.GetGauge("perf_smoke_fig45_mbs", {{"mode", "pipelined_2x4"}})
      ->Set(pipelined_mbs);
  bench::PrintRow({"serialized", bench::Fmt(serialized_mbs, "%.0fMB/s")});
  bench::PrintRow({"pipelined 2x4", bench::Fmt(pipelined_mbs, "%.0fMB/s")});
  fs::remove_all(dir);

  // --- Probe 3: negotiated wire compression sweep -----------------------
  bench::PrintHeader("perf-smoke 3/4: wire compression sweep",
                     "zipf-skewed vs random payloads, compression off/on");
  const fs::path cdir = fs::temp_directory_path() /
                        ("perf_smoke_wc_" + std::to_string(::getpid()));
  fs::create_directories(cdir);
  for (const bool compressible : {true, false}) {
    const char* workload = compressible ? "zipf" : "random";
    const auto handles3 =
        MakeCompressSweepMofs(cdir, compressible, 3, 4000);
    if (handles3.empty()) {
      std::printf("FAIL: compression probe could not run: %s MOF write "
                  "failed\n",
                  workload);
      std::printf("no JSON written (a partial %s would misread as "
                  "regressions)\n",
                  out_path.c_str());
      return 1;
    }
    probe_err.clear();
    const auto off = CompressSweepRun(false, handles3, &probe_err);
    const auto on = probe_err.empty()
                        ? CompressSweepRun(true, handles3, &probe_err)
                        : CompressSweepResult{};
    if (!probe_err.empty()) {
      std::printf("FAIL: compression probe (%s) could not run: %s\n",
                  workload, probe_err.c_str());
      probes_ok = false;
      continue;  // gates below would misfire on zeroed results
    }
    for (const auto& [mode, run] :
         {std::pair<const char*, const CompressSweepResult&>{"off", off},
          {"on", on}}) {
      registry
          .GetGauge("perf_smoke_wire_bytes_logical",
                    {{"workload", workload}, {"compress", mode}})
          ->Set(static_cast<double>(run.bytes_logical));
      registry
          .GetGauge("perf_smoke_wire_bytes_on_wire",
                    {{"workload", workload}, {"compress", mode}})
          ->Set(static_cast<double>(run.bytes_wire));
      const double ratio =
          run.bytes_wire > 0 ? static_cast<double>(run.bytes_logical) /
                                   static_cast<double>(run.bytes_wire)
                             : 0;
      registry
          .GetGauge("perf_smoke_wire_compress_ratio",
                    {{"workload", workload}, {"compress", mode}})
          ->Set(ratio);
      registry
          .GetGauge("perf_smoke_wire_secs",
                    {{"workload", workload}, {"compress", mode}})
          ->Set(run.secs);
      bench::PrintRow({std::string(workload) + " compress=" + mode,
                       std::to_string(run.bytes_wire) + "B wire / " +
                           std::to_string(run.bytes_logical) + "B logical",
                       bench::Fmt(ratio, "%.2fx"),
                       bench::Fmt(run.secs, "%.2fs")});
      if (run.bytes_logical == 0) ok = false;
    }
    if (compressible) {
      // Deterministic gate: the repetitive workload must at least halve
      // its wire bytes once compression is negotiated.
      if (on.bytes_wire * 2 > on.bytes_logical) {
        std::printf("FAIL: zipf workload wire bytes %llu not <= half of "
                    "logical %llu\n",
                    static_cast<unsigned long long>(on.bytes_wire),
                    static_cast<unsigned long long>(on.bytes_logical));
        ok = false;
      }
    } else {
      // The min-ratio bail-out must ship random chunks raw.
      if (on.bytes_wire != on.bytes_logical) {
        std::printf("FAIL: random workload shipped %llu wire bytes for "
                    "%llu logical (expected raw)\n",
                    static_cast<unsigned long long>(on.bytes_wire),
                    static_cast<unsigned long long>(on.bytes_logical));
        ok = false;
      }
    }
    // Compression off is the zero-copy serve path: neither sweep may have
    // copied a single payload byte in user space.
    if (off.copied_delta != 0) {
      std::printf("FAIL: compression-off %s sweep copied %llu bytes\n",
                  workload,
                  static_cast<unsigned long long>(off.copied_delta));
      ok = false;
    }
  }
  fs::remove_all(cdir);

  // --- Probe 4: overload sweep, 1x/2x/4x offered load -------------------
  bench::PrintHeader("perf-smoke 4/4: overload sweep (DESIGN.md §16)",
                     "admission budget = 1 chunk, 1/2/4 concurrent mergers");
  const fs::path odir = fs::temp_directory_path() /
                        ("perf_smoke_ol_" + std::to_string(::getpid()));
  fs::create_directories(odir);
  std::vector<mr::MofHandle> overload_handles;
  for (int m = 0; m < 3; ++m) {
    mr::MofWriter writer(odir / ("ol_mof_" + std::to_string(m)));
    mr::IFileWriter segment;
    for (int r = 0; r < 400; ++r) {
      segment.Append("k" + std::to_string(m) + "_" + std::to_string(100000 + r),
                     std::string(50, static_cast<char>('a' + m)));
    }
    const uint64_t records = segment.records();
    (void)writer.AppendSegment(segment.Finish(), records);
    auto handle = writer.Finish(m, 0);
    if (!handle.ok()) {
      std::printf("FAIL: overload probe could not run: MOF write: %s\n",
                  handle.status().ToString().c_str());
      std::printf("no JSON written (a partial %s would misread as "
                  "regressions)\n",
                  out_path.c_str());
      return 1;
    }
    overload_handles.push_back(*handle);
  }
  constexpr int kLoadMultipliers[] = {1, 2, 4};
  for (const int load : kLoadMultipliers) {
    OverloadResult point;
    probe_err.clear();
    if (!OverloadSweepPoint(load, overload_handles, &point, &probe_err)) {
      std::printf("FAIL: overload sweep (%dx) could not run: %s\n", load,
                  probe_err.c_str());
      probes_ok = false;
      continue;
    }
    const std::string load_label = std::to_string(load) + "x";
    const double shed_rate =
        point.requests > 0
            ? static_cast<double>(point.shed) /
                  static_cast<double>(point.requests)
            : 0;
    registry.GetGauge("perf_smoke_overload_shed_rate", {{"load", load_label}})
        ->Set(shed_rate);
    registry.GetGauge("perf_smoke_overload_p99_ms", {{"load", load_label}})
        ->Set(point.p99_ms);
    registry.GetGauge("perf_smoke_overload_secs", {{"load", load_label}})
        ->Set(point.secs);
    bench::PrintRow({load_label,
                     std::to_string(point.shed) + "/" +
                         std::to_string(point.requests) + " shed",
                     bench::Fmt(shed_rate * 100.0, "%.1f%% shed"),
                     bench::Fmt(point.p99_ms, "p99 %.2fms"),
                     bench::Fmt(point.secs, "%.2fs")});
    // The sweep only measures overload control if overload happened: with
    // the budget admitting one chunk, four stop-and-wait mergers must
    // collide at least once across ~1200 requests.
    if (load == 4 && point.shed == 0) {
      std::printf("FAIL: 4x offered load shed nothing — admission bound "
                  "not exercised\n");
      ok = false;
    }
  }
  fs::remove_all(odir);

  if (!probes_ok) {
    std::printf("\nno JSON written: a probe could not run (a partial %s "
                "would misread as regressions)\n",
                out_path.c_str());
    return 1;
  }
  if (!bench::WriteMetricsJson(registry, out_path)) {
    std::printf("FAIL: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  return ok ? 0 : 1;
}
