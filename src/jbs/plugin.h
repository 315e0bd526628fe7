// JBS as a transparent plug-in (§III-A): wires a MofSupplier per node and a
// NetMerger per node into the engine's ShufflePlugin boundary, over either
// the TCP or the SoftRdma transport. Invoked "based on a runtime user
// parameter" — here, the Config keys below; when not loaded the engine
// runs whatever other plugin it was given, unchanged.
#pragma once

#include <memory>

#include "jbs/mof_supplier.h"
#include "jbs/net_merger.h"
#include "mapred/shuffle.h"
#include "transport/rdma_transport.h"
#include "transport/transport.h"

namespace jbs::shuffle {

enum class TransportKind { kTcp, kRdma };

struct JbsOptions {
  TransportKind transport = TransportKind::kTcp;
  size_t buffer_size = 128 * 1024;
  size_t buffer_count = 64;
  int data_threads = 3;
  int prefetch_batch = 4;
  int prefetch_threads = 2;      // MofSupplier disk-stage pool
  size_t fd_cache_entries = 128; // MofSupplier open-fd LRU
  int fetch_window = 4;          // NetMerger chunk requests in flight
  size_t connection_cache_capacity = 512;
  bool pipelined = true;    // MofSupplier prefetch pipeline
  bool consolidate = true;  // NetMerger connection consolidation
  bool round_robin = true;  // NetMerger balanced injection
  int64_t fetch_deadline_ms = 0;   // per-fetch budget incl. retries (0=off)
  int64_t connect_timeout_ms = 0;  // per-dial bound (0=off)
  int64_t chunk_timeout_ms = 0;    // per chunk round trip (0=off)
  int64_t connection_idle_ms = 0;  // cached-connection staleness (0=off)
  // Integrity + failover (DESIGN.md §11): per-chunk CRC stamping/checking
  // and the NetMerger penalty box.
  bool chunk_crc = true;  // supplier stamps chunk CRCs, merger checks them
  int health_suspect_after = 1;
  int health_penalize_after = 3;     // <= 0 disables the penalty box
  int64_t health_penalty_ms = 200;
  int64_t health_penalty_max_ms = 10000;
  // Per-connection inbound frame cap enforced by both transports against
  // the untrusted length prefix.
  size_t max_frame_bytes = 64 * 1024 * 1024;
  // Negotiated wire compression (DESIGN.md §14): the supplier compresses
  // eligible chunks for peers that advertised the capability, and the
  // merger advertises it whenever the knob is on.
  bool wire_compress = false;
  uint64_t wire_compress_min_bytes = 4096;
  double wire_compress_min_ratio = 0.9;
  // Overload control (DESIGN.md §16): supplier admission bounds (0 = off)
  // and the merger's kErrorBusy retry budget.
  size_t admission_max_queue = 0;
  uint64_t admission_max_inflight_bytes = 0;
  double admission_datacache_watermark = 0;
  int admission_acquire_timeout_ms = 100;
  int pushback_retry_budget = 32;
};

class JbsShufflePlugin final : public mr::ShufflePlugin {
 public:
  using Options = JbsOptions;

  explicit JbsShufflePlugin(Options options = Options());

  /// Reads jbs.* keys from a Config (transport buffer size etc.).
  static Options OptionsFromConfig(const Config& conf);

  std::string name() const override;
  std::unique_ptr<mr::ShuffleServer> CreateServer(int node,
                                                  const Config& conf) override;
  std::unique_ptr<mr::ShuffleClient> CreateClient(int node,
                                                  const Config& conf) override;

  net::Transport* transport() { return transport_.get(); }

  /// Unified observability: every supplier and merger this plugin creates
  /// publishes into this registry (gauges carry an `instance="nodeN"`
  /// label) and this per-fetch trace ring, so one DumpText() shows the
  /// whole job's shuffle.
  MetricsRegistry& metrics() { return metrics_; }
  TraceRecorder& trace() { return trace_; }

 private:
  Options options_;
  MetricsRegistry metrics_;
  TraceRecorder trace_{16384};
  std::unique_ptr<net::Transport> transport_;
};

}  // namespace jbs::shuffle
