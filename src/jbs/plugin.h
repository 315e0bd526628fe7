// JBS as a transparent plug-in (§III-A): wires a MofSupplier per node and a
// NetMerger per node into the engine's ShufflePlugin boundary, over either
// the TCP or the SoftRdma transport. Invoked "based on a runtime user
// parameter" — here, the Config keys JbsOptions mirrors; when not loaded
// the engine runs whatever other plugin it was given, unchanged.
#pragma once

#include <memory>

#include "jbs/mof_supplier.h"
#include "jbs/net_merger.h"
#include "mapred/shuffle.h"
#include "transport/rdma_transport.h"
#include "transport/transport.h"

namespace jbs::shuffle {

enum class TransportKind { kTcp, kRdma };

/// The plugin's runtime parameters, one per conf:: key it reads. Every
/// other supplier and merger value is the component's own Options default.
struct JbsOptions {
  TransportKind transport = TransportKind::kTcp;
  size_t buffer_size = 128 * 1024;  // transport buffer (Fig. 11)
  bool pipelined = true;    // MofSupplier prefetch pipeline
  bool consolidate = true;  // NetMerger connection consolidation
  bool round_robin = true;  // NetMerger balanced injection
  // Negotiated wire compression (DESIGN.md §14): the supplier compresses
  // eligible chunks for peers that advertised the capability, and the
  // merger advertises it whenever the knob is on.
  bool wire_compress = false;
};

class JbsShufflePlugin final : public mr::ShufflePlugin {
 public:
  using Options = JbsOptions;

  explicit JbsShufflePlugin(Options options = Options());

  /// Fills JbsOptions from its conf:: keys in `conf`. A buffer size that
  /// cannot carry a data frame (at most the header, or past the
  /// transports' frame cap) keeps the 128 KiB default, with a warning.
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
