#include "jbs/plugin.h"

#include "common/logging.h"

namespace jbs::shuffle {

JbsShufflePlugin::JbsShufflePlugin(Options options) : options_(options) {
  switch (options_.transport) {
    case TransportKind::kTcp:
      transport_ = net::MakeTcpTransport();
      break;
    case TransportKind::kRdma: {
      net::RdmaTransportOptions ropts;
      ropts.buffer_size = options_.buffer_size;
      transport_ = net::MakeSoftRdmaTransport(ropts);
      break;
    }
  }
}

JbsShufflePlugin::Options JbsShufflePlugin::OptionsFromConfig(
    const Config& conf) {
  Options options;
  options.transport = conf.GetOr(conf::kTransport, "tcp") == "rdma"
                          ? TransportKind::kRdma
                          : TransportKind::kTcp;
  // A data frame is a header plus at least one payload byte, and no
  // transport accepts a frame past its cap; outside those bounds the
  // chunk size would underflow or the DataCache balloon.
  const int64_t buffer_size = conf.GetSize(
      conf::kTransportBufferSize, static_cast<int64_t>(options.buffer_size));
  const size_t frame_cap = net::TcpTransportOptions().max_frame_bytes;
  if (buffer_size <= static_cast<int64_t>(kDataHeaderSize) ||
      buffer_size > static_cast<int64_t>(frame_cap)) {
    JBS_WARN << conf::kTransportBufferSize << " = " << buffer_size
             << " is outside (" << kDataHeaderSize << ", " << frame_cap
             << "]; keeping " << options.buffer_size;
  } else {
    options.buffer_size = static_cast<size_t>(buffer_size);
  }
  options.pipelined = conf.GetBool(conf::kPipelined, options.pipelined);
  options.consolidate = conf.GetBool(conf::kConsolidate, options.consolidate);
  options.round_robin = conf.GetBool(conf::kRoundRobin, options.round_robin);
  options.wire_compress =
      conf.GetBool(conf::kWireCompressEnabled, options.wire_compress);
  return options;
}

std::string JbsShufflePlugin::name() const {
  return options_.transport == TransportKind::kRdma ? "jbs-rdma" : "jbs-tcp";
}

std::unique_ptr<mr::ShuffleServer> JbsShufflePlugin::CreateServer(
    int node, const Config& /*conf*/) {
  MofSupplier::Options sopts;
  sopts.transport = transport_.get();
  sopts.metrics = &metrics_;
  sopts.instance = "node" + std::to_string(node);
  sopts.buffer_size = options_.buffer_size;
  sopts.pipelined = options_.pipelined;
  sopts.wire_compress = options_.wire_compress;
  return std::make_unique<MofSupplier>(sopts);
}

std::unique_ptr<mr::ShuffleClient> JbsShufflePlugin::CreateClient(
    int node, const Config& /*conf*/) {
  NetMerger::Options nopts;
  nopts.transport = transport_.get();
  nopts.metrics = &metrics_;
  nopts.trace = &trace_;
  nopts.instance = "node" + std::to_string(node);
  nopts.chunk_size = options_.buffer_size - kDataHeaderSize;
  nopts.consolidate = options_.consolidate;
  nopts.round_robin = options_.round_robin;
  nopts.advertise_wire_compress = options_.wire_compress;
  return std::make_unique<NetMerger>(nopts);
}

}  // namespace jbs::shuffle
