#include "jbs/plugin.h"

namespace jbs::shuffle {

JbsShufflePlugin::JbsShufflePlugin(Options options) : options_(options) {
  switch (options_.transport) {
    case TransportKind::kTcp: {
      net::TcpTransportOptions topts;
      topts.max_frame_bytes = options_.max_frame_bytes;
      transport_ = net::MakeTcpTransport(topts);
      break;
    }
    case TransportKind::kRdma: {
      net::RdmaTransportOptions ropts;
      ropts.buffer_size = options_.buffer_size;
      ropts.max_message_bytes = options_.max_frame_bytes;
      transport_ = net::MakeSoftRdmaTransport(ropts);
      break;
    }
  }
}

JbsShufflePlugin::Options JbsShufflePlugin::OptionsFromConfig(
    const Config& conf) {
  Options options;
  options.transport = conf.GetOr("jbs.transport", "tcp") == "rdma"
                          ? TransportKind::kRdma
                          : TransportKind::kTcp;
  options.buffer_size = static_cast<size_t>(
      conf.GetSize(conf::kTransportBufferSize, 128 * 1024));
  options.buffer_count = static_cast<size_t>(
      conf.GetInt(conf::kTransportBufferCount, 64));
  options.data_threads =
      static_cast<int>(conf.GetInt(conf::kNetMergerDataThreads, 3));
  options.prefetch_batch =
      static_cast<int>(conf.GetInt(conf::kPrefetchBatch, 4));
  options.prefetch_threads =
      static_cast<int>(conf.GetInt(conf::kPrefetchThreads, 2));
  options.fd_cache_entries =
      static_cast<size_t>(conf.GetInt(conf::kFdCacheEntries, 128));
  options.fetch_window =
      static_cast<int>(conf.GetInt(conf::kFetchWindow, 4));
  options.connection_cache_capacity = static_cast<size_t>(
      conf.GetInt(conf::kConnectionCacheCapacity, 512));
  options.pipelined = conf.GetBool("jbs.mofsupplier.pipelined", true);
  options.consolidate = conf.GetBool("jbs.netmerger.consolidate", true);
  options.round_robin = conf.GetBool("jbs.netmerger.roundrobin", true);
  options.fetch_deadline_ms = conf.GetInt(conf::kFetchDeadlineMs, 0);
  options.connect_timeout_ms = conf.GetInt(conf::kConnectTimeoutMs, 0);
  options.chunk_timeout_ms = conf.GetInt(conf::kChunkTimeoutMs, 0);
  options.connection_idle_ms = conf.GetInt(conf::kConnectionIdleMs, 0);
  options.chunk_crc = conf.GetBool(conf::kVerifyCrc, true);
  options.health_suspect_after =
      static_cast<int>(conf.GetInt(conf::kHealthSuspectAfter, 1));
  options.health_penalize_after =
      static_cast<int>(conf.GetInt(conf::kHealthPenalizeAfter, 3));
  options.health_penalty_ms = conf.GetInt(conf::kHealthPenaltyMs, 200);
  options.health_penalty_max_ms =
      conf.GetInt(conf::kHealthPenaltyMaxMs, 10000);
  options.max_frame_bytes = static_cast<size_t>(
      conf.GetSize(conf::kMaxFrameBytes, 64 * 1024 * 1024));
  options.wire_compress = conf.GetBool(conf::kWireCompressEnabled, false);
  options.wire_compress_min_bytes = static_cast<uint64_t>(
      conf.GetSize(conf::kWireCompressMinBytes, 4096));
  options.wire_compress_min_ratio =
      conf.GetDouble(conf::kWireCompressMinRatio, 0.9);
  options.admission_max_queue =
      static_cast<size_t>(conf.GetInt(conf::kAdmissionMaxQueue, 0));
  options.admission_max_inflight_bytes = static_cast<uint64_t>(
      conf.GetSize(conf::kAdmissionMaxInflightBytes, 0));
  options.admission_datacache_watermark =
      conf.GetDouble(conf::kAdmissionDataCacheWatermark, 0);
  options.admission_acquire_timeout_ms =
      static_cast<int>(conf.GetInt(conf::kAdmissionAcquireTimeoutMs, 100));
  options.pushback_retry_budget =
      static_cast<int>(conf.GetInt(conf::kPushbackRetryBudget, 32));
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
  sopts.buffer_count = options_.buffer_count;
  sopts.prefetch_batch = options_.prefetch_batch;
  sopts.prefetch_threads = options_.prefetch_threads;
  sopts.fd_cache_entries = options_.fd_cache_entries;
  sopts.pipelined = options_.pipelined;
  sopts.chunk_crc = options_.chunk_crc;
  sopts.wire_compress = options_.wire_compress;
  sopts.wire_compress_min_bytes = options_.wire_compress_min_bytes;
  sopts.wire_compress_min_ratio = options_.wire_compress_min_ratio;
  sopts.admission_max_queue = options_.admission_max_queue;
  sopts.admission_max_inflight_bytes = options_.admission_max_inflight_bytes;
  sopts.admission_datacache_watermark = options_.admission_datacache_watermark;
  sopts.admission_acquire_timeout_ms = options_.admission_acquire_timeout_ms;
  return std::make_unique<MofSupplier>(sopts);
}

std::unique_ptr<mr::ShuffleClient> JbsShufflePlugin::CreateClient(
    int node, const Config& /*conf*/) {
  NetMerger::Options nopts;
  nopts.transport = transport_.get();
  nopts.metrics = &metrics_;
  nopts.trace = &trace_;
  nopts.instance = "node" + std::to_string(node);
  nopts.data_threads = options_.data_threads;
  nopts.chunk_size = options_.buffer_size - kDataHeaderSize;
  nopts.fetch_window = options_.fetch_window;
  nopts.connection_cache_capacity = options_.connection_cache_capacity;
  nopts.consolidate = options_.consolidate;
  nopts.round_robin = options_.round_robin;
  nopts.fetch_deadline_ms = options_.fetch_deadline_ms;
  nopts.connect_timeout_ms = options_.connect_timeout_ms;
  nopts.chunk_timeout_ms = options_.chunk_timeout_ms;
  nopts.connection_idle_ms = options_.connection_idle_ms;
  nopts.verify_crc = options_.chunk_crc;
  nopts.advertise_wire_compress = options_.wire_compress;
  nopts.health_suspect_after = options_.health_suspect_after;
  nopts.health_penalize_after = options_.health_penalize_after;
  nopts.health_penalty_ms = options_.health_penalty_ms;
  nopts.health_penalty_max_ms = options_.health_penalty_max_ms;
  nopts.pushback_retry_budget = options_.pushback_retry_budget;
  return std::make_unique<NetMerger>(nopts);
}

}  // namespace jbs::shuffle
