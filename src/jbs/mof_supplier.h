// MOFSupplier (§III-B): the native server half of JBS. One per node,
// replacing the TaskTracker's HttpServlets. Incoming fetch requests are
// grouped by their target MOF and ordered by requested segment; the serve
// path is a two-stage pipeline:
//
//   prefetch stage — a pool of disk threads pops round-robin batches
//     (one group checked out per thread at a time, so replies for a
//     (map, partition) stay in offset order), preads segments into
//     DataCache pooled buffers through an LRU fd cache, and hands ready
//     buffers to the send stage;
//   send stage — one thread per serve shard (Options::serve_shards;
//     connections route to shards by ConnId, so a connection's replies
//     stay ordered) that hands the pre-encoded scatter-gather frames to
//     the transport's event thread. The chunk bytes are
//     never copied into the frame: the pooled buffer rides along as the
//     frame's lease and returns to the DataCache only after the transport
//     has put its last byte on the wire.
//
// Disk reads for request N+1 therefore overlap the network transmit of
// request N (Fig. 5), and DataCache exhaustion — which now includes
// buffers still in flight on the socket — throttles the disk stage ahead
// of the network, where the stock HttpServlet serializes read and
// transmit per request (Fig. 4). With `pipelined = false` the supplier
// degrades to the seed's serialized single-thread read-then-send service
// for the paper ablation.
#pragma once

#include <atomic>
#include <climits>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/blocking_queue.h"
#include "common/buffer_pool.h"
#include "common/fd_cache.h"
#include "common/lru_cache.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/stats.h"
#include "common/thread_annotations.h"
#include "jbs/index_cache.h"
#include "jbs/protocol.h"
#include "mapred/shuffle.h"
#include "transport/transport.h"

namespace jbs::shuffle {

class MofSupplier final : public mr::ShuffleServer {
 public:
  struct Options {
    net::Transport* transport = nullptr;  // required
    size_t buffer_size = 128 * 1024;      // transport buffer (Fig. 11)
    size_t buffer_count = 64;             // DataCache = size * count
    size_t index_cache_entries = 1024;
    size_t fd_cache_entries = 128;  // open MOF data-file descriptors
    bool chunk_crc = true;    // stamp every data chunk with a CRC32 the
                              // client can verify before merging
    // Negotiated wire compression: chunks served to clients that advertised
    // kCapWireCompression in their hello are LZSS-compressed in the
    // prefetch stage when at least `wire_compress_min_bytes` long and not
    // already segment-compressed on disk. The compressed bytes are memoized
    // in an LRU (compress once per chunk across retransmits); chunks whose
    // compressed size exceeds `chunk * wire_compress_min_ratio` are
    // memoized as incompressible and ship raw. Off by default: the knob
    // trades supplier CPU for wire bytes, which only pays on compressible
    // workloads.
    bool wire_compress = false;
    uint64_t wire_compress_min_bytes = 4096;
    double wire_compress_min_ratio = 0.9;
    size_t compress_cache_entries = 1024;  // compressed-chunk memo (LRU)
    int prefetch_batch = 4;   // requests served per group per turn
    int prefetch_threads = 2; // disk-stage pool (pipelined mode only)
    bool pipelined = true;    // ablation: false degrades to serialized
                              // per-request service (HttpServlet-like)
    // Overload control (DESIGN.md §16). Admission is decided at frame
    // intake: a request that would push the pending-request count past
    // `admission_max_queue`, or the admitted-byte budget (sum of max_len
    // over requests accepted but not yet served) past
    // `admission_max_inflight_bytes`, is shed with a kErrorBusy reply
    // carrying a backlog-derived retry-after-ms hint, instead of queueing
    // unboundedly. 0 disables each bound (legacy behavior).
    size_t admission_max_queue = 0;
    uint64_t admission_max_inflight_bytes = 0;
    // DataCache occupancy watermark: once the fraction of pool buffers in
    // use reaches it, the prefetch stage switches from "block on Acquire"
    // (natural pipeline backpressure) to a bounded wait of
    // `admission_acquire_timeout_ms` that sheds the request with
    // kErrorBusy on expiry — saturation then pushes back to the merger
    // instead of parking disk threads indefinitely. 0 disables.
    double admission_datacache_watermark = 0;
    int admission_acquire_timeout_ms = 100;
    // Thread-per-core serve sharding (DESIGN.md §15): number of
    // independent serve shards, each owning its own fd-cache,
    // compress memo, capability map, and send stage. Connections route by
    // ConnId (whose low bits are the transport's accepting-loop index, so
    // shards align with accepting cores when this matches
    // TcpTransportOptions::num_loops); the compress memo routes by content
    // key so retransmits from any connection share one entry. 0 = one per
    // core capped at 8; default 1 preserves the single send stage.
    int serve_shards = 1;
    // Calibrated disk model for benchmarking on hardware whose storage is
    // far faster than the paper's spindles: each pread is charged
    // `disk_seek_ms` when it does not continue that file's previous read,
    // plus bytes / `disk_bytes_per_sec` of streaming time, in a token
    // bucket shared by all disk threads (one device). Both the serialized
    // and the pipelined serve path pay the model at the same choke point,
    // so comparisons isolate the access pattern and the overlap. 0/0 (the
    // default) disables the model entirely.
    double disk_bytes_per_sec = 0;
    double disk_seek_ms = 0;
    // Observability: a shared MetricsRegistry (e.g. the plugin's, so
    // client and server publish into one exposition), or nullptr for a
    // private one owned by this supplier. `instance` distinguishes
    // per-instance gauges when the registry is shared.
    MetricsRegistry* metrics = nullptr;
    std::string instance{};
  };

  explicit MofSupplier(Options options);
  ~MofSupplier() override;

  Status Start() override;
  uint16_t port() const override;
  Status PublishMof(const mr::MofHandle& handle) override EXCLUDES(mu_);
  void Stop() override EXCLUDES(mu_);
  Stats stats() const override;

  /// Legacy stats view, now a thin read of the MetricsRegistry counters —
  /// kept so existing callers (tests, benches) don't have to learn metric
  /// names.
  struct SupplierStats {
    uint64_t requests = 0;
    uint64_t bytes_served = 0;
    uint64_t batches = 0;          // disk-server turns
    uint64_t group_switches = 0;   // MOF changes between consecutive reads
    uint64_t errors = 0;
    uint64_t disconnect_purges = 0;  // queued requests dropped because
                                     // their connection went away
    uint64_t bytes_logical = 0;      // pre-compression data bytes served
    uint64_t bytes_wire = 0;         // payload bytes actually on the wire
    uint64_t chunks_compressed = 0;
    uint64_t compress_bailouts = 0;  // chunks that didn't compress enough
    uint64_t shed = 0;               // requests answered with kErrorBusy
    IndexCache::Stats index;
    FdCache::Stats fd;
    Summary request_latency_ms;    // enqueue -> response handed to transport
  };
  SupplierStats supplier_stats() const;

  /// The registry this supplier publishes into (owned or shared).
  MetricsRegistry& metrics() const { return *metrics_; }

  /// Live request-group queues. Drained groups are erased eagerly, so this
  /// returns to 0 between bursts instead of growing with finished maps.
  size_t pending_group_count() const EXCLUDES(mu_);

 private:
  struct PendingRequest {
    net::ConnId conn;
    FetchRequest request;
    std::chrono::steady_clock::time_point enqueued;
    // Captured at enqueue time from the connection's hello so the disk
    // stage never touches the caps map: did this peer advertise
    // kCapWireCompression (and is the knob on)?
    bool compress_ok = false;
  };

  /// One ready reply travelling from the prefetch stage to the send stage.
  /// Data replies carry a pre-encoded scatter-gather frame whose lease
  /// (pooled buffer or memoized compressed chunk) keeps the chunk bytes
  /// alive until the transport has put them on the wire; error replies
  /// carry just the FetchError.
  struct ReadyReply {
    net::ConnId conn = 0;
    bool is_error = false;
    Frame frame;
    uint64_t chunk = 0;  // logical (decompressed) data bytes
    uint64_t wire = 0;   // payload bytes on the wire (== chunk unless the
                         // chunk went out compressed)
    FetchError error;
    std::chrono::steady_clock::time_point enqueued;
  };

  void OnFrame(net::ConnId conn, Frame frame) EXCLUDES(mu_);
  /// Drops queued requests from a departed connection so the disk stage
  /// doesn't read (and the send stage doesn't encode) for a dead peer.
  void OnDisconnect(net::ConnId conn) EXCLUDES(mu_);
  void DiskLoop() EXCLUDES(mu_);
  /// Pops the next round-robin batch and checks its group out (busy) so no
  /// other disk thread serves the same MOF concurrently. Blocks until work
  /// exists or shutdown; false on shutdown. Drained group queues are erased.
  bool NextBatch(std::vector<PendingRequest>* batch, int* group_key)
      EXCLUDES(mu_);
  /// Pipelined stage 1: pread into a pooled buffer, hand to the send stage.
  void PrefetchOne(const PendingRequest& pending);
  /// Serialized ablation path: read + encode + transmit inline (seed
  /// behavior).
  void ServeInline(const PendingRequest& pending);
  /// Resolves the request to (handle, index entry, chunk length); on any
  /// validation failure reports the error via `fail` and returns false.
  bool ResolveRequest(const PendingRequest& pending, mr::MofHandle* handle,
                      FetchDataHeader* header, uint64_t* disk_offset,
                      uint64_t* chunk,
                      const std::function<void(const std::string&)>& fail)
      EXCLUDES(mu_);
  void EnqueueError(net::ConnId conn, const FetchRequest& request,
                    const std::string& message,
                    std::chrono::steady_clock::time_point enqueued);
  /// Immediate kErrorBusy pushback for a shed request. Never blocks: the
  /// frame goes straight to the transport's async send queue, so shedding
  /// stays cheap exactly when the supplier is drowning.
  void SendBusy(net::ConnId conn, const FetchRequest& request,
                uint32_t retry_after_ms);
  /// Backlog-proportional retry hint carried in busy replies.
  uint32_t RetryAfterHintMs(size_t queued) const;
  void SendErrorNow(net::ConnId conn, const FetchRequest& request,
                    const std::string& message);
  Status PreadInto(const mr::MofHandle& handle, uint64_t offset,
                   std::span<uint8_t> out);
  /// Stamps `header` with the full wire CRC (kChunkHasCrc) when enabled.
  /// Hashes `data` on every send: at memory speed a retransmit's re-hash
  /// costs less than a memo lookup behind a lock.
  void StampChunkCrc(FetchDataHeader* header,
                     std::span<const uint8_t> data) const;
  /// True if this chunk should be considered for wire compression: the
  /// peer advertised the capability, the chunk clears the min-size gate,
  /// and the segment isn't already block-compressed on disk.
  bool WireCompressEligible(const PendingRequest& pending,
                            const FetchDataHeader& header,
                            uint64_t chunk) const;
  /// Compressed-chunk memo probe. kCompressed sets `*payload`/`*crc`.
  enum class CompressMemo { kMiss, kCompressed, kIncompressible };
  CompressMemo LookupCompressed(
      const FetchRequest& request, uint64_t chunk,
      std::shared_ptr<const std::vector<uint8_t>>* payload, uint32_t* crc);
  /// Compresses a freshly read chunk, applies the min-ratio bail-out, and
  /// memoizes the outcome either way. Returns the compressed payload (and
  /// its CRC) on success, nullptr when the chunk ships raw.
  std::shared_ptr<const std::vector<uint8_t>> CompressAndMemoize(
      const FetchRequest& request, std::span<const uint8_t> data,
      uint32_t* crc);
  /// Queues a kChunkCompressed reply whose payload rides the memoized
  /// vector as the frame's lease (no copy). `inline_send` transmits
  /// directly (serialized ablation mode) instead of via the send stage.
  void EnqueueCompressed(const PendingRequest& pending, FetchDataHeader header,
                         uint64_t chunk,
                         std::shared_ptr<const std::vector<uint8_t>> payload,
                         uint32_t payload_crc, bool inline_send);
  /// Sleeps for the modeled disk time of a pread (see
  /// Options::disk_seek_ms); no-op when the model is disabled.
  void ChargeDiskModel(int fd, uint64_t offset, size_t bytes)
      EXCLUDES(disk_model_mu_);
  /// Labels shared by all of this supplier's metrics.
  MetricLabels BaseLabels() const;
  /// Re-exports component-owned values (cache hit counters, DataCache
  /// occupancy, send-queue depth, endpoint byte counts) as push gauges.
  /// Called from the stats accessors and Stop(), so dumps taken after
  /// shutdown still carry final values.
  void RefreshGauges() const;

  Options options_;
  std::unique_ptr<net::ServerEndpoint> endpoint_;
  BufferPool data_cache_;
  IndexCache index_cache_;

  // Chunk key for the compress memo: (map, partition, offset, len). A
  // packed POD, so a lookup formats no strings and allocates nothing.
  struct CrcKey {
    int32_t map_task = 0;
    int32_t partition = 0;
    uint64_t offset = 0;
    uint64_t length = 0;
    bool operator==(const CrcKey&) const = default;
  };
  struct CrcKeyHash {
    using is_transparent = void;
    size_t operator()(const CrcKey& key) const {
      // splitmix64-style finalizer over the packed fields; cheap and
      // well-distributed for the sequential offsets a fetch sweep emits.
      auto mix = [](uint64_t x) {
        x += 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
      };
      const uint64_t a =
          (static_cast<uint64_t>(static_cast<uint32_t>(key.map_task)) << 32) |
          static_cast<uint32_t>(key.partition);
      return static_cast<size_t>(
          mix(mix(a) ^ mix(key.offset) ^ (mix(key.length) << 1)));
    }
  };
  // Compressed-chunk memo, keyed by CrcKey. It carries the CRC of the
  // compressed bytes, taken once when they are produced. `data == nullptr`
  // memoizes "didn't compress well enough — ship raw" so the bail-out is
  // also paid once per chunk, not per retransmit.
  struct CompressedChunk {
    std::shared_ptr<const std::vector<uint8_t>> data;
    uint32_t crc = 0;  // Crc32 over *data (the compressed bytes)
  };
  MetricCounter* compress_cache_hits_c_ = nullptr;
  MetricCounter* compress_cache_misses_c_ = nullptr;
  MetricCounter* chunks_compressed_c_ = nullptr;
  MetricCounter* compress_bailouts_c_ = nullptr;
  MetricCounter* wire_bytes_logical_c_ = nullptr;
  MetricCounter* wire_bytes_wire_c_ = nullptr;
  MetricHistogram* compress_ratio_h_ = nullptr;

  // §15 thread-per-core serve state: one shard per serving core, each
  // owning the caches and the send stage for the work routed to it, so
  // two cores serving different connections share no locks on the
  // per-byte path. Content-keyed state (compress memo, fd cache) routes by
  // hash so retransmits from any connection share one entry;
  // connection-keyed state (caps, send queue) routes by ConnId so a
  // connection's frames stay ordered through a single send thread.
  struct ServeShard {
    ServeShard(size_t fd_entries, size_t compress_entries,
               size_t queue_capacity)
        : fd_cache(fd_entries),
          compress_cache(compress_entries),
          send_queue(queue_capacity) {}
    FdCache fd_cache;
    Mutex compress_mu;
    LruCache<CrcKey, CompressedChunk, CrcKeyHash> compress_cache
        GUARDED_BY(compress_mu);
    // Per-connection capabilities from the hello frame, erased on
    // disconnect. The transport invokes a connection's handlers from its
    // pinned loop thread, so only same-shard threads contend here.
    Mutex caps_mu;
    std::map<net::ConnId, uint32_t> conn_caps GUARDED_BY(caps_mu);
    BlockingQueue<ReadyReply> send_queue;
    std::thread send_thread;
  };
  std::vector<std::unique_ptr<ServeShard>> shards_;

  ServeShard& MemoShardOf(const CrcKey& key) const {
    return *shards_[CrcKeyHash{}(key) % shards_.size()];
  }
  ServeShard& PathShardOf(const std::string& path) const {
    return *shards_[std::hash<std::string>{}(path) % shards_.size()];
  }
  // ConnId low bits are the transport's accepting-loop index (see
  // tcp_transport), so serve shards align with accepting cores when
  // serve_shards matches the transport's loop count.
  ServeShard& ConnShardOf(net::ConnId conn) const {
    return *shards_[static_cast<size_t>(conn) % shards_.size()];
  }

  /// Pipelined stage 2 (one per shard): encode ready buffers and hand
  /// frames to the transport event thread.
  void SendLoop(ServeShard& shard);
  /// Sums per-shard fd-cache counters for scrape-time reporting.
  FdCache::Stats AggregateFdStats() const;

  // Observability plumbing: pointers into metrics_ (never null; falls back
  // to the owned registry when options don't share one).
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  MetricCounter* requests_c_ = nullptr;
  MetricCounter* bytes_served_c_ = nullptr;
  MetricCounter* batches_c_ = nullptr;
  MetricCounter* group_switches_c_ = nullptr;
  MetricCounter* errors_c_ = nullptr;
  MetricCounter* disconnect_purges_c_ = nullptr;
  MetricHistogram* request_latency_ms_h_ = nullptr;
  // Overload-control series: jbs_supplier_shed_total broken out by the
  // admission decision that shed the request (queue / inflight_bytes /
  // datacache), plus a queue-depth histogram observed at every intake.
  MetricCounter* shed_queue_c_ = nullptr;
  MetricCounter* shed_inflight_c_ = nullptr;
  MetricCounter* shed_datacache_c_ = nullptr;
  MetricHistogram* queue_depth_h_ = nullptr;

  mutable Mutex mu_;
  CondVar work_cv_;
  // map_task -> handle
  std::map<int, mr::MofHandle> published_ GUARDED_BY(mu_);
  // Request grouping: one queue per target MOF, requests within a group
  // ordered by intended segment offset via ordered insertion. Queues are
  // erased as they drain (and recreated on demand), so long-running
  // suppliers don't accumulate a map entry per finished map task.
  std::map<int, std::deque<PendingRequest>> groups_ GUARDED_BY(mu_);
  // Groups checked out by a disk thread.
  std::set<int> busy_groups_ GUARDED_BY(mu_);
  // Requests admitted (sitting in groups_) but not yet popped by a disk
  // thread — the admission queue depth.
  size_t queued_requests_ GUARDED_BY(mu_) = 0;
  // Admission byte budget: sum of max_len over requests admitted but not
  // yet served. Charged at intake, released when the disk stage finishes
  // the request (any outcome) or a disconnect purges it.
  std::atomic<uint64_t> admitted_bytes_{0};
  // Round-robin pointer (last group served).
  int rr_last_ GUARDED_BY(mu_) = INT_MIN;
  bool stopping_ GUARDED_BY(mu_) = false;

  // group_switches detection only; all counters live in the registry.
  // A relaxed exchange replaces the old dedicated mutex: detection is a
  // single compare-and-swap of the last MOF id, never a critical section.
  std::atomic<int> last_served_mof_{-1};

  // Calibrated-disk model state: a token bucket serializing modeled disk
  // time plus per-descriptor stream positions for seek detection.
  Mutex disk_model_mu_;
  std::chrono::steady_clock::time_point disk_available_at_
      GUARDED_BY(disk_model_mu_){};
  // fd -> next sequential offset
  std::map<int, uint64_t> disk_stream_pos_ GUARDED_BY(disk_model_mu_);

  std::vector<std::thread> disk_threads_;
};

}  // namespace jbs::shuffle
