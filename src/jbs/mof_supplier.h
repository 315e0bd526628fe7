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
//   send stage — one thread (so every connection's replies stay in
//     order) that hands the pre-encoded scatter-gather frames to the
//     transport's event thread. The chunk bytes are never copied into the
//     frame: the pooled buffer rides along as the frame's lease and
//     returns to the DataCache only after the transport has put its last
//     byte on the wire.
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
    size_t fd_cache_entries = 128;  // open MOF data-file descriptors
    // Negotiated wire compression: chunks served to clients that advertised
    // kCapWireCompression in their hello are LZSS-compressed in the
    // prefetch stage when at least `wire_compress_min_bytes` long and not
    // already segment-compressed on disk. Chunks that do not shrink below
    // 90% of their size ship raw. Off by default: the knob trades supplier
    // CPU for wire bytes, which only pays on compressible workloads.
    bool wire_compress = false;
    uint64_t wire_compress_min_bytes = 4096;
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
  /// (pooled buffer or compressed vector) keeps the chunk bytes
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
  /// Pipelined stage 2: hand encoded frames to the transport event thread.
  void SendLoop();
  /// Hands one encoded data frame to the transport and accounts for it:
  /// `chunk` logical bytes served as `wire` payload bytes, latency measured
  /// from `enqueued`; a refused send counts as an error.
  void SendData(net::ConnId conn, Frame frame, uint64_t chunk, uint64_t wire,
                std::chrono::steady_clock::time_point enqueued);
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
  /// Stamps `header` with the full wire CRC (kChunkHasCrc). Every data
  /// chunk carries one; `data` is hashed on every send, retransmits
  /// included.
  void StampChunkCrc(FetchDataHeader* header,
                     std::span<const uint8_t> data) const;
  /// True if this chunk should be considered for wire compression: the
  /// peer advertised the capability, the chunk clears the min-size gate,
  /// and the segment isn't already block-compressed on disk.
  bool WireCompressEligible(const PendingRequest& pending,
                            const FetchDataHeader& header,
                            uint64_t chunk) const;
  /// Compresses a freshly read chunk and applies the min-ratio bail-out.
  /// Returns the compressed payload (and its CRC) on success, nullptr when
  /// the chunk ships raw.
  std::shared_ptr<const std::vector<uint8_t>> CompressChunk(
      std::span<const uint8_t> data, uint32_t* crc);
  /// Queues a kChunkCompressed reply whose payload rides the compressed
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

  MetricCounter* chunks_compressed_c_ = nullptr;
  MetricCounter* compress_bailouts_c_ = nullptr;
  MetricCounter* wire_bytes_logical_c_ = nullptr;
  MetricCounter* wire_bytes_wire_c_ = nullptr;
  MetricHistogram* compress_ratio_h_ = nullptr;

  // Serve state shared by the disk and send stages: the MOF data-file
  // descriptor cache and the per-connection capabilities from the hello
  // frame (erased on disconnect).
  FdCache fd_cache_;
  Mutex caps_mu_;
  std::map<net::ConnId, uint32_t> conn_caps_ GUARDED_BY(caps_mu_);
  BlockingQueue<ReadyReply> send_queue_;
  std::thread send_thread_;

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
  // admission decision that shed the request (queue / inflight_bytes),
  // plus a queue-depth histogram observed at every intake.
  MetricCounter* shed_queue_c_ = nullptr;
  MetricCounter* shed_inflight_c_ = nullptr;
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
