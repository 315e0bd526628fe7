// MOFSupplier (§III-B): the native server half of JBS. One per node,
// replacing the TaskTracker's HttpServlets. Incoming fetch requests are
// grouped by their target MOF and ordered by requested segment; the serve
// path is a two-stage pipeline:
//
//   disk stage — a pool of disk threads pops round-robin batches and turns
//     each request into a ready reply (ReadChunk): pread into a DataCache
//     pooled buffer through an LRU fd cache, compress or CRC-stamp, and
//     encode a zero-copy frame whose lease is that buffer. The disk thread
//     then hands the frame to the transport's asynchronous send (Deliver);
//   send stage — the transport's own FIFO send queue: the epoll loop's
//     RunInLoop list (TCP) or the soft-RDMA send thread. The chunk bytes
//     are never copied into the frame: the pooled buffer returns to the
//     DataCache only after the transport has put its last byte on the wire.
//
// A disk thread checks out one MOF group at a time and posts its batch's
// replies before it releases the group, so a (map, partition)'s replies
// enter the FIFO, and leave on the wire, in offset order.
//
// Disk reads for request N+1 therefore overlap the network transmit of
// request N (Fig. 5), and DataCache exhaustion — which includes buffers
// still in flight on the socket — throttles the disk stage ahead of the
// network, where the stock HttpServlet serializes read and transmit per
// request (Fig. 4). With `pipelined = false` (the paper's ablation) one
// disk thread serves a single FIFO one request at a time: the same
// ReadChunk and Deliver, serialized.
#pragma once

#include <atomic>
#include <climits>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

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
    // Negotiated wire compression: the supplier *may* compress chunks for
    // clients that advertised kCapWireCompression in their hello. A chunk
    // is compressed in the disk stage when it is at least
    // `wire_compress_min_bytes` long, not already segment-compressed on
    // disk, and its connection's wire still held bytes ahead of it when
    // its request arrived (ServerEndpoint::Backlog > 0): a chunk bound for
    // an idle wire ships raw (DESIGN.md §14). Chunks that do not shrink below 90%
    // of their size ship raw too. Off by default: the codec trades CPU on
    // both ends for wire bytes, which pays only on compressible data over
    // a wire slower than the codec.
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
  Status PublishMof(const mr::MofHandle& handle) override;
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

  /// One reply from the disk stage, ready to send. Data replies carry a
  /// pre-encoded scatter-gather frame whose lease (pooled buffer or
  /// compressed vector) keeps the chunk bytes alive until the transport
  /// has put them on the wire; error replies carry just the FetchError.
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
  /// doesn't read (and the transport doesn't queue) for a dead peer.
  void OnDisconnect(net::ConnId conn) EXCLUDES(mu_);
  void DiskLoop() EXCLUDES(mu_);
  /// Pops the next round-robin batch and checks its group out (busy) so no
  /// other disk thread serves the same MOF concurrently. Blocks until work
  /// exists or shutdown; false on shutdown. Drained group queues are erased.
  bool NextBatch(std::vector<PendingRequest>* batch, int* group_key)
      EXCLUDES(mu_);
  /// Disk stage, both modes: resolve -> DataCache buffer -> pread ->
  /// compress-or-CRC -> zero-copy frame. A failed resolve or read yields
  /// an error reply; nullopt means the DataCache was cancelled (shutdown).
  std::optional<ReadyReply> ReadChunk(const PendingRequest& pending);
  /// Runs on the disk thread, both modes: hands one reply to the
  /// transport's asynchronous send and accounts for it — served logical
  /// and wire bytes and latency from enqueue; a refused send or an error
  /// reply counts as an error.
  void Deliver(ReadyReply ready);
  /// Resolves the request to (data path, index entry, chunk length); any
  /// validation failure is returned as the reply's error.
  Status ResolveRequest(const FetchRequest& request, std::string* data_path,
                        FetchDataHeader* header, uint64_t* disk_offset,
                        uint64_t* chunk);
  /// Immediate kErrorBusy pushback for a shed request. Never blocks: the
  /// frame goes straight to the transport's async send queue, so shedding
  /// stays cheap exactly when the supplier is drowning.
  void SendBusy(net::ConnId conn, const FetchRequest& request,
                uint32_t retry_after_ms);
  /// Backlog-proportional retry hint carried in busy replies.
  uint32_t RetryAfterHintMs(size_t queued) const;
  Status PreadInto(const std::string& data_path, uint64_t offset,
                   std::span<uint8_t> out);
  /// Stamps `header` with the full wire CRC (kChunkHasCrc). Every data
  /// chunk carries one; `data` is hashed on every send, retransmits
  /// included.
  void StampChunkCrc(FetchDataHeader* header,
                     std::span<const uint8_t> data) const;
  /// True if this chunk should be wire-compressed: the peer advertised the
  /// capability, the chunk clears the min-size gate, the segment isn't
  /// already block-compressed on disk, and the connection's wire is behind
  /// (ServerEndpoint::Backlog > 0). An otherwise eligible chunk bound for
  /// an idle wire counts in compress_skipped_idle.
  bool WireCompressEligible(const PendingRequest& pending,
                            const FetchDataHeader& header,
                            uint64_t chunk) const;
  /// Compresses a freshly read chunk into `ready`'s frame as a
  /// kChunkCompressed reply whose lease is the compressed vector (no
  /// copy). Returns false, leaving `ready` untouched, when the chunk does
  /// not shrink enough and ships raw instead.
  bool EncodeCompressed(FetchDataHeader header, std::span<const uint8_t> data,
                        ReadyReply* ready);
  /// Sleeps for the modeled disk time of a pread (see
  /// Options::disk_seek_ms); no-op when the model is disabled.
  void ChargeDiskModel(int fd, uint64_t offset, size_t bytes)
      EXCLUDES(disk_model_mu_);
  /// Labels shared by all of this supplier's metrics.
  MetricLabels BaseLabels() const;
  /// Re-exports component-owned values (cache hit counters, DataCache
  /// occupancy, endpoint send-queue depth and byte counts) as push gauges.
  /// Called from the stats accessors and Stop(), so dumps taken after
  /// shutdown still carry final values.
  void RefreshGauges() const;

  Options options_;
  std::unique_ptr<net::ServerEndpoint> endpoint_;
  BufferPool data_cache_;
  mr::MofRegistry published_;
  IndexCache index_cache_;

  MetricCounter* chunks_compressed_c_ = nullptr;
  MetricCounter* compress_bailouts_c_ = nullptr;
  MetricCounter* compress_skipped_idle_c_ = nullptr;
  MetricCounter* wire_bytes_logical_c_ = nullptr;
  MetricCounter* wire_bytes_wire_c_ = nullptr;
  MetricHistogram* compress_ratio_h_ = nullptr;

  // Serve state shared by the disk threads and the event thread: the MOF
  // data-file descriptor cache and the per-connection capabilities from
  // the hello frame (erased on disconnect).
  FdCache fd_cache_;
  Mutex caps_mu_;
  std::map<net::ConnId, uint32_t> conn_caps_ GUARDED_BY(caps_mu_);

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
