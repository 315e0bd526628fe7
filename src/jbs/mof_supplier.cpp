#include "jbs/mof_supplier.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <climits>

#include "common/bytes.h"
#include "common/compress.h"
#include "common/failpoints.h"
#include "common/logging.h"

namespace jbs::shuffle {

namespace {

/// pread the range at `offset` from `fd` into `out` (already sized).
/// The `supplier.pread` failpoint scripts EIO/short reads here — the
/// syscall boundary external chaos can't reach (DESIGN.md §16).
Status PreadFd(int fd, const std::string& path, uint64_t offset,
               std::span<uint8_t> out) {
  size_t done = 0;
  while (done < out.size()) {
    size_t want = out.size() - done;
    if (const auto fp = failpoints::Hit("supplier.pread")) {
      if (fp.kind == failpoints::Action::Kind::kError) {
        errno = fp.err;
        return IoError("pread " + path);
      }
      if (fp.kind == failpoints::Action::Kind::kShortRead) {
        want = std::min<size_t>(want,
                                static_cast<size_t>(std::max<uint64_t>(
                                    1, fp.arg)));
      }
    }
    const ssize_t n = ::pread(fd, out.data() + done, want,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError("pread " + path);
    }
    if (n == 0) return IoError("unexpected EOF in " + path);
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

/// pread attempts per chunk: a failed read gets one retry through a
/// reopened descriptor (the cache entry is invalidated between attempts —
/// the common transient cause is a stale fd after file replacement, and a
/// one-shot EIO storm also recovers here instead of surfacing to the
/// merger as a fetch error).
constexpr int kPreadAttempts = 2;

/// Index-file entries (one per MOF) kept parsed in memory.
constexpr size_t kIndexCacheEntries = 1024;

/// A wire-compressed chunk ships only if it came out at most this fraction
/// of its raw size; otherwise the CPU was spent for too little gain and
/// the raw bytes go out instead.
constexpr double kWireCompressMinRatio = 0.9;

}  // namespace

MofSupplier::MofSupplier(Options options)
    : options_(options),
      data_cache_(options.buffer_size, options.buffer_count),
      index_cache_(kIndexCacheEntries),
      fd_cache_(options.fd_cache_entries) {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  // shuffle_* names are shared with the baseline HttpShuffleServer (same
  // instrumentation, different `server` label) so JBS-vs-baseline
  // comparisons read one exposition; jbs_mofsupplier_* are JBS-internal.
  const MetricLabels base = BaseLabels();
  requests_c_ = metrics_->GetCounter("shuffle_requests_total", base);
  bytes_served_c_ = metrics_->GetCounter("shuffle_bytes_served_total", base);
  errors_c_ = metrics_->GetCounter("shuffle_serve_errors_total", base);
  request_latency_ms_h_ =
      metrics_->GetHistogram("shuffle_request_latency_ms", base);
  batches_c_ = metrics_->GetCounter("jbs_mofsupplier_batches_total", base);
  group_switches_c_ =
      metrics_->GetCounter("jbs_mofsupplier_group_switches_total", base);
  disconnect_purges_c_ =
      metrics_->GetCounter("jbs_mofsupplier_disconnect_purges_total", base);
  chunks_compressed_c_ =
      metrics_->GetCounter("jbs_mofsupplier_chunks_compressed_total", base);
  compress_bailouts_c_ =
      metrics_->GetCounter("jbs_mofsupplier_compress_bailouts_total", base);
  compress_skipped_idle_c_ = metrics_->GetCounter(
      "jbs_mofsupplier_compress_skipped_idle_total", base);
  wire_bytes_logical_c_ =
      metrics_->GetCounter("jbs_wire_bytes_logical_total", base);
  wire_bytes_wire_c_ = metrics_->GetCounter("jbs_wire_bytes_wire_total", base);
  compress_ratio_h_ = metrics_->GetHistogram("jbs_wire_compress_ratio", base);
  // Overload-control series (DESIGN.md §16): one shed counter per
  // admission decision point, split by a `reason` label so the exposition
  // shows *which* bound is saturating; the sum is jbs_supplier_shed_total.
  const auto shed_labels = [&](const char* reason) {
    MetricLabels labels = base;
    labels.emplace_back("reason", reason);
    return labels;
  };
  shed_queue_c_ =
      metrics_->GetCounter("jbs_supplier_shed_total", shed_labels("queue"));
  shed_inflight_c_ = metrics_->GetCounter("jbs_supplier_shed_total",
                                          shed_labels("inflight_bytes"));
  queue_depth_h_ = metrics_->GetHistogram("jbs_mofsupplier_queue_depth", base);
}

void MofSupplier::StampChunkCrc(FetchDataHeader* header,
                                std::span<const uint8_t> data) const {
  header->flags |= kChunkHasCrc;
  header->crc32 = ChunkWireCrc(*header, Crc32(data));
}

MetricLabels MofSupplier::BaseLabels() const {
  MetricLabels labels{{"server", "mofsupplier"}};
  if (!options_.instance.empty()) {
    labels.emplace_back("instance", options_.instance);
  }
  return labels;
}

void MofSupplier::RefreshGauges() const {
  const MetricLabels base = BaseLabels();
  const auto set = [&](const char* name, double v) {
    metrics_->GetGauge(name, base)->Set(v);
  };
  const FdCache::Stats fd = fd_cache_.stats();
  set("jbs_mofsupplier_fdcache_hits", static_cast<double>(fd.hits));
  set("jbs_mofsupplier_fdcache_misses", static_cast<double>(fd.misses));
  set("jbs_mofsupplier_fdcache_evictions", static_cast<double>(fd.evictions));
  set("jbs_mofsupplier_fdcache_open_failures",
      static_cast<double>(fd.open_failures));
  set("fd_cache_emergency_evictions",
      static_cast<double>(fd.emergency_evictions));
  const IndexCache::Stats index = index_cache_.stats();
  set("jbs_mofsupplier_indexcache_hits", static_cast<double>(index.hits));
  set("jbs_mofsupplier_indexcache_misses", static_cast<double>(index.misses));
  // DataCache occupancy: buffers checked out by the disk stage or still
  // queued in the transport.
  set("jbs_mofsupplier_datacache_buffers_total",
      static_cast<double>(data_cache_.capacity()));
  set("jbs_mofsupplier_datacache_buffers_in_use",
      static_cast<double>(data_cache_.capacity() - data_cache_.available()));
  // Overload gauge (DESIGN.md §16): disk threads parked on the DataCache.
  set("buffer_pool_waiters", static_cast<double>(data_cache_.waiters()));
  set("jbs_mofsupplier_pending_groups",
      static_cast<double>(pending_group_count()));
  {
    MutexLock lock(mu_);
    set("jbs_mofsupplier_queued_requests",
        static_cast<double>(queued_requests_));
  }
  // Process-wide user-space payload-copy odometer (framing layer). The
  // zero-copy serve path's whole point is that this stays flat while
  // bytes_served climbs.
  set("jbs_serve_bytes_copied_total",
      static_cast<double>(PayloadCopyBytes()));
  if (endpoint_) {
    const net::ServerEndpoint::Stats ep = endpoint_->stats();
    set("jbs_mofsupplier_endpoint_bytes_sent",
        static_cast<double>(ep.bytes_sent));
    set("jbs_mofsupplier_endpoint_send_queue_depth",
        static_cast<double>(ep.send_queue_depth));
    set("jbs_mofsupplier_endpoint_connections_accepted",
        static_cast<double>(ep.connections_accepted));
  }
}

MofSupplier::~MofSupplier() { Stop(); }

Status MofSupplier::Start() {
  if (options_.transport == nullptr) {
    return InvalidArgument("MofSupplier needs a transport");
  }
  auto endpoint = options_.transport->CreateServer();
  JBS_RETURN_IF_ERROR(endpoint.status());
  endpoint_ = std::move(endpoint).value();
  net::ServerEndpoint::Handlers handlers;
  handlers.on_frame = [this](net::ConnId conn, Frame frame) {
    OnFrame(conn, std::move(frame));
  };
  handlers.on_disconnect = [this](net::ConnId conn) { OnDisconnect(conn); };
  JBS_RETURN_IF_ERROR(endpoint_->Start(std::move(handlers)));
  // Serialized ablation mode keeps the seed's single disk thread; the
  // pipelined serve path runs a pool. Either way the transport's own send
  // queue is the send stage.
  const int disk_threads =
      options_.pipelined ? std::max(1, options_.prefetch_threads) : 1;
  disk_threads_.reserve(static_cast<size_t>(disk_threads));
  for (int i = 0; i < disk_threads; ++i) {
    disk_threads_.emplace_back([this] { DiskLoop(); });
  }
  return Status::Ok();
}

uint16_t MofSupplier::port() const {
  return endpoint_ ? endpoint_->port() : 0;
}

Status MofSupplier::PublishMof(const mr::MofHandle& handle) {
  return published_.Publish(handle);
}

void MofSupplier::Stop() {
  {
    MutexLock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  work_cv_.NotifyAll();
  data_cache_.Cancel();  // unblock disk threads parked on a dry pool
  for (auto& thread : disk_threads_) {
    if (thread.joinable()) thread.join();
  }
  if (endpoint_) endpoint_->Stop();
  RefreshGauges();
}

mr::ShuffleServer::Stats MofSupplier::stats() const {
  Stats out;
  out.requests = requests_c_->value();
  out.bytes_served = bytes_served_c_->value();
  return out;
}

size_t MofSupplier::pending_group_count() const {
  MutexLock lock(mu_);
  return groups_.size();
}

MofSupplier::SupplierStats MofSupplier::supplier_stats() const {
  // Thin view over the registry counters.
  RefreshGauges();
  SupplierStats out;
  out.requests = requests_c_->value();
  out.bytes_served = bytes_served_c_->value();
  out.batches = batches_c_->value();
  out.group_switches = group_switches_c_->value();
  out.errors = errors_c_->value();
  out.disconnect_purges = disconnect_purges_c_->value();
  out.bytes_logical = wire_bytes_logical_c_->value();
  out.bytes_wire = wire_bytes_wire_c_->value();
  out.chunks_compressed = chunks_compressed_c_->value();
  out.compress_bailouts = compress_bailouts_c_->value();
  out.shed = shed_queue_c_->value() + shed_inflight_c_->value();
  out.index = index_cache_.stats();
  out.fd = fd_cache_.stats();
  out.request_latency_ms = request_latency_ms_h_->summary();
  return out;
}

void MofSupplier::OnFrame(net::ConnId conn, Frame frame) {
  if (frame.type == kHello) {
    auto hello = DecodeHello(frame);
    if (!hello) {
      JBS_WARN << "MofSupplier: undecodable hello frame";
      return;
    }
    MutexLock lock(caps_mu_);
    conn_caps_[conn] = hello->caps;
    return;
  }
  auto request = DecodeRequest(frame);
  if (!request) {
    JBS_WARN << "MofSupplier: undecodable frame type "
             << static_cast<int>(frame.type);
    return;
  }
  requests_c_->Increment();
  PendingRequest pending{conn, *request, std::chrono::steady_clock::now()};
  if (options_.wire_compress) {
    MutexLock lock(caps_mu_);
    auto it = conn_caps_.find(conn);
    pending.compress_ok =
        it != conn_caps_.end() && (it->second & kCapWireCompression) != 0;
  }
  {
    MutexLock lock(mu_);
    // Admission control (DESIGN.md §16): shed the newest request instead
    // of queueing unboundedly. Runs on the transport event thread, so
    // both the decision and the pushback reply must never block.
    const size_t queued = queued_requests_;
    queue_depth_h_->Observe(static_cast<double>(queued));
    if (options_.admission_max_queue > 0 &&
        queued >= options_.admission_max_queue) {
      lock.Unlock();
      shed_queue_c_->Increment();
      SendBusy(conn, *request, RetryAfterHintMs(queued));
      return;
    }
    if (options_.admission_max_inflight_bytes > 0 &&
        admitted_bytes_.load(std::memory_order_relaxed) + request->max_len >
            options_.admission_max_inflight_bytes) {
      lock.Unlock();
      shed_inflight_c_->Increment();
      SendBusy(conn, *request, RetryAfterHintMs(queued));
      return;
    }
    ++queued_requests_;
    admitted_bytes_.fetch_add(request->max_len, std::memory_order_relaxed);
    const int group_key =
        options_.pipelined ? request->map_task
                           : -1;  // serialized mode: one global FIFO
    auto& queue = groups_[group_key];
    if (options_.pipelined) {
      // Order within a group by (partition, offset) so consecutive disk
      // reads walk the MOF forward.
      auto insert_at = std::find_if(
          queue.begin(), queue.end(), [&](const PendingRequest& other) {
            if (other.request.partition != request->partition) {
              return request->partition < other.request.partition;
            }
            return request->offset < other.request.offset;
          });
      queue.insert(insert_at, std::move(pending));
    } else {
      queue.push_back(std::move(pending));
    }
  }
  work_cv_.NotifyOne();
}

void MofSupplier::OnDisconnect(net::ConnId conn) {
  {
    MutexLock lock(caps_mu_);
    conn_caps_.erase(conn);
  }
  uint64_t purged = 0;
  uint64_t released_bytes = 0;
  {
    MutexLock lock(mu_);
    for (auto it = groups_.begin(); it != groups_.end();) {
      auto& queue = it->second;
      const size_t before = queue.size();
      queue.erase(std::remove_if(queue.begin(), queue.end(),
                                 [&](const PendingRequest& pending) {
                                   if (pending.conn != conn) return false;
                                   released_bytes += pending.request.max_len;
                                   return true;
                                 }),
                  queue.end());
      purged += before - queue.size();
      // Same eager erasure as NextBatch; busy_groups_ is a separate set,
      // so erasing a checked-out group's (now empty) queue entry is safe.
      it = queue.empty() ? groups_.erase(it) : std::next(it);
    }
    queued_requests_ -= static_cast<size_t>(purged);
  }
  admitted_bytes_.fetch_sub(released_bytes, std::memory_order_relaxed);
  if (purged > 0) disconnect_purges_c_->Increment(purged);
  // Requests already checked out by a disk thread still flow through, and
  // replies already in the transport's send queue are dropped with the
  // connection there, returning their leases.
}

bool MofSupplier::NextBatch(std::vector<PendingRequest>* batch,
                            int* group_key) {
  batch->clear();
  MutexLock lock(mu_);
  for (;;) {
    if (stopping_) return false;
    // Round-robin across MOF groups, starting strictly after the last
    // group served and skipping groups another disk thread has checked
    // out (per-group exclusivity keeps (map, partition) replies in offset
    // order across the thread pool).
    auto it = groups_.upper_bound(rr_last_);
    for (size_t i = 0; i < groups_.size(); ++i) {
      if (it == groups_.end()) it = groups_.begin();
      if (!busy_groups_.contains(it->first)) {
        *group_key = it->first;
        auto& queue = it->second;
        const int take = options_.pipelined ? options_.prefetch_batch : 1;
        for (int k = 0; k < take && !queue.empty(); ++k) {
          batch->push_back(std::move(queue.front()));
          queue.pop_front();
          --queued_requests_;
        }
        busy_groups_.insert(it->first);
        rr_last_ = it->first;
        // Groups are erased as they drain; OnFrame recreates them on
        // demand, so finished map tasks don't leak queue entries.
        if (queue.empty()) groups_.erase(it);
        return true;
      }
      ++it;
    }
    work_cv_.Wait(lock);
  }
}

void MofSupplier::DiskLoop() {
  std::vector<PendingRequest> batch;
  int group_key = 0;
  while (NextBatch(&batch, &group_key)) {
    batches_c_->Increment();
    for (const PendingRequest& pending : batch) {
      // The reply is posted before the group is released below, so the
      // next batch of this MOF, on whichever disk thread, queues behind it
      // in the transport's FIFO: a segment's replies leave in offset order.
      if (auto ready = ReadChunk(pending)) Deliver(std::move(*ready));
      // Admission byte budget: the request is no longer "inflight" once
      // the disk stage is done with it, whatever the outcome — raw replies
      // queued past this point are bounded by DataCache buffers instead.
      admitted_bytes_.fetch_sub(pending.request.max_len,
                                std::memory_order_relaxed);
    }
    {
      MutexLock lock(mu_);
      busy_groups_.erase(group_key);
    }
    // Another disk thread may be waiting for this group to free up.
    work_cv_.NotifyAll();
  }
}

Status MofSupplier::ResolveRequest(const FetchRequest& request,
                                   std::string* data_path,
                                   FetchDataHeader* header,
                                   uint64_t* disk_offset, uint64_t* chunk) {
  auto mof = published_.Lookup(request.map_task);
  JBS_RETURN_IF_ERROR(mof.status());
  auto index = index_cache_.GetOrLoad(request.map_task, mof->index_path);
  JBS_RETURN_IF_ERROR(index.status());
  *data_path = std::move(mof->data_path);
  if (request.partition < 0 || request.partition >= index->num_partitions()) {
    return InvalidArgument("partition out of range");
  }
  const mr::IndexEntry& entry = index->entry(request.partition);
  if (request.offset > entry.length) {
    return InvalidArgument("offset beyond segment");
  }
  // Chunk size: bounded by the client's ask, our transport buffer, and
  // what's left of the segment.
  const uint64_t remaining = entry.length - request.offset;
  *chunk = std::min<uint64_t>({remaining, request.max_len,
                               options_.buffer_size - kDataHeaderSize});
  *disk_offset = entry.offset + request.offset;
  header->map_task = request.map_task;
  header->partition = request.partition;
  header->offset = request.offset;
  header->segment_total = entry.length;
  header->flags = index->compressed() ? kSegmentCompressed : 0;
  // Lock-free group-switch accounting: exchange is exact under the
  // serialized path and a faithful-enough approximation when several disk
  // threads interleave (each observed transition is a real switch).
  if (last_served_mof_.exchange(request.map_task, std::memory_order_relaxed) !=
      request.map_task) {
    group_switches_c_->Increment();
  }
  return Status::Ok();
}

Status MofSupplier::PreadInto(const std::string& path, uint64_t offset,
                              std::span<uint8_t> out) {
  Status st = Internal("pread not attempted");
  for (int attempt = 0; attempt < kPreadAttempts; ++attempt) {
    auto file = fd_cache_.Open(path);
    if (!file.ok()) {
      // NotFound (the MOF is gone) won't improve on retry.
      if (file.status().code() == StatusCode::kNotFound) {
        return file.status();
      }
      st = file.status();
      continue;
    }
    ChargeDiskModel(file->fd(), offset, out.size());
    st = PreadFd(file->fd(), path, offset, out);
    if (st.ok()) return st;
    // A failed read may mean the descriptor went stale (file replaced);
    // drop it so the retry (and any later request) reopens the path.
    fd_cache_.Invalidate(path);
  }
  return st;
}

void MofSupplier::ChargeDiskModel(int fd, uint64_t offset, size_t bytes) {
  if (options_.disk_seek_ms <= 0 && options_.disk_bytes_per_sec <= 0) return;
  std::chrono::steady_clock::time_point ready;
  {
    MutexLock lock(disk_model_mu_);
    // A read that does not continue the descriptor's previous read breaks
    // the sequential stream (readahead misses; on a spindle, the head
    // moves). Descriptor reuse after fd-cache eviction at worst charges
    // one spurious seek.
    auto [it, inserted] = disk_stream_pos_.try_emplace(fd, 0);
    const bool seek = inserted || it->second != offset;
    it->second = offset + bytes;
    double ms = seek ? options_.disk_seek_ms : 0.0;
    if (options_.disk_bytes_per_sec > 0) {
      ms += static_cast<double>(bytes) / options_.disk_bytes_per_sec * 1e3;
    }
    const auto now = std::chrono::steady_clock::now();
    if (disk_available_at_ < now) disk_available_at_ = now;
    disk_available_at_ +=
        std::chrono::microseconds(static_cast<int64_t>(ms * 1e3));
    ready = disk_available_at_;
  }
  std::this_thread::sleep_until(ready);
}

bool MofSupplier::WireCompressEligible(const PendingRequest& pending,
                                       const FetchDataHeader& header,
                                       uint64_t chunk) const {
  // Segment-compressed MOFs are already dense on disk; double-compressing
  // them burns CPU for nothing, so they always ship as stored.
  if (!pending.compress_ok || chunk < options_.wire_compress_min_bytes ||
      chunk == 0 || (header.flags & kSegmentCompressed) != 0) {
    return false;
  }
  // Compress only while the wire is behind (DESIGN.md §14): a chunk that
  // would go straight onto an idle wire gains nothing from fewer bytes, so
  // it ships raw and skips the codec on both ends.
  if (endpoint_->Backlog(pending.conn) == 0) {
    compress_skipped_idle_c_->Increment();
    return false;
  }
  return true;
}

bool MofSupplier::EncodeCompressed(FetchDataHeader header,
                                   std::span<const uint8_t> data,
                                   ReadyReply* ready) {
  // The encoder gives up as soon as its output passes the ratio, so an
  // incompressible chunk costs a partial pass, not a whole one.
  auto packed = CompressWithin(
      data, static_cast<size_t>(static_cast<double>(data.size()) *
                                kWireCompressMinRatio));
  if (!packed) {
    compress_bailouts_c_->Increment();
    return false;
  }
  auto payload =
      std::make_shared<const std::vector<uint8_t>>(std::move(*packed));
  // kChunkCompressed must be in `flags` before the CRC fold — the flag is
  // header-covered so a stripped flag (which would make the client merge
  // compressed bytes as data) is detected as corruption.
  header.flags |= kChunkCompressed | kChunkHasCrc;
  header.crc32 = ChunkWireCrc(header, Crc32(*payload));
  chunks_compressed_c_->Increment();
  compress_ratio_h_->Observe(static_cast<double>(data.size()) /
                             static_cast<double>(payload->size()));
  ready->wire = payload->size();
  // The compressed vector, sized to the stream exactly, is the frame's
  // lease: it stays alive until the transport has put its last byte on
  // the wire.
  const std::span<const uint8_t> view{payload->data(), payload->size()};
  ready->frame = EncodeDataZeroCopy(header, view, std::move(payload));
  return true;
}

std::optional<MofSupplier::ReadyReply> MofSupplier::ReadChunk(
    const PendingRequest& pending) {
  ReadyReply ready;
  ready.conn = pending.conn;
  ready.enqueued = pending.enqueued;
  const auto error_reply = [&](const Status& st) {
    ready.is_error = true;
    ready.error.map_task = pending.request.map_task;
    ready.error.partition = pending.request.partition;
    ready.error.message = st.ToString();
    return std::move(ready);
  };
  std::string data_path;
  FetchDataHeader header;
  uint64_t disk_offset = 0;
  uint64_t chunk = 0;
  Status st = ResolveRequest(pending.request, &data_path, &header,
                             &disk_offset, &chunk);
  if (!st.ok()) return error_reply(st);
  // DataCache buffer: bounds in-flight disk reads *and* bytes parked on
  // the socket, since the buffer travels with the frame until the
  // transport drops its lease. Pool exhaustion blocks here — the
  // pipeline's natural backpressure; overload is shed earlier, at intake
  // (DESIGN.md §16).
  PooledBuffer buffer = data_cache_.Acquire();
  if (!buffer.valid()) return std::nullopt;  // pool cancelled: shutting down
  if (chunk > 0) {
    st = PreadInto(data_path, disk_offset,
                   {buffer.data(), static_cast<size_t>(chunk)});
    if (!st.ok()) return error_reply(st);
  }
  buffer.set_size(static_cast<size_t>(chunk));
  ready.chunk = chunk;
  const std::span<const uint8_t> data{buffer.data(),
                                      static_cast<size_t>(chunk)};
  // A compressed reply supersedes the pooled buffer, which is released on
  // return; a bail-out ships the bytes already read, raw.
  if (WireCompressEligible(pending, header, chunk) &&
      EncodeCompressed(header, data, &ready)) {
    return ready;
  }
  // CRC in the disk stage: the hash overlaps the transport's transmits
  // the same way the reads do.
  StampChunkCrc(&header, data);
  ready.wire = chunk;
  // Ownership handoff, not a copy: the chunk rides as the frame's `ext`
  // view and the buffer itself becomes the frame's lease, returning to
  // the DataCache only when the transport finishes with it.
  auto lease = MakeBufferLease(std::move(buffer));
  // Take the data view before std::move(lease): argument evaluation order
  // is unspecified, so reading lease.get() inline could see a moved-from
  // (null) lease.
  const std::span<const uint8_t> chunk_view{
      static_cast<const uint8_t*>(lease.get()), static_cast<size_t>(chunk)};
  ready.frame = EncodeDataZeroCopy(header, chunk_view, std::move(lease));
  return ready;
}

void MofSupplier::Deliver(ReadyReply ready) {
  if (ready.is_error) {
    endpoint_->SendAsync(ready.conn, EncodeError(ready.error));
    errors_c_->Increment();
    return;
  }
  // The frame was encoded in the disk stage (a 32-byte owned header plus
  // a borrowed chunk view); nothing to copy here — just hand the lease to
  // the transport.
  if (!endpoint_->SendAsync(ready.conn, std::move(ready.frame)).ok()) {
    errors_c_->Increment();
    return;
  }
  bytes_served_c_->Increment(ready.chunk);
  wire_bytes_logical_c_->Increment(ready.chunk);
  wire_bytes_wire_c_->Increment(ready.wire);
  request_latency_ms_h_->Observe(
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - ready.enqueued)
          .count());
}

void MofSupplier::SendBusy(net::ConnId conn, const FetchRequest& request,
                           uint32_t retry_after_ms) {
  BusyReply busy;
  busy.map_task = request.map_task;
  busy.partition = request.partition;
  busy.retry_after_ms = retry_after_ms;
  // Not an error (errors_c_ untouched): the request was shed, not failed,
  // and the per-reason shed counter was already bumped by the caller.
  endpoint_->SendAsync(conn, EncodeBusy(busy));
}

uint32_t MofSupplier::RetryAfterHintMs(size_t queued) const {
  // Backlog-proportional: an idle-ish supplier asks for a quick retry, a
  // deep queue spreads the retry storm out. Capped so a pathological
  // backlog can't park mergers for whole seconds per attempt.
  return static_cast<uint32_t>(std::min<size_t>(1000, 5 + queued));
}

}  // namespace jbs::shuffle
