#include "jbs/net_merger.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/bytes.h"
#include "common/compress.h"
#include "common/logging.h"
#include "jbs/protocol.h"

namespace jbs::shuffle {

namespace {

/// Fixed seed for the retry-backoff jitter, so retry timing replays.
constexpr uint64_t kBackoffJitterSeed = 0x6A6274735F6E6D32ull;

/// What a segment's opening request asks for while other nodes wait: a
/// small head, so every segment's first records land early and the merge
/// can start before the partition's bulk arrives.
constexpr size_t kHeadBytes = 16 * 1024;

/// Maps one failed fetch attempt to the health-tracker taxonomy. A dial
/// that never connected is a connect fault regardless of status code; past
/// the dial, the status itself decides.
NodeHealthTracker::Failure ClassifyFailure(const Status& status, bool dialed) {
  if (!dialed) return NodeHealthTracker::Failure::kConnect;
  if (status.code() == StatusCode::kDeadlineExceeded) {
    return NodeHealthTracker::Failure::kTimeout;
  }
  if (status.message().rfind("chunk CRC mismatch", 0) == 0 ||
      status.message().rfind("chunk decompress failed", 0) == 0) {
    // A payload that passed its CRC but won't decompress means the
    // *supplier* shipped damaged bytes (a compressor bug, bit rot before the CRC
    // was taken) — same taxonomy as corruption on the wire.
    return NodeHealthTracker::Failure::kCorrupt;
  }
  return NodeHealthTracker::Failure::kOther;
}

/// Permanent server verdicts (the supplier answered kFetchError): retrying
/// the same node cannot heal these, but a replica might hold the segment.
bool IsPermanentFetchError(const Status& status) {
  return status.code() == StatusCode::kIoError &&
         status.message().rfind("fetch error:", 0) == 0;
}

/// Overload pushback (the supplier answered kErrorBusy): the request was
/// shed under admission control, not failed. Pushback never counts against
/// node health, never classifies as corruption, and never promotes a
/// failover replica — it retries the same node on its own budget.
bool IsPushback(const Status& status) {
  return status.code() == StatusCode::kResourceExhausted &&
         status.message().rfind("server busy", 0) == 0;
}

}  // namespace

/// One segment's fetch as its reader sees it. The data thread lands,
/// publishes and ends it; the reader waits on it. The writer signals only
/// when a reader waits.
class NetMerger::SegmentFetch {
 public:
  /// `waits` and `wait_us` count the merge's waits for this segment's
  /// bytes: only those that block, so a merge that finds bytes pays
  /// nothing.
  SegmentFetch(MetricCounter* waits, MetricCounter* wait_us)
      : waits_(waits), wait_us_(wait_us) {}

  /// The first chunk has committed: keeps `buffer` for the opener.
  void Land(std::shared_ptr<SegmentBuffer> buffer, bool compressed)
      EXCLUDES(mu_) {
    MutexLock lock(mu_);
    landed_ = std::move(buffer);
    compressed_ = compressed;
  }
  /// Wakes a reader waiting for bytes, after a Commit.
  void Published() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (reader_waiting_) cv_.NotifyAll();
  }
  /// Final: wakes the reader with `status`. A failed fetch also drops the
  /// segment it landed, if no one has opened it.
  void End(const Status& status) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    ended_ = true;
    status_ = status;
    if (!status.ok()) landed_.reset();
    cv_.NotifyAll();
  }
  /// Hands the landed segment to its opener: null when the fetch failed
  /// after landing.
  std::shared_ptr<SegmentBuffer> TakeLanded(bool* compressed) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    *compressed = compressed_;
    return std::move(landed_);
  }
  Status status() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return status_;
  }
  /// The reader is gone: no more requests for this segment.
  void Abandon() { abandoned_.store(true, std::memory_order_relaxed); }
  bool abandoned() const { return abandoned_.load(std::memory_order_relaxed); }

  Status AwaitMore(const SegmentBuffer& buffer, uint64_t have) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (buffer.size() <= have && !ended_) {
      const auto start = std::chrono::steady_clock::now();
      do {
        reader_waiting_ = true;
        cv_.Wait(lock);
      } while (buffer.size() <= have && !ended_);
      reader_waiting_ = false;
      waits_->Increment();
      wait_us_->Increment(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count()));
    }
    if (buffer.size() > have) return Status::Ok();
    return status_.ok() ? Internal("segment ended at " + std::to_string(have) +
                                   " of " + std::to_string(buffer.capacity()) +
                                   " bytes")
                        : status_;
  }
  Status AwaitEnd() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (!ended_) {
      reader_waiting_ = true;
      cv_.Wait(lock);
    }
    reader_waiting_ = false;
    return status_;
  }

 private:
  Mutex mu_;
  CondVar cv_;
  std::shared_ptr<SegmentBuffer> landed_ GUARDED_BY(mu_);
  bool compressed_ GUARDED_BY(mu_) = false;
  bool reader_waiting_ GUARDED_BY(mu_) = false;
  bool ended_ GUARDED_BY(mu_) = false;
  Status status_ GUARDED_BY(mu_);
  std::atomic<bool> abandoned_{false};
  MetricCounter* const waits_;
  MetricCounter* const wait_us_;
};

/// A merge stream's input: the segment's mapping, read while the fetch
/// fills it. Dropping it abandons the fetch.
class NetMerger::ArrivingFetch final : public mr::ArrivingSegment {
 public:
  ArrivingFetch(std::shared_ptr<SegmentFetch> fetch,
                std::shared_ptr<SegmentBuffer> buffer)
      : fetch_(std::move(fetch)), buffer_(std::move(buffer)) {}
  ~ArrivingFetch() override { fetch_->Abandon(); }

  uint64_t total() const override { return buffer_->capacity(); }
  std::span<const uint8_t> arrived() const override {
    return buffer_->bytes();
  }
  Status AwaitMore(uint64_t have) override {
    return fetch_->AwaitMore(*buffer_, have);
  }
  Status AwaitEnd() override { return fetch_->AwaitEnd(); }

 private:
  std::shared_ptr<SegmentFetch> fetch_;
  std::shared_ptr<SegmentBuffer> buffer_;
};

struct NetMerger::Slot {
  enum class State { kActive, kFailed, kEnded };
  explicit Slot(FetchTask claimed)
      : task(std::move(claimed)), next_send(committed()) {}

  FetchTask task;
  State state = State::kActive;
  Status failure;             // what failed the slot this round
  bool terminal = false;      // the failure ends the segment outright
  uint32_t busy_hint_ms = 0;  // retry-after of a kErrorBusy reply
  uint64_t next_send = 0;     // offset of the next request
  uint64_t stride = 0;        // reply size, from this round's first reply
  uint64_t ask = 0;           // max_len of this round's requests
  bool head = false;          // a step sends this segment its head only
  int in_flight = 0;

  uint64_t committed() const {
    return task.buffer == nullptr ? 0 : task.buffer->size();
  }
  bool Names(int32_t map_task, int32_t partition) const {
    return state != State::kEnded && task.source.map_task == map_task &&
           task.partition == partition;
  }
};

NetMerger::NetMerger(Options options)
    : options_(options),
      connections_(options.transport, options.connection_cache_capacity),
      rng_(kBackoffJitterSeed) {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  if (options_.trace != nullptr) {
    trace_ = options_.trace;
  } else {
    owned_trace_ = std::make_unique<TraceRecorder>();
    trace_ = owned_trace_.get();
  }
  // shuffle_* names are shared with the baseline MofCopierClient (same
  // instrumentation, different `client` label) so JBS-vs-baseline
  // comparisons read one exposition; jbs_netmerger_* are JBS-internal.
  const MetricLabels base = BaseLabels();
  fetches_c_ = metrics_->GetCounter("shuffle_fetches_total", base);
  bytes_fetched_c_ = metrics_->GetCounter("shuffle_bytes_fetched_total", base);
  connections_opened_c_ =
      metrics_->GetCounter("shuffle_connections_opened_total", base);
  fetch_errors_c_ = metrics_->GetCounter("shuffle_fetch_errors_total", base);
  fetch_latency_ms_h_ =
      metrics_->GetHistogram("shuffle_fetch_latency_ms", base);
  chunks_c_ = metrics_->GetCounter("jbs_netmerger_chunks_total", base);
  node_switches_c_ =
      metrics_->GetCounter("jbs_netmerger_node_switches_total", base);
  fetch_retries_c_ =
      metrics_->GetCounter("jbs_netmerger_fetch_retries_total", base);
  deadline_expiries_c_ =
      metrics_->GetCounter("jbs_netmerger_deadline_expiries_total", base);
  fetch_attempts_h_ =
      metrics_->GetHistogram("jbs_netmerger_fetch_attempts", base);
  chunks_corrupt_c_ =
      metrics_->GetCounter("jbs_netmerger_chunks_corrupt_total", base);
  chunks_compressed_c_ =
      metrics_->GetCounter("jbs_netmerger_chunks_compressed_total", base);
  failovers_c_ = metrics_->GetCounter("jbs_netmerger_failovers_total", base);
  pushback_c_ = metrics_->GetCounter("jbs_netmerger_pushback_total", base);
  // Receive-side twin of jbs_serve_bytes_copied_total: chunk bytes copied
  // into a segment instead of received in place.
  bytes_copied_c_ =
      metrics_->GetCounter("jbs_netmerger_bytes_copied_total", base);
  // The merge's waits for a segment's next bytes, and their time: a
  // fetch-bound shuffle waits long, a merge-bound one hardly at all.
  merge_waits_c_ =
      metrics_->GetCounter("jbs_netmerger_merge_waits_total", base);
  merge_wait_us_c_ =
      metrics_->GetCounter("jbs_netmerger_merge_wait_us_total", base);
  health_ = std::make_unique<NodeHealthTracker>(
      NodeHealthTracker::Options{
          options_.health_suspect_after, options_.health_penalize_after,
          options_.health_penalty_ms, options_.health_penalty_max_ms},
      metrics_, base);
  workers_.reserve(static_cast<size_t>(options_.data_threads));
  for (int i = 0; i < options_.data_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

MetricLabels NetMerger::BaseLabels() const {
  MetricLabels labels{{"client", "netmerger"}};
  if (!options_.instance.empty()) {
    labels.emplace_back("instance", options_.instance);
  }
  return labels;
}

void NetMerger::SetQueueDepth(const std::string& node, size_t depth) {
  MetricLabels labels = BaseLabels();
  labels.emplace_back("node", node);
  metrics_->GetGauge("jbs_netmerger_queue_depth", std::move(labels))
      ->Set(static_cast<double>(depth));
}

void NetMerger::RefreshGauges() const {
  const net::ConnectionManager::Stats cs = connections_.stats();
  const MetricLabels base = BaseLabels();
  const auto set = [&](const char* name, double v) {
    metrics_->GetGauge(name, base)->Set(v);
  };
  set("jbs_connmgr_hits", static_cast<double>(cs.hits));
  set("jbs_connmgr_misses", static_cast<double>(cs.misses));
  set("jbs_connmgr_evictions", static_cast<double>(cs.evictions));
  set("jbs_connmgr_dial_failures", static_cast<double>(cs.dial_failures));
  set("jbs_connmgr_active_connections",
      static_cast<double>(connections_.active_connections()));
  set("jbs_netmerger_segment_live_bytes",
      static_cast<double>(segments_->live_bytes()));
  set("jbs_netmerger_segment_pooled_bytes",
      static_cast<double>(segments_->pooled_bytes()));
}

NetMerger::~NetMerger() { Stop(); }

void NetMerger::Stop() {
  std::map<std::string, std::deque<FetchTask>> orphans;
  {
    MutexLock lock(sched_mu_);
    if (stopping_) return;
    stopping_ = true;
    orphans.swap(node_queues_);
  }
  cancelled_.store(true);
  work_cv_.NotifyAll();
  // Wake data threads blocked in Send/Receive on a live connection (every
  // conversation, consolidated or not, runs on a managed one) and make any
  // racing dial fail fast.
  connections_.Shutdown();
  // Fail every queued (never claimed) task so its FetchAndMerge caller
  // unblocks; in-flight tasks are failed by their own data thread once
  // its connection dies.
  for (auto& [node, queue] : orphans) {
    for (FetchTask& task : queue) {
      EndTask(task, Unavailable("NetMerger stopped"));
    }
    SetQueueDepth(node, 0);
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  segments_->Close();
  RefreshGauges();
}

mr::ShuffleClient::Stats NetMerger::stats() const {
  Stats out;
  MergerStats merger = merger_stats();
  out.fetches = merger.fetches;
  out.bytes_fetched = merger.bytes_fetched;
  out.connections_opened = merger.connections_opened;
  return out;
}

NetMerger::MergerStats NetMerger::merger_stats() const {
  // Thin view over the registry counters. connections_opened is counted
  // at the dial site (the manager reports whether a GetOrConnect actually
  // dialed), never derived from the manager's miss counter.
  RefreshGauges();
  MergerStats out;
  out.fetches = fetches_c_->value();
  out.chunks = chunks_c_->value();
  out.bytes_fetched = bytes_fetched_c_->value();
  out.connections_opened = connections_opened_c_->value();
  out.node_switches = node_switches_c_->value();
  out.fetch_errors = fetch_errors_c_->value();
  out.fetch_retries = fetch_retries_c_->value();
  out.deadline_expiries = deadline_expiries_c_->value();
  out.chunks_corrupt = chunks_corrupt_c_->value();
  out.chunks_compressed = chunks_compressed_c_->value();
  out.failovers = failovers_c_->value();
  out.penalties = health_->penalties();
  out.pushbacks = pushback_c_->value();
  out.bytes_copied = bytes_copied_c_->value();
  return out;
}

NodeState NetMerger::node_health(const std::string& node) {
  return health_->state(node);
}

net::ConnectionManager::Stats NetMerger::connection_stats() const {
  return connections_.stats();
}

size_t NetMerger::pending_node_count() const {
  MutexLock lock(sched_mu_);
  return node_queues_.size();
}

StatusOr<std::unique_ptr<mr::RecordStream>> NetMerger::FetchAndMerge(
    int partition, const std::vector<mr::MofLocation>& sources) {
  // Duplicate locations for one map are either exact duplicates (a
  // speculative attempt reported twice — collapse to one fetch, since
  // fetching twice would consume the stored bytes twice) or replicas:
  // distinct nodes that each hold a copy of the map's output. Replicas
  // become failover alternates — the fetch reroutes to the next copy when
  // its current node exhausts attempts or sits in the penalty box.
  struct Replica {
    mr::MofLocation primary;
    std::vector<mr::MofLocation> alternates;
  };
  std::vector<Replica> unique;
  unique.reserve(sources.size());
  {
    std::map<int, size_t> by_map;  // map_task -> index into `unique`
    for (const mr::MofLocation& source : sources) {
      auto [it, inserted] = by_map.emplace(source.map_task, unique.size());
      if (inserted) {
        unique.push_back(Replica{source, {}});
        continue;
      }
      Replica& replica = unique[it->second];
      const auto same_place = [&](const mr::MofLocation& loc) {
        return loc.host == source.host && loc.port == source.port &&
               loc.node == source.node;
      };
      if (same_place(replica.primary) ||
          std::any_of(replica.alternates.begin(), replica.alternates.end(),
                      same_place)) {
        continue;  // exact duplicate
      }
      replica.alternates.push_back(source);
    }
  }

  auto context = std::make_shared<CallContext>();
  {
    // Not yet shared with any worker, but the counts are guarded and this
    // is nowhere near a hot path: take the lock rather than carve out an
    // escape hatch.
    MutexLock context_lock(context->mu);
    context->unlanded = unique.size();
    context->outstanding = unique.size();
  }
  std::vector<std::shared_ptr<SegmentFetch>> fetches;
  fetches.reserve(unique.size());
  {
    MutexLock lock(sched_mu_);
    if (stopping_) return Unavailable("NetMerger stopped");
    // Consolidation: requests are grouped by target node, ordered by
    // arrival within each group.
    for (const Replica& replica : unique) {
      const uint64_t fetch_id = trace_->BeginFetch();
      trace_->Record(fetch_id, TraceEvent::kQueued, replica.primary.map_task);
      FetchTask task;
      task.source = replica.primary;
      task.partition = partition;
      task.fetch_id = fetch_id;
      task.context = context;
      task.fetch =
          std::make_shared<SegmentFetch>(merge_waits_c_, merge_wait_us_c_);
      task.alternates = replica.alternates;
      fetches.push_back(task.fetch);
      // Initial routing: prefer the first replica not currently serving a
      // penalty sentence. If every copy is boxed, queue on the primary and
      // let the scheduler wait out the earliest release.
      if (health_->penalized(NodeKey(task.source))) {
        for (mr::MofLocation& alternate : task.alternates) {
          if (!health_->penalized(NodeKey(alternate))) {
            std::swap(task.source, alternate);
            break;
          }
        }
      }
      const std::string node = NodeKey(task.source);
      auto& queue = node_queues_[node];
      queue.push_back(std::move(task));
      SetQueueDepth(node, queue.size());
    }
  }
  work_cv_.NotifyAll();

  Status failed;
  {
    MutexLock lock(context->mu);
    while (context->error.ok() && context->unlanded != 0) {
      context->cv.Wait(lock);
    }
    failed = context->error;
  }
  // Network-levitated merge: every segment is merged in place from its
  // mapping, while the data threads keep filling it.
  std::vector<std::unique_ptr<mr::RecordStream>> streams;
  streams.reserve(fetches.size());
  for (size_t i = 0; i < fetches.size() && failed.ok(); ++i) {
    auto stream = OpenLanded(fetches[i]);
    if (!stream.ok()) {
      failed = stream.status();
      break;
    }
    streams.push_back(std::move(stream).value());
  }
  if (!failed.ok()) {
    streams.clear();
    AbandonCall(context, fetches);
    return failed;
  }
  return std::unique_ptr<mr::RecordStream>(
      std::make_unique<mr::KWayMerger>(std::move(streams)));
}

StatusOr<std::unique_ptr<mr::RecordStream>> NetMerger::OpenLanded(
    const std::shared_ptr<SegmentFetch>& fetch) {
  bool compressed = false;
  std::shared_ptr<SegmentBuffer> buffer = fetch->TakeLanded(&compressed);
  if (buffer == nullptr) return fetch->status();  // failed after landing
  auto arriving = std::make_shared<ArrivingFetch>(fetch, buffer);
  // A raw segment that begins with the codec's magic is told from a
  // mislabeled compressed one by its trailer checksum, so it is read
  // whole, as is a MOF-compressed segment, which decompresses in one
  // piece.
  const uint64_t head = std::min<uint64_t>(buffer->capacity(), 2);
  while (!compressed && buffer->size() < head) {
    JBS_RETURN_IF_ERROR(arriving->AwaitMore(buffer->size()));
  }
  if (compressed || LooksCompressed(buffer->bytes().first(head))) {
    JBS_RETURN_IF_ERROR(arriving->AwaitEnd());
    const std::span<const uint8_t> bytes = buffer->bytes();
    return mr::OpenSegment(bytes, std::move(buffer), compressed);
  }
  return std::unique_ptr<mr::RecordStream>(
      std::make_unique<mr::SegmentStream>(std::move(arriving)));
}

void NetMerger::AbandonCall(
    const std::shared_ptr<CallContext>& context,
    const std::vector<std::shared_ptr<SegmentFetch>>& fetches) {
  for (const auto& fetch : fetches) fetch->Abandon();
  // Tasks no data thread has claimed end here; the claimed ones end once
  // their in-flight replies are in.
  std::vector<FetchTask> queued;
  {
    MutexLock lock(sched_mu_);
    for (auto it = node_queues_.begin(); it != node_queues_.end();) {
      auto& queue = it->second;
      for (auto qit = queue.begin(); qit != queue.end();) {
        if (qit->context != context) {
          ++qit;
          continue;
        }
        queued.push_back(std::move(*qit));
        qit = queue.erase(qit);
      }
      SetQueueDepth(it->first, queue.size());
      it = queue.empty() ? node_queues_.erase(it) : std::next(it);
    }
  }
  for (FetchTask& task : queued) {
    EndTask(task, Cancelled("FetchAndMerge failed"));
  }
  {
    MutexLock lock(context->mu);
    while (context->outstanding != 0) context->cv.Wait(lock);
  }
  // Segments that landed whole are still held for an opener that is not
  // coming: release their mappings now.
  bool compressed = false;
  for (const auto& fetch : fetches) (void)fetch->TakeLanded(&compressed);
}

bool NetMerger::Claimable(const FetchTask& task) const {
  return !options_.round_robin || !task.landed ||
         task.context->heads_landed.load(std::memory_order_relaxed);
}

bool NetMerger::AnyClaimable(const std::deque<FetchTask>& queue) const {
  return std::any_of(queue.begin(), queue.end(),
                     [this](const FetchTask& task) { return Claimable(task); });
}

bool NetMerger::OtherNodeWaiting(const std::string& node) {
  for (const auto& [key, queue] : node_queues_) {
    if (key != node && !busy_nodes_.contains(key) && AnyClaimable(queue) &&
        !health_->penalized(key)) {
      return true;
    }
  }
  return false;
}

void NetMerger::TakeQueued(const std::string& node,
                           const std::vector<Slot>& held, size_t limit,
                           std::vector<FetchTask>* tasks) {
  auto it = node_queues_.find(node);
  if (it == node_queues_.end()) return;
  auto& queue = it->second;
  // One conversation never holds two fetches of one (map, partition): its
  // replies could not tell them apart. A duplicate waits for the next.
  const auto named = [&](const FetchTask& task) {
    const auto same = [&](int map_task, int partition) {
      return map_task == task.source.map_task && partition == task.partition;
    };
    return std::any_of(held.begin(), held.end(),
                       [&](const Slot& slot) {
                         return same(slot.task.source.map_task,
                                     slot.task.partition);
                       }) ||
           std::any_of(tasks->begin(), tasks->end(),
                       [&](const FetchTask& other) {
                         return same(other.source.map_task, other.partition);
                       });
  };
  for (auto qit = queue.begin(); qit != queue.end() && limit > 0;) {
    if (!Claimable(*qit) || named(*qit)) {
      ++qit;
      continue;
    }
    // One deadline budgets the whole fetch, so it arms on the first
    // claim; the latency clock restarts on every node.
    if (!qit->deadline_armed) {
      qit->deadline = net::Deadline::AfterMs(options_.fetch_deadline_ms);
      qit->deadline_armed = true;
    }
    if (qit->started == std::chrono::steady_clock::time_point{}) {
      qit->started = std::chrono::steady_clock::now();
    }
    tasks->push_back(std::move(*qit));
    qit = queue.erase(qit);
    --limit;
  }
  SetQueueDepth(node, queue.size());
  // Erase drained queues: otherwise node_queues_ keeps one tombstone
  // entry per remote node ever fetched from for the job's lifetime.
  if (queue.empty()) node_queues_.erase(it);
}

void NetMerger::JoinQueued(const std::string& node, std::vector<Slot>* slots) {
  if (!options_.consolidate) return;
  std::vector<FetchTask> joined;
  {
    MutexLock lock(sched_mu_);
    if (stopping_ || !node_queues_.contains(node) || OtherNodeWaiting(node)) {
      return;
    }
    TakeQueued(node, *slots, SIZE_MAX, &joined);
  }
  for (FetchTask& task : joined) slots->emplace_back(std::move(task));
}

bool NetMerger::NextTasks(std::string* node, std::vector<FetchTask>* tasks,
                          bool* step) {
  MutexLock lock(sched_mu_);
  for (;;) {
    if (stopping_) return false;
    // Reroute queued work off penalized nodes: a task with a healthy
    // replica should not wait out another node's sentence. Bounded by the
    // per-task reroute budget so two half-dead replicas can't ping-pong a
    // task forever.
    {
      std::vector<std::pair<FetchTask, size_t>> moved;  // (task, alternate)
      for (auto it = node_queues_.begin(); it != node_queues_.end();) {
        if (it->second.empty() || !health_->penalized(it->first)) {
          ++it;
          continue;
        }
        auto& queue = it->second;
        for (auto qit = queue.begin(); qit != queue.end();) {
          auto alternate = std::find_if(
              qit->alternates.begin(), qit->alternates.end(),
              [&](const mr::MofLocation& loc) {
                return !health_->penalized(NodeKey(loc));
              });
          if (alternate == qit->alternates.end() ||
              qit->reroutes >= options_.max_failovers) {
            ++qit;
            continue;
          }
          const size_t alt_index =
              static_cast<size_t>(alternate - qit->alternates.begin());
          moved.emplace_back(std::move(*qit), alt_index);
          qit = queue.erase(qit);
        }
        SetQueueDepth(it->first, queue.size());
        if (queue.empty()) {
          it = node_queues_.erase(it);
        } else {
          ++it;
        }
      }
      for (auto& [rerouted, alt_index] : moved) Reroute(rerouted, alt_index);
    }
    // Candidate nodes: nonempty queue, not currently serviced by another
    // data thread (one conversation per connection), not in the penalty
    // box.
    bool skipped_penalized = false;
    auto claimable = [&](const std::string& key,
                         const std::deque<FetchTask>& queue) {
      if (busy_nodes_.contains(key) || !AnyClaimable(queue)) return false;
      if (health_->penalized(key)) {
        skipped_penalized = true;
        return false;
      }
      return true;
    };
    auto take_from = [&](const std::string& key) {
      *node = key;  // `key` may dangle once TakeQueued erases the queue
      // A lone node's whole queue goes into one conversation. While other
      // nodes wait under round robin, a claim is a step: it takes up to
      // fetch_window segments, sends them at most fetch_window requests
      // and puts them back, so the nodes take turns chunk by chunk. FIFO
      // fetches one segment per claim to its end, and so does
      // consolidate=false, on a connection of its own.
      const bool whole = options_.consolidate && !OtherNodeWaiting(*node);
      *step = options_.consolidate && options_.round_robin && !whole;
      const size_t limit =
          whole ? SIZE_MAX
          : *step ? static_cast<size_t>(std::max(1, options_.fetch_window))
                  : 1;
      TakeQueued(*node, {}, limit, tasks);
      busy_nodes_.insert(*node);
      if (options_.round_robin) rr_last_ = *node;
      return true;
    };
    if (options_.round_robin && !node_queues_.empty()) {
      // Start scanning strictly after the last serviced node, wrapping.
      auto start = node_queues_.upper_bound(rr_last_);
      for (size_t i = 0; i < node_queues_.size(); ++i) {
        if (start == node_queues_.end()) start = node_queues_.begin();
        if (claimable(start->first, start->second)) {
          return take_from(start->first);
        }
        ++start;
      }
    } else {
      // FIFO-by-key-order (the unbalanced policy JBS replaces).
      for (auto& [key, queue] : node_queues_) {
        if (claimable(key, queue)) {
          return take_from(key);
        }
      }
    }
    if (skipped_penalized) {
      // Only penalized work is pending: sleep until the box next opens
      // (or new work / shutdown wakes us) instead of forever.
      if (auto release = health_->earliest_release()) {
        (void)work_cv_.WaitUntil(lock, *release);
        continue;
      }
      // The sentence expired between the scan and here; rescan.
      continue;
    }
    work_cv_.Wait(lock);
  }
}

void NetMerger::WorkerLoop() {
  std::string node;
  std::vector<FetchTask> tasks;
  bool step = false;
  std::string last_node;
  while (NextTasks(&node, &tasks, &step)) {
    if (node != last_node && !last_node.empty()) {
      node_switches_c_->Increment();
    }
    last_node = node;
    Converse(node, std::move(tasks), step);
    tasks.clear();
    {
      MutexLock lock(sched_mu_);
      busy_nodes_.erase(node);
    }
    work_cv_.NotifyAll();
  }
}

int64_t NetMerger::NextBackoffMs(int attempt,
                                 const net::Deadline& fetch_deadline) {
  int64_t backoff;
  {
    // Shared capped+jittered helper (common/rng.h): the shift is bounded
    // (`20 << 40` is UB on int and a multi-day sleep besides) and the
    // jitter decorrelates data threads hammering one recovering node.
    MutexLock lock(rng_mu_);
    backoff = CappedJitteredBackoffMs(options_.retry_backoff_ms, attempt,
                                      options_.max_retry_backoff_ms, rng_);
  }
  if (!fetch_deadline.infinite()) {
    backoff = std::min(backoff, fetch_deadline.remaining_ms());
  }
  return backoff;
}

int64_t NetMerger::PushbackDelayMs(uint32_t hint_ms,
                                   const net::Deadline& fetch_deadline) {
  // Honor the server's hint but desynchronize: every shed merger got
  // roughly the same hint, and returning in lockstep would re-create the
  // queue spike that caused the shed. Jitter adds up to +50%.
  int64_t delay = std::max<int64_t>(1, hint_ms);
  {
    MutexLock lock(rng_mu_);
    delay += static_cast<int64_t>(
        rng_.Below(static_cast<uint64_t>(delay / 2 + 1)));
  }
  if (options_.max_retry_backoff_ms > 0) {
    delay = std::min<int64_t>(delay, options_.max_retry_backoff_ms);
  }
  if (!fetch_deadline.infinite()) {
    delay = std::min(delay, fetch_deadline.remaining_ms());
  }
  return std::max<int64_t>(delay, 0);
}

bool NetMerger::SleepInterruptible(int64_t ms) {
  MutexLock lock(sched_mu_);
  const auto wake =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (!stopping_ &&
         work_cv_.WaitUntil(lock, wake) != std::cv_status::timeout) {
  }
  return !stopping_;
}

Status NetMerger::SendHello(net::Connection& conn,
                            const net::Deadline& deadline) {
  Hello hello;
  hello.version = kProtocolVersion;
  if (options_.advertise_wire_compress) hello.caps |= kCapWireCompression;
  return conn.Send(EncodeHello(hello), deadline);
}

void NetMerger::Converse(const std::string& node, std::vector<FetchTask> tasks,
                         bool step) {
  // Transient fetch failures (dropped connection, refused dial, blown
  // chunk deadline, corrupt chunk) are retried with capped jittered
  // backoff, re-dialing each time — a fetch failure must not fail the
  // ReduceTask the way a map-side fault would. One deadline budgets each
  // fetch — retries and replica failovers included — so a silent peer
  // costs bounded time, not attempts × timeout × replicas.
  const std::string host = tasks.front().source.host;
  const uint16_t port = tasks.front().source.port;
  std::vector<Slot> slots;
  slots.reserve(tasks.size());
  for (FetchTask& task : tasks) slots.emplace_back(std::move(task));
  const auto end_all = [&](const Status& status) {
    for (Slot& slot : slots) {
      if (slot.state != Slot::State::kEnded) FinishTask(slot.task, status);
    }
    slots.clear();
  };
  for (;;) {
    // Only a whole-queue conversation takes in segments queued after it.
    if (!step) JoinQueued(node, &slots);
    if (cancelled_.load()) return end_all(Unavailable("NetMerger stopped"));
    net::Deadline soonest;
    for (Slot& slot : slots) {
      FetchTask& task = slot.task;
      if (task.fetch->abandoned()) {
        EndTask(task, Cancelled("merge stream dropped"));
        slot.state = Slot::State::kEnded;
        continue;
      }
      if (task.deadline.expired()) {
        deadline_expiries_c_->Increment();
        FinishTask(task, DeadlineExceeded("fetch deadline exhausted for map " +
                                          std::to_string(task.source.map_task)));
        slot.state = Slot::State::kEnded;
        continue;
      }
      slot.state = Slot::State::kActive;
      slot.failure = Status::Ok();
      slot.terminal = false;
      slot.busy_hint_ms = 0;
      soonest = net::Deadline::Sooner(soonest, task.deadline);
    }
    std::erase_if(slots, [](const Slot& slot) {
      return slot.state == Slot::State::kEnded;
    });
    if (slots.empty()) return;

    const net::Deadline dial_deadline = net::Deadline::Sooner(
        soonest, net::Deadline::AfterMs(options_.connect_timeout_ms));
    bool dialed = false;
    auto conn = connections_.GetOrConnect(host, port, dial_deadline, &dialed);
    // The manager is the sole authority on whether this lookup opened a
    // connection; counting here (not from the manager's miss counter)
    // keeps one increment per dial.
    if (dialed) connections_opened_c_->Increment();
    Status round;
    if (conn.ok()) {
      for (const Slot& slot : slots) {
        trace_->Record(slot.task.fetch_id, TraceEvent::kDialed,
                       slot.task.attempts + 1);
      }
      // The capability hello goes out once per connection, not per
      // conversation — a cache hit reuses a socket the server knows.
      round = dialed ? SendHello(**conn, dial_deadline) : Status::Ok();
      if (round.ok()) round = RunRound(**conn, node, slots, step);
    } else {
      round = conn.status();
    }
    bool any_failed = !round.ok();
    for (Slot& slot : slots) {
      // A transport failure is every unfinished segment's failure.
      if (!round.ok() && slot.state == Slot::State::kActive) {
        slot.state = Slot::State::kFailed;
        slot.failure = round;
      }
      any_failed |= slot.state == Slot::State::kFailed;
    }
    // A failed round may leave the socket mid-stream, so drop it. The
    // consolidate=false ablation (Hadoop-style) drops it after every
    // round, so each fetch dials fresh; busy_nodes_ keeps one conversation
    // per host:port, so the cached entry is this one.
    if (conn.ok() && (any_failed || !options_.consolidate)) {
      connections_.Invalidate(host, port);
    }
    if (cancelled_.load()) return end_all(Unavailable("NetMerger stopped"));
    // Health bookkeeping: a transport failure counts once against the
    // node, a failure a reply names once per segment. A fresh penalty
    // sentence also evicts the cached connection so the first fetch after
    // release re-dials instead of inheriting a wedged socket.
    if (!round.ok() &&
        health_->RecordFailure(node, ClassifyFailure(round, conn.ok()))) {
      connections_.Invalidate(host, port);
    }
    int64_t delay_ms = 0;
    for (Slot& slot : slots) {
      if (slot.state != Slot::State::kFailed) continue;
      FetchTask& task = slot.task;
      const Status why = slot.failure;
      const auto fail_over_or_finish = [&] {
        if (!TryFailover(task, why)) FinishTask(task, why);
        slot.state = Slot::State::kEnded;
      };
      if (slot.terminal) {
        FinishTask(task, why);
        slot.state = Slot::State::kEnded;
      } else if (IsPushback(why)) {
        // Server pushback (DESIGN.md §16): the supplier shed a request
        // under admission control. No attempt is consumed and no health
        // bookkeeping runs — the node is healthy, just saturated. Honor
        // the retry-after hint (jittered) against the pushback budget.
        // Pushback never promotes a replica: every copy of a hot
        // partition is likely saturated too.
        pushback_c_->Increment();
        if (task.pushbacks >= options_.pushback_retry_budget) {
          health_->RecordSuccess(node);
          FinishTask(task, why);
          slot.state = Slot::State::kEnded;
          continue;
        }
        ++task.pushbacks;
        trace_->Record(task.fetch_id, TraceEvent::kRetry, task.attempts);
        delay_ms = std::max(delay_ms,
                            PushbackDelayMs(slot.busy_hint_ms, task.deadline));
      } else if (IsPermanentFetchError(why)) {
        // The server answered kFetchError: retrying the same node cannot
        // heal it, but a replica might hold the segment. The node itself
        // is alive and speaking protocol: streak cleared.
        health_->RecordSuccess(node);
        fail_over_or_finish();
      } else {
        if (round.ok() &&
            health_->RecordFailure(node, ClassifyFailure(why, true))) {
          connections_.Invalidate(host, port);
        }
        ++task.attempts;
        if (task.attempts >= options_.max_fetch_attempts) {
          fail_over_or_finish();
          continue;
        }
        fetch_retries_c_->Increment();
        trace_->Record(task.fetch_id, TraceEvent::kRetry, task.attempts);
        delay_ms = std::max(delay_ms,
                            NextBackoffMs(task.attempts, task.deadline));
      }
    }
    std::erase_if(slots, [](const Slot& slot) {
      return slot.state == Slot::State::kEnded;
    });
    // Interruptible sleep: Stop() must not wait out a backoff.
    if (!slots.empty() && delay_ms > 0 && !SleepInterruptible(delay_ms)) {
      return end_all(Unavailable("NetMerger stopped"));
    }
    // A step ends after one round: its unfinished segments go to the back
    // of the node's queue and resume at their committed offsets.
    if (step) return Requeue(node, &slots);
  }
}

void NetMerger::Requeue(const std::string& node, std::vector<Slot>* slots) {
  bool stopping = false;
  {
    // Under sched_mu_, a task is either seen abandoned here or found in
    // the queue by AbandonCall's sweep, which also takes sched_mu_: a
    // failed call's segments are never left queued behind heads that will
    // not land.
    MutexLock lock(sched_mu_);
    stopping = stopping_;
    std::deque<FetchTask>* queue = nullptr;
    for (Slot& slot : *slots) {
      if (stopping || slot.task.fetch->abandoned()) continue;
      if (queue == nullptr) queue = &node_queues_[node];
      queue->push_back(std::move(slot.task));
      slot.state = Slot::State::kEnded;
    }
    if (queue != nullptr) SetQueueDepth(node, queue->size());
  }
  // The rest end here: as Stop() ended the queued tasks, or as a dropped
  // stream's segments end.
  for (Slot& slot : *slots) {
    if (slot.state == Slot::State::kEnded) continue;  // requeued
    EndTask(slot.task, stopping ? Unavailable("NetMerger stopped")
                                : Cancelled("merge stream dropped"));
  }
  slots->clear();
}

Status NetMerger::RunRound(net::Connection& conn, const std::string& node,
                           std::vector<Slot>& slots, bool step) {
  const uint64_t head_ask = std::min<uint64_t>(options_.chunk_size, kHeadBytes);
  for (Slot& slot : slots) {
    slot.next_send = slot.committed();
    slot.stride = 0;
    slot.head = step && slot.task.buffer == nullptr;
    slot.ask = slot.head ? head_ask : options_.chunk_size;
    slot.in_flight = 0;
  }
  int in_flight = 0;
  int sent = 0;
  const int window = std::max(1, options_.fetch_window);
  // Each wire operation gets the tighter of the fetch budgets and the
  // per-chunk timeout; the chunk clock restarts per operation, so a slow
  // *peer* trips it but a long multi-chunk segment does not.
  const auto op_deadline = [&] {
    net::Deadline deadline =
        net::Deadline::AfterMs(options_.chunk_timeout_ms);
    for (const Slot& slot : slots) {
      if (slot.state == Slot::State::kActive) {
        deadline = net::Deadline::Sooner(deadline, slot.task.deadline);
      }
    }
    return deadline;
  };
  const auto find = [&](int32_t map_task, int32_t partition) -> Slot* {
    for (Slot& slot : slots) {
      if (slot.Names(map_task, partition)) return &slot;
    }
    return nullptr;
  };
  // The next request goes to the segment with the fewest bytes requested,
  // so all of them advance together. A segment's first request in a round
  // goes alone: its reply sets the segment's size and the server's
  // chunk stride. A step sends fetch_window requests in all, a segment
  // without its first chunk its head only.
  const auto pick = [&]() -> Slot* {
    Slot* best = nullptr;
    for (Slot& slot : slots) {
      if (slot.state != Slot::State::kActive || slot.task.fetch->abandoned()) {
        continue;
      }
      const bool ready =
          slot.stride == 0
              ? slot.in_flight == 0
              : slot.next_send < slot.task.buffer->capacity() &&
                    (!step || (!slot.head && sent < window));
      if (ready && (best == nullptr || slot.next_send < best->next_send)) {
        best = &slot;
      }
    }
    return best;
  };
  // Receive in place (DESIGN.md §13): a raw chunk that continues a sized
  // segment lands straight in the segment's spare bytes. It stays
  // uncommitted, out of the reader's view, until it is verified.
  const net::Connection::Placement place =
      [&](uint8_t type, std::span<const uint8_t> head,
          size_t tail_len) -> std::span<uint8_t> {
    if (type != kFetchData) return {};
    const auto header = DecodeDataHeader(head);
    if (!header || (header->flags & kChunkCompressed) != 0) return {};
    Slot* slot = find(header->map_task, header->partition);
    if (slot == nullptr || slot->state != Slot::State::kActive ||
        slot->task.buffer == nullptr || tail_len > slot->ask) {
      return {};
    }
    SegmentBuffer& buffer = *slot->task.buffer;
    if (header->segment_total != buffer.capacity() ||
        header->offset != buffer.size()) {
      return {};
    }
    const std::span<uint8_t> spare = buffer.spare();
    if (tail_len > spare.size()) return {};
    return spare.first(tail_len);
  };

  for (;;) {
    // Segments queued for this node since join a whole-queue conversation,
    // unless a failed one is waiting for the round to end.
    if (!step &&
        std::none_of(slots.begin(), slots.end(), [](const Slot& slot) {
          return slot.state == Slot::State::kFailed;
        })) {
      const size_t before = slots.size();
      JoinQueued(node, &slots);
      for (size_t i = before; i < slots.size(); ++i) {
        slots[i].ask = options_.chunk_size;
        trace_->Record(slots[i].task.fetch_id, TraceEvent::kDialed,
                       slots[i].task.attempts + 1);
      }
    }
    // A dropped stream's segment ends once its replies are in.
    for (Slot& slot : slots) {
      if (slot.state == Slot::State::kActive && slot.in_flight == 0 &&
          slot.task.fetch->abandoned()) {
        EndTask(slot.task, Cancelled("merge stream dropped"));
        slot.state = Slot::State::kEnded;
      }
    }
    // Windowed pipelining: keep up to fetch_window requests in flight so
    // the server's disk stage works ahead of the network and each reply
    // costs far less than a full round trip. fetch_window = 1 degrades to
    // the seed's stop-and-wait ping-pong.
    while (in_flight < window) {
      Slot* slot = pick();
      if (slot == nullptr) break;
      FetchRequest request;
      request.map_task = slot->task.source.map_task;
      request.partition = slot->task.partition;
      request.offset = slot->next_send;
      request.max_len = static_cast<uint32_t>(slot->ask);
      JBS_RETURN_IF_ERROR(conn.Send(EncodeRequest(request), op_deadline()));
      if (slot->task.buffer == nullptr) {
        trace_->Record(slot->task.fetch_id, TraceEvent::kRequestSent);
      }
      if (slot->stride != 0) slot->next_send += slot->stride;
      ++slot->in_flight;
      ++in_flight;
      ++sent;
    }
    if (in_flight == 0) return Status::Ok();

    auto reply = conn.ReceivePlaced(kDataHeaderSize, place, op_deadline());
    JBS_RETURN_IF_ERROR(reply.status());
    // Every reply names its segment. One the conversation did not ask for
    // leaves the stream's state unknown: the round ends.
    Slot* slot = nullptr;
    Status named;  // the failure this reply names for its segment
    if (reply->type == kFetchError) {
      auto error = DecodeError(*reply);
      if (!error) return IoError("undecodable fetch error frame");
      slot = find(error->map_task, error->partition);
      named = IoError("fetch error: " + error->message);
    } else if (reply->type == kErrorBusy) {
      // Checked before any data decode, so a busy frame can never reach
      // the CRC verifier and masquerade as chunk corruption.
      auto busy = DecodeBusy(*reply);
      if (!busy) return IoError("undecodable busy frame");
      slot = find(busy->map_task, busy->partition);
      if (slot != nullptr && slot->state == Slot::State::kActive) {
        slot->busy_hint_ms = busy->retry_after_ms;
      }
      named = ResourceExhausted(
          "server busy: map " + std::to_string(busy->map_task) +
          " shed, retry after " + std::to_string(busy->retry_after_ms) + "ms");
    } else {
      std::span<const uint8_t> data;
      auto header = DecodeData(*reply, &data);
      if (!header) return IoError("undecodable fetch data frame");
      slot = find(header->map_task, header->partition);
      // End-to-end integrity: every chunk must carry a wire CRC (header
      // fields folded over the payload CRC), recomputed here before any
      // byte can enter the merge. A cleared kChunkHasCrc is itself a
      // flipped bit, so it fails like a mismatch. Runs before the
      // sequence check so a flipped offset or length field is attributed
      // to corruption, not to a confused server.
      if ((header->flags & kChunkHasCrc) == 0 ||
          ChunkWireCrc(*header, Crc32(data)) != header->crc32) {
        chunks_corrupt_c_->Increment();
        named = IoError("chunk CRC mismatch for map " +
                        std::to_string(header->map_task) + " at offset " +
                        std::to_string(header->offset));
        if (slot == nullptr) return named;
        trace_->Record(slot->task.fetch_id, TraceEvent::kCorrupt,
                       static_cast<int64_t>(header->offset));
      } else if (slot != nullptr && slot->state == Slot::State::kActive) {
        named = AcceptChunk(*slot, *header, data, !reply->ext.empty());
      }
    }
    if (slot == nullptr) return Internal("fetch reply out of sequence");
    --slot->in_flight;
    --in_flight;
    // A failed segment's later replies are dropped unread.
    if (slot->state == Slot::State::kActive && !named.ok()) {
      slot->state = Slot::State::kFailed;
      slot->failure = std::move(named);
    }
  }
}

Status NetMerger::AcceptChunk(Slot& slot, const FetchDataHeader& header,
                              std::span<const uint8_t> data, bool placed) {
  FetchTask& task = slot.task;
  const uint64_t committed = slot.committed();
  if (header.offset != committed) {
    return Internal("fetch reply out of sequence");
  }
  // The first reply fixes segment_total and sizes the segment's mapping
  // once. Every later reply must repeat it and the segment flag, from any
  // replica: a retry resumes at the committed offset, and the merge may
  // have read the bytes before it, so a segment that differs cannot
  // continue.
  const bool compressed = (header.flags & kSegmentCompressed) != 0;
  if (task.buffer == nullptr) {
    auto buffer = segments_->Acquire(header.segment_total);
    JBS_RETURN_IF_ERROR(buffer.status());
    task.buffer = std::move(buffer).value();
    task.compressed = compressed;
  } else if (header.segment_total != task.buffer->capacity() ||
             compressed != task.compressed) {
    slot.terminal = true;
    return Internal("segment_total or flags changed mid-segment for map " +
                    std::to_string(task.source.map_task) + ": " +
                    std::to_string(header.segment_total) + " bytes, " +
                    std::to_string(task.buffer->capacity()) + " committed to");
  }
  SegmentBuffer& buffer = *task.buffer;
  // The server must honor our max_len ask and the segment bound in
  // logical bytes, raw or compressed; a violation is a protocol breach,
  // not line noise, so it is not retried as corruption. Append and Commit
  // refuse to run past segment_total.
  const bool wire_compressed = (header.flags & kChunkCompressed) != 0;
  uint64_t logical = data.size();
  if (wire_compressed) {
    // Wire compression: the CRC covered the compressed payload, so a
    // damaged chunk was already rejected without paying for this
    // decompress. The chunk decodes straight into the segment's spare
    // bytes. Offsets stay in logical coordinates — only the payload
    // shrank — so the stride bookkeeping never notices.
    const std::span<uint8_t> spare = buffer.spare();
    auto raw =
        DecompressInto(data, spare.first(std::min(spare.size(), slot.ask)));
    if (raw.status().code() == StatusCode::kResourceExhausted) {
      return Internal("compressed chunk overruns the requested max_len "
                      "or the segment: " + raw.status().message());
    }
    if (!raw.ok()) {
      chunks_corrupt_c_->Increment();
      trace_->Record(task.fetch_id, TraceEvent::kCorrupt,
                     static_cast<int64_t>(header.offset));
      return IoError("chunk decompress failed for map " +
                     std::to_string(task.source.map_task) + " at offset " +
                     std::to_string(header.offset) + ": " +
                     raw.status().message());
    }
    logical = *raw;
  } else if (logical > slot.ask) {
    return Internal("chunk of " + std::to_string(logical) +
                    " bytes exceeds the requested max_len");
  }
  if (logical == 0 && committed < buffer.capacity()) {
    return Internal("server made no progress");
  }
  // Verified: a chunk received or decoded in place already sits at the
  // buffer's end and only needs committing; any other is copied there.
  if (wire_compressed || placed) {
    JBS_RETURN_IF_ERROR(buffer.Commit(logical));
  } else {
    JBS_RETURN_IF_ERROR(buffer.Append(data));
    bytes_copied_c_->Increment(logical);
  }
  // Counted as they commit, so the counters show a fetch in progress. A
  // retry resumes after the committed bytes and never counts them twice.
  if (wire_compressed) chunks_compressed_c_->Increment();
  chunks_c_->Increment();
  bytes_fetched_c_->Increment(logical);
  trace_->Record(task.fetch_id, TraceEvent::kChunkReceived,
                 static_cast<int64_t>(logical));
  if (slot.stride == 0) {
    slot.stride = logical;
    slot.next_send = committed + logical;
  }
  if (!task.landed) {
    task.landed = true;
    task.fetch->Land(task.buffer, task.compressed);
    bool heads_landed = false;
    {
      MutexLock lock(task.context->mu);
      if (--task.context->unlanded == 0) {
        task.context->cv.NotifyAll();
        heads_landed = true;
      }
    }
    // The call's later chunks become claimable.
    if (heads_landed) {
      {
        MutexLock lock(sched_mu_);
        task.context->heads_landed.store(true, std::memory_order_relaxed);
      }
      work_cv_.NotifyAll();
    }
  } else {
    task.fetch->Published();
  }
  if (buffer.size() == buffer.capacity()) {
    fetches_c_->Increment();
    health_->RecordSuccess(NodeKey(task.source));
    FinishTask(task, Status::Ok());
    slot.state = Slot::State::kEnded;
  }
  return Status::Ok();
}

bool NetMerger::TryFailover(FetchTask& task, const Status& why) {
  if (task.alternates.empty()) return false;
  if (task.reroutes >= options_.max_failovers) return false;
  if (cancelled_.load()) return false;
  if (task.deadline_armed && task.deadline.expired()) return false;
  // Prefer the first alternate not serving a sentence; failing that, take
  // the first one anyway — its box may open before this node heals, and
  // the scheduler knows how to wait out a sentence.
  size_t pick = 0;
  for (size_t i = 0; i < task.alternates.size(); ++i) {
    if (!health_->penalized(NodeKey(task.alternates[i]))) {
      pick = i;
      break;
    }
  }
  {
    MutexLock lock(sched_mu_);
    if (stopping_) return false;
    JBS_DEBUG << "failover: map " << task.source.map_task << " -> "
              << NodeKey(task.alternates[pick]) << " after: " << why.message();
    Reroute(task, pick);
  }
  work_cv_.NotifyAll();
  return true;
}

void NetMerger::Reroute(FetchTask& task, size_t alt) {
  std::swap(task.source, task.alternates[alt]);
  ++task.reroutes;
  // The attempt and pushback ledgers are per node; the deadline is not.
  task.attempts = 0;
  task.pushbacks = 0;
  task.started = {};
  failovers_c_->Increment();
  trace_->Record(task.fetch_id, TraceEvent::kFailover,
                 static_cast<int64_t>(task.alternates.size()));
  const std::string dest = NodeKey(task.source);
  auto& queue = node_queues_[dest];
  queue.push_back(std::move(task));
  SetQueueDepth(dest, queue.size());
}

void NetMerger::FinishTask(FetchTask& task, const Status& status) {
  if (task.started != std::chrono::steady_clock::time_point{}) {
    const double latency_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - task.started)
            .count();
    fetch_latency_ms_h_->Observe(latency_ms);
    fetch_attempts_h_->Observe(static_cast<double>(std::min(
        task.attempts + 1, std::max(1, options_.max_fetch_attempts))));
  }
  EndTask(task, status);
}

void NetMerger::EndTask(FetchTask& task, const Status& status) {
  // The writer's reference goes first, so the reader that sees the end
  // may hold the last one.
  const uint64_t size = task.buffer == nullptr ? 0 : task.buffer->size();
  task.buffer.reset();
  if (status.ok()) {
    trace_->Record(task.fetch_id, TraceEvent::kMerged,
                   static_cast<int64_t>(size));
  } else {
    trace_->Record(task.fetch_id, TraceEvent::kFailed,
                   static_cast<int64_t>(status.code()));
    // Tasks drained by Stop() or dropped with their stream aren't fetch
    // failures; count only fetches that genuinely exhausted their
    // attempts.
    if (!cancelled_.load() && status.code() != StatusCode::kCancelled) {
      fetch_errors_c_->Increment();
    }
  }
  task.fetch->End(status);
  const std::shared_ptr<CallContext> context = std::move(task.context);
  task.fetch.reset();
  MutexLock lock(context->mu);
  if (!status.ok() && context->error.ok()) context->error = status;
  --context->outstanding;
  context->cv.NotifyAll();
}

}  // namespace jbs::shuffle
