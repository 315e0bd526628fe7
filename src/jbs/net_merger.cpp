#include "jbs/net_merger.h"

#include <algorithm>
#include <thread>

#include "common/bytes.h"
#include "common/compress.h"
#include "common/logging.h"
#include "jbs/protocol.h"

namespace jbs::shuffle {

namespace {

/// Fixed seed for the retry-backoff jitter, so retry timing replays.
constexpr uint64_t kBackoffJitterSeed = 0x6A6274735F6E6D32ull;

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
      CompleteTask(task, Unavailable("NetMerger stopped"));
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
    // Not yet shared with any worker, but `remaining` is guarded and this
    // is nowhere near a hot path: take the lock rather than carve out an
    // escape hatch.
    MutexLock context_lock(context->mu);
    context->remaining = unique.size();
  }
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
      task.alternates = replica.alternates;
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

  MutexLock lock(context->mu);
  while (context->remaining != 0) context->done_cv.Wait(lock);
  if (!context->error.ok()) {
    // Release the segments that did arrive now, not when the last data
    // thread drops its copy of the context.
    context->segments.clear();
    return context->error;
  }

  // Network-levitated merge: all segments live in memory and are merged in
  // place; each stream holds its segment's mapping.
  std::vector<std::unique_ptr<mr::RecordStream>> streams;
  streams.reserve(unique.size());
  for (const Replica& replica : unique) {
    auto it = context->segments.find(replica.primary.map_task);
    if (it == context->segments.end()) {
      return Internal("segment missing for map " +
                      std::to_string(replica.primary.map_task));
    }
    std::shared_ptr<SegmentBuffer> buffer = std::move(it->second.buffer);
    const std::span<const uint8_t> bytes = buffer->bytes();
    auto stream =
        mr::OpenSegment(bytes, std::move(buffer), it->second.compressed);
    JBS_RETURN_IF_ERROR(stream.status());
    streams.push_back(std::move(stream).value());
  }
  return std::unique_ptr<mr::RecordStream>(
      std::make_unique<mr::KWayMerger>(std::move(streams)));
}

bool NetMerger::NextTask(std::string* node, FetchTask* task) {
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
    // data thread (one in-flight conversation per connection), not in the
    // penalty box.
    bool skipped_penalized = false;
    auto claimable = [&](const std::string& key,
                         const std::deque<FetchTask>& queue) {
      if (queue.empty() || busy_nodes_.contains(key)) return false;
      if (health_->penalized(key)) {
        skipped_penalized = true;
        return false;
      }
      return true;
    };
    auto take_from = [&](const std::string& key,
                         std::deque<FetchTask>& queue) {
      *node = key;
      *task = std::move(queue.front());
      queue.pop_front();
      busy_nodes_.insert(key);
      if (options_.round_robin) rr_last_ = key;
      SetQueueDepth(key, queue.size());
      // Erase drained queues: otherwise node_queues_ keeps one tombstone
      // entry per remote node ever fetched from for the job's lifetime.
      // (*node is the surviving copy; `key` dangles after the erase.)
      if (queue.empty()) node_queues_.erase(*node);
      return true;
    };
    if (options_.round_robin && !node_queues_.empty()) {
      // Start scanning strictly after the last serviced node, wrapping.
      auto start = node_queues_.upper_bound(rr_last_);
      for (size_t i = 0; i < node_queues_.size(); ++i) {
        if (start == node_queues_.end()) start = node_queues_.begin();
        if (claimable(start->first, start->second)) {
          return take_from(start->first, start->second);
        }
        ++start;
      }
    } else {
      // FIFO-by-key-order (the unbalanced policy JBS replaces).
      for (auto& [key, queue] : node_queues_) {
        if (claimable(key, queue)) {
          return take_from(key, queue);
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
  FetchTask task;
  std::string last_node;
  while (NextTask(&node, &task)) {
    if (node != last_node && !last_node.empty()) {
      node_switches_c_->Increment();
    }
    last_node = node;
    ExecuteTask(node, std::move(task));
    // Drop the shared context before blocking in NextTask again, so the
    // FetchAndMerge caller is the last owner once all segments land.
    task = FetchTask{};
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

void NetMerger::ExecuteTask(const std::string& node, FetchTask task) {
  // Transient fetch failures (dropped connection, refused dial, blown
  // chunk deadline, corrupt chunk) are retried with capped jittered
  // backoff, re-dialing each time — a fetch failure must not fail the
  // ReduceTask the way a map-side fault would. One deadline budgets the
  // whole fetch — retries and replica failovers included — so a silent
  // peer costs bounded time, not attempts × timeout × replicas.
  if (!task.deadline_armed) {
    task.deadline = net::Deadline::AfterMs(options_.fetch_deadline_ms);
    task.deadline_armed = true;
  }
  const net::Deadline fetch_deadline = task.deadline;
  const auto fetch_start = std::chrono::steady_clock::now();
  int attempts_used = 0;
  int attempt = 0;            // transient-failure attempts consumed
  int pushbacks_honored = 0;  // kErrorBusy budget consumed — separate ledger
  bool dialed_ok = false;
  StatusOr<FetchedSegment> result = Unavailable("not fetched");
  uint32_t busy_hint_ms = 0;
  for (;;) {
    attempts_used = attempt + 1;
    dialed_ok = false;
    busy_hint_ms = 0;
    if (cancelled_.load()) {
      result = Unavailable("NetMerger stopped");
      break;
    }
    if (fetch_deadline.expired()) {
      deadline_expiries_c_->Increment();
      result = DeadlineExceeded("fetch deadline exhausted for map " +
                                std::to_string(task.source.map_task));
      break;
    }
    const net::Deadline dial_deadline = net::Deadline::Sooner(
        fetch_deadline, net::Deadline::AfterMs(options_.connect_timeout_ms));
    bool dialed = false;
    auto conn = connections_.GetOrConnect(task.source.host, task.source.port,
                                          dial_deadline, &dialed);
    // The manager is the sole authority on whether this lookup opened a
    // connection; counting here (not from the manager's miss counter)
    // keeps one increment per dial.
    if (dialed) connections_opened_c_->Increment();
    if (conn.ok()) {
      dialed_ok = true;
      trace_->Record(task.fetch_id, TraceEvent::kDialed, attempt + 1);
      // The capability hello goes out once per connection, not per
      // fetch — a cache hit reuses a socket the server already knows.
      Status hello_st =
          dialed ? SendHello(**conn, dial_deadline) : Status::Ok();
      result = hello_st.ok()
                   ? FetchSegment(**conn, task, fetch_deadline, &busy_hint_ms)
                   : StatusOr<FetchedSegment>(hello_st);
      // A failed conversation leaves the socket mid-stream, so drop it. The
      // consolidate=false ablation (Hadoop-style) drops it after every
      // fetch, so each fetch dials fresh; busy_nodes_ keeps one
      // conversation per host:port, so the cached entry is this one.
      if (!result.ok() || !options_.consolidate) {
        connections_.Invalidate(task.source.host, task.source.port);
      }
    } else {
      result = conn.status();
    }
    if (result.ok()) break;
    if (cancelled_.load()) break;
    if (IsPushback(result.status())) {
      // Server pushback (DESIGN.md §16): the supplier shed this request
      // under admission control. No attempt is consumed and no health
      // bookkeeping runs — the node is healthy, just saturated. Honor the
      // retry-after hint (jittered) against the pushback budget.
      pushback_c_->Increment();
      if (pushbacks_honored >= options_.pushback_retry_budget) break;
      ++pushbacks_honored;
      trace_->Record(task.fetch_id, TraceEvent::kRetry, attempt);
      if (!SleepInterruptible(PushbackDelayMs(busy_hint_ms, fetch_deadline))) {
        result = Unavailable("NetMerger stopped");
        break;
      }
      continue;
    }
    // Permanent errors (the server answered with kFetchError) don't heal
    // with retries of the same node — but a replica might hold the MOF, so
    // they still fail over below.
    if (IsPermanentFetchError(result.status())) break;
    // Health bookkeeping: every transient attempt failure counts against
    // the node. A fresh penalty sentence also evicts the cached connection
    // so the first fetch after release re-dials instead of inheriting a
    // wedged socket.
    if (health_->RecordFailure(node,
                               ClassifyFailure(result.status(), dialed_ok))) {
      connections_.Invalidate(task.source.host, task.source.port);
    }
    ++attempt;
    if (attempt >= options_.max_fetch_attempts) break;
    fetch_retries_c_->Increment();
    trace_->Record(task.fetch_id, TraceEvent::kRetry, attempt);
    // Interruptible sleep: Stop() must not wait out a backoff.
    if (!SleepInterruptible(NextBackoffMs(attempt, fetch_deadline))) {
      result = Unavailable("NetMerger stopped");
      break;
    }
  }
  if (!cancelled_.load() &&
      (result.ok() || IsPermanentFetchError(result.status()) ||
       IsPushback(result.status()))) {
    // Either way the node is alive and speaking protocol: streak cleared.
    health_->RecordSuccess(node);
  }
  // Pushback never promotes a replica: every copy of a hot partition is
  // likely saturated too, and rerouting just spreads the overload.
  if (!result.ok() && !IsPushback(result.status()) &&
      TryFailover(task, result.status())) {
    return;
  }
  const double latency_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - fetch_start)
                                .count();
  fetch_latency_ms_h_->Observe(latency_ms);
  fetch_attempts_h_->Observe(static_cast<double>(attempts_used));
  CompleteTask(task, std::move(result));
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
  failovers_c_->Increment();
  trace_->Record(task.fetch_id, TraceEvent::kFailover,
                 static_cast<int64_t>(task.alternates.size()));
  const std::string dest = NodeKey(task.source);
  auto& queue = node_queues_[dest];
  queue.push_back(std::move(task));
  SetQueueDepth(dest, queue.size());
}

StatusOr<NetMerger::FetchedSegment> NetMerger::FetchSegment(
    net::Connection& conn, const FetchTask& task,
    const net::Deadline& deadline, uint32_t* busy_retry_after_ms) {
  FetchedSegment fetched;
  // Per-chunk counters accumulate locally and fold into the registry once
  // per segment, so a multi-chunk fetch issues one atomic add per counter,
  // not one per round trip.
  uint64_t local_chunks = 0;
  uint64_t local_bytes = 0;
  uint64_t local_copied = 0;

  // Each wire operation gets the tighter of the fetch budget and the
  // per-chunk timeout; the chunk clock restarts per operation, so a slow
  // *peer* trips it but a long multi-chunk segment does not.
  const auto op_deadline = [&] {
    return net::Deadline::Sooner(
        deadline, net::Deadline::AfterMs(options_.chunk_timeout_ms));
  };

  const auto send_request = [&](uint64_t offset) -> Status {
    FetchRequest request;
    request.map_task = task.source.map_task;
    request.partition = task.partition;
    request.offset = offset;
    request.max_len = static_cast<uint32_t>(options_.chunk_size);
    return conn.Send(EncodeRequest(request), op_deadline());
  };
  // Receive in place (DESIGN.md §13): once the first reply has sized the
  // segment, a raw chunk that fits lands straight in the buffer's spare
  // bytes. It stays uncommitted, out of bytes(), until it is verified.
  const net::Connection::Placement place =
      [&](uint8_t type, std::span<const uint8_t> head,
          size_t tail_len) -> std::span<uint8_t> {
    if (fetched.buffer == nullptr || type != kFetchData) return {};
    const auto header = DecodeDataHeader(head);
    if (!header || (header->flags & kChunkCompressed) != 0 ||
        header->segment_total != fetched.buffer->capacity() ||
        tail_len > options_.chunk_size) {
      return {};
    }
    const std::span<uint8_t> spare = fetched.buffer->spare();
    if (tail_len > spare.size()) return {};
    return spare.first(tail_len);
  };
  // Receives one data reply, validating it continues the segment at
  // `expect_offset`; adds the payload to the segment and returns its
  // logical size.
  const auto receive_chunk =
      [&](uint64_t expect_offset) -> StatusOr<uint64_t> {
    auto reply = conn.ReceivePlaced(kDataHeaderSize, place, op_deadline());
    JBS_RETURN_IF_ERROR(reply.status());
    if (reply->type == kFetchError) {
      auto error = DecodeError(*reply);
      return IoError("fetch error: " +
                     (error ? error->message : "undecodable"));
    }
    if (reply->type == kErrorBusy) {
      // Checked before any data decode, so a busy frame can never reach
      // the CRC verifier and masquerade as chunk corruption.
      auto busy = DecodeBusy(*reply);
      if (!busy) return IoError("undecodable busy frame");
      if (busy_retry_after_ms != nullptr) {
        *busy_retry_after_ms = busy->retry_after_ms;
      }
      return ResourceExhausted(
          "server busy: map " + std::to_string(task.source.map_task) +
          " shed, retry after " + std::to_string(busy->retry_after_ms) +
          "ms");
    }
    std::span<const uint8_t> data;
    auto header = DecodeData(*reply, &data);
    if (!header) return IoError("undecodable fetch data frame");
    // End-to-end integrity: every chunk must carry a wire CRC (header
    // fields folded over the payload CRC), recomputed here before any byte
    // can enter the merge. A cleared kChunkHasCrc is itself a flipped bit,
    // so it fails like a mismatch. Runs before the sequence check so a
    // flipped offset or length field is attributed to corruption, not to
    // a confused server.
    if ((header->flags & kChunkHasCrc) == 0 ||
        ChunkWireCrc(*header, Crc32(data)) != header->crc32) {
      chunks_corrupt_c_->Increment();
      trace_->Record(task.fetch_id, TraceEvent::kCorrupt,
                     static_cast<int64_t>(header->offset));
      return IoError("chunk CRC mismatch for map " +
                     std::to_string(task.source.map_task) + " at offset " +
                     std::to_string(header->offset));
    }
    if (header->map_task != task.source.map_task ||
        header->partition != task.partition ||
        header->offset != expect_offset) {
      return Internal("fetch reply out of sequence");
    }
    // The first reply fixes segment_total and sizes the segment's mapping
    // once; every later reply must repeat it.
    if (fetched.buffer == nullptr) {
      auto buffer = segments_->Acquire(header->segment_total);
      JBS_RETURN_IF_ERROR(buffer.status());
      fetched.buffer = std::move(buffer).value();
    } else if (header->segment_total != fetched.buffer->capacity()) {
      return Internal("segment_total changed mid-segment");
    }
    fetched.compressed = (header->flags & kSegmentCompressed) != 0;
    // The server must honor our max_len ask and the segment bound in
    // logical bytes, raw or compressed; a violation is a protocol breach,
    // not line noise, so it is not retried as corruption. Append and
    // Commit refuse to run past segment_total.
    const bool wire_compressed = (header->flags & kChunkCompressed) != 0;
    uint64_t logical = data.size();
    if (wire_compressed) {
      // Wire compression: the CRC above covered the compressed payload,
      // so a damaged chunk was already rejected without paying for this
      // decompress. The chunk decodes straight into the segment's spare
      // bytes. Offsets stay in logical coordinates — only the payload
      // shrank — so the stride/window bookkeeping below never notices.
      const std::span<uint8_t> spare = fetched.buffer->spare();
      auto raw = DecompressInto(
          data, spare.first(std::min<uint64_t>(spare.size(),
                                               options_.chunk_size)));
      if (raw.status().code() == StatusCode::kResourceExhausted) {
        return Internal("compressed chunk overruns the requested max_len "
                        "or the segment: " + raw.status().message());
      }
      if (!raw.ok()) {
        chunks_corrupt_c_->Increment();
        trace_->Record(task.fetch_id, TraceEvent::kCorrupt,
                       static_cast<int64_t>(header->offset));
        return IoError("chunk decompress failed for map " +
                       std::to_string(task.source.map_task) + " at offset " +
                       std::to_string(header->offset) + ": " +
                       raw.status().message());
      }
      logical = *raw;
    } else if (logical > options_.chunk_size) {
      return Internal("chunk of " + std::to_string(logical) +
                      " bytes exceeds the requested max_len");
    }
    // Verified: a chunk received or decoded in place already sits at the
    // buffer's end and only needs committing; any other is copied there.
    if (wire_compressed || !reply->ext.empty()) {
      JBS_RETURN_IF_ERROR(fetched.buffer->Commit(logical));
    } else {
      JBS_RETURN_IF_ERROR(fetched.buffer->Append(data));
      local_copied += logical;
    }
    if (wire_compressed) chunks_compressed_c_->Increment();
    ++local_chunks;
    local_bytes += logical;
    trace_->Record(task.fetch_id, TraceEvent::kChunkReceived,
                   static_cast<int64_t>(logical));
    return logical;
  };

  // First chunk alone: it establishes segment_total (which sizes the
  // segment's mapping) and the server's chunk stride (the server may cap
  // below our chunk_size ask).
  JBS_RETURN_IF_ERROR(send_request(0));
  trace_->Record(task.fetch_id, TraceEvent::kRequestSent);
  auto first = receive_chunk(0);
  JBS_RETURN_IF_ERROR(first.status());
  const uint64_t total = fetched.buffer->capacity();
  uint64_t offset = *first;
  if (offset < total) {
    if (*first == 0) return Internal("server made no progress");
    const uint64_t stride = *first;
    // Windowed pipelining: keep up to fetch_window chunk requests in
    // flight so the server's disk stage works ahead of the network and
    // each reply costs far less than a full round trip. fetch_window = 1
    // degrades to the seed's stop-and-wait ping-pong.
    const int window = std::max(1, options_.fetch_window);
    uint64_t next_send = offset;
    int in_flight = 0;
    while (in_flight < window && next_send < total) {
      JBS_RETURN_IF_ERROR(send_request(next_send));
      next_send += stride;
      ++in_flight;
    }
    while (offset < total) {
      auto chunk = receive_chunk(offset);
      JBS_RETURN_IF_ERROR(chunk.status());
      if (*chunk == 0) return Internal("server made no progress");
      offset += *chunk;
      --in_flight;
      while (in_flight < window && next_send < total) {
        JBS_RETURN_IF_ERROR(send_request(next_send));
        next_send += stride;
        ++in_flight;
      }
    }
  }
  chunks_c_->Increment(local_chunks);
  bytes_fetched_c_->Increment(local_bytes);
  bytes_copied_c_->Increment(local_copied);
  fetches_c_->Increment();
  return fetched;
}

void NetMerger::CompleteTask(const FetchTask& task,
                             StatusOr<FetchedSegment> result) {
  std::shared_ptr<CallContext> context = task.context;
  MutexLock lock(context->mu);
  if (result.ok()) {
    trace_->Record(task.fetch_id, TraceEvent::kMerged,
                   static_cast<int64_t>(result->buffer->size()));
    context->segments[task.source.map_task] = std::move(result).value();
  } else {
    trace_->Record(task.fetch_id, TraceEvent::kFailed,
                   static_cast<int64_t>(result.status().code()));
    if (context->error.ok()) context->error = result.status();
    if (!cancelled_.load()) {
      // Tasks drained by Stop() aren't fetch failures; count only fetches
      // that genuinely exhausted their attempts.
      fetch_errors_c_->Increment();
    }
  }
  --context->remaining;
  if (context->remaining == 0) context->done_cv.NotifyAll();
}

}  // namespace jbs::shuffle
