// NetMerger (§III-C): the native client half of JBS. One per node, shared
// by every ReduceTask on that node, replacing their MOFCopier thread pools.
// Fetch requests from all reducers are consolidated into one queue per
// remote node (so live connections scale with nodes, not copiers), ordered
// by arrival within a node, and injected round-robin across nodes to keep
// any one ReduceTask's burst from monopolizing the network. Fetched
// segments stay in memory and feed the network-levitated merge — no
// reduce-side spill.
//
// Every wire operation is deadline-bounded: a fetch gets one time budget
// covering all retry attempts, each dial and each chunk round trip may be
// bounded tighter, and Stop() cancels everything in flight — queued and
// executing fetches complete with kUnavailable, so no FetchAndMerge caller
// is left blocked on a silent peer.
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/rng.h"
#include "jbs/node_health.h"
#include "jbs/segment_buffer.h"
#include "mapred/shuffle.h"
#include "transport/connection_manager.h"
#include "transport/deadline.h"
#include "transport/transport.h"

namespace jbs::shuffle {

class NetMerger final : public mr::ShuffleClient {
 public:
  struct Options {
    net::Transport* transport = nullptr;  // required
    int data_threads = 3;                 // paper: 3 native threads
    size_t chunk_size = 128 * 1024;       // max bytes per fetch round trip
    int fetch_window = 4;  // chunk requests kept in flight per connection
                           // (1 = the seed's stop-and-wait ping-pong)
    size_t connection_cache_capacity = 512;
    bool consolidate = true;   // ablation: false = connection per fetch
    bool round_robin = true;   // ablation: false = drain nodes in key order
    int max_fetch_attempts = 3;      // transient-failure retries per fetch
    int retry_backoff_ms = 20;       // doubled per attempt, jittered
    int max_retry_backoff_ms = 2000;  // backoff ceiling (0 = uncapped)
    // Overload pushback (DESIGN.md §16): a kErrorBusy reply is not a
    // failure — the supplier shed the request under admission control.
    // Busy retries honor the server's retry-after hint (plus capped
    // jitter) and draw from this budget, a ledger separate from
    // max_fetch_attempts and from the fetch deadline, so a long overload
    // episode neither burns failure attempts nor converts into spurious
    // failovers / health penalties. Exhausting the budget completes the
    // fetch with kResourceExhausted (no failover — every replica of a hot
    // partition is likely saturated too, and hammering the next one only
    // spreads the overload).
    int pushback_retry_budget = 32;
    int64_t fetch_deadline_ms = 0;   // budget for one fetch incl. retries
                                     // (0 = unbounded)
    int64_t connect_timeout_ms = 0;  // per-dial bound (0 = unbounded)
    int64_t chunk_timeout_ms = 0;    // per chunk round trip (0 = unbounded)
    // Advertise kCapWireCompression in the hello sent on every fresh dial,
    // inviting the supplier to ship eligible chunks compressed (the merger
    // can always decompress — this knob exists for the ablation bench).
    // Whether chunks actually compress is the supplier's decision.
    bool advertise_wire_compress = true;
    // Penalty box (see node_health.h): consecutive failures against one
    // remote node mark it suspect, then penalized; injection routes around
    // a penalized node until its sentence expires.
    int health_suspect_after = 1;
    int health_penalize_after = 3;  // <= 0 disables the box
    int64_t health_penalty_ms = 200;
    int64_t health_penalty_max_ms = 10000;
    int max_failovers = 4;  // replica reroutes per fetch (bounds ping-pong
                            // between two half-dead replica holders)
    // Observability: a shared MetricsRegistry / TraceRecorder (e.g. the
    // plugin's, so client and server publish into one exposition), or
    // nullptr for a private one owned by this merger. `instance`
    // distinguishes per-instance gauges when the registry is shared.
    MetricsRegistry* metrics = nullptr;
    TraceRecorder* trace = nullptr;
    std::string instance{};
  };

  explicit NetMerger(Options options);
  ~NetMerger() override;

  StatusOr<std::unique_ptr<mr::RecordStream>> FetchAndMerge(
      int partition, const std::vector<mr::MofLocation>& sources) override
      EXCLUDES(sched_mu_);

  /// Cancels all fetch work and joins the data threads. Queued and
  /// in-flight fetches fail with kUnavailable, so every FetchAndMerge
  /// caller — including ones blocked on a silent peer — returns promptly.
  void Stop() override EXCLUDES(sched_mu_);
  Stats stats() const override;

  /// Legacy stats view, now a thin read of the MetricsRegistry counters —
  /// kept so existing callers (tests, benches) don't have to learn metric
  /// names.
  struct MergerStats {
    uint64_t fetches = 0;           // segments fetched
    uint64_t chunks = 0;            // fetch round trips
    uint64_t bytes_fetched = 0;
    uint64_t connections_opened = 0;
    uint64_t node_switches = 0;     // scheduler moved to a different node
    uint64_t fetch_errors = 0;      // fetches that exhausted all attempts
    uint64_t fetch_retries = 0;     // transient failures that were retried
    uint64_t deadline_expiries = 0; // fetches that blew their time budget
    uint64_t chunks_corrupt = 0;    // chunks rejected by CRC verification
    uint64_t chunks_compressed = 0; // chunks that arrived kChunkCompressed
    uint64_t failovers = 0;         // fetches rerouted to a replica
    uint64_t penalties = 0;         // penalty-box sentences handed out
    uint64_t pushbacks = 0;         // kErrorBusy replies honored
    uint64_t bytes_copied = 0;      // payload bytes memcpy'd into segments
  };
  MergerStats merger_stats() const;

  /// Health-tracker view of one remote node ("host:port"), for tests and
  /// operators; an expired sentence is applied on read.
  NodeState node_health(const std::string& node);

  /// Connection-cache counters (hits/misses/evictions/dial failures) from
  /// the underlying manager — the raw series merger_stats() used to derive
  /// connections_opened from, now exposed so tests can lock the
  /// no-double-count invariant.
  net::ConnectionManager::Stats connection_stats() const;

  /// The registry this merger publishes into (owned or shared).
  MetricsRegistry& metrics() const { return *metrics_; }
  /// Per-fetch lifecycle timeline (owned or shared).
  TraceRecorder& trace() const { return *trace_; }

  /// Remote nodes with queued (not yet claimed) fetch tasks. Drained
  /// nodes are removed, so an idle merger reports 0.
  size_t pending_node_count() const EXCLUDES(sched_mu_);

 private:
  /// A fully fetched segment plus how to interpret it. The buffer comes
  /// from segments_ once, at the first reply's segment_total, and becomes
  /// the merge stream's lease: the mapping goes back to the pool when the
  /// reducer drops the stream.
  struct FetchedSegment {
    std::shared_ptr<SegmentBuffer> buffer;
    bool compressed = false;
  };

  /// One FetchAndMerge call in flight.
  struct CallContext {
    Mutex mu;
    CondVar done_cv;
    size_t remaining GUARDED_BY(mu) = 0;
    Status error GUARDED_BY(mu);
    std::map<int, FetchedSegment> segments GUARDED_BY(mu);  // map_task -> segment
  };

  struct FetchTask {
    mr::MofLocation source;
    int partition = 0;
    uint64_t fetch_id = 0;  // TraceRecorder id for this fetch's timeline
    std::shared_ptr<CallContext> context;
    // Replica routing: alternate locations holding the same map output
    // (duplicate sources that disagreed on host). When `source` exhausts
    // its attempts or sits in the penalty box, the task is re-enqueued on
    // an alternate instead of failing the reduce.
    std::vector<mr::MofLocation> alternates;
    int reroutes = 0;  // failovers consumed (bounded by max_failovers)
    // One deadline budgets the whole fetch across retries AND failovers;
    // armed by the first ExecuteTask leg so queue wait doesn't count twice.
    bool deadline_armed = false;
    net::Deadline deadline;
  };

  static std::string NodeKey(const mr::MofLocation& loc) {
    return loc.host + ":" + std::to_string(loc.port);
  }

  void WorkerLoop() EXCLUDES(sched_mu_);
  /// Picks the next (node, task) respecting per-node exclusivity, the
  /// round-robin policy, and the penalty box: penalized nodes are skipped,
  /// their queued tasks rerouted to healthy replicas when possible, and
  /// when only penalized work remains the wait is bounded by the earliest
  /// sentence expiry. Blocks until work exists or shutdown.
  bool NextTask(std::string* node, FetchTask* task) EXCLUDES(sched_mu_);
  void ExecuteTask(const std::string& node, FetchTask task)
      EXCLUDES(sched_mu_);
  /// Re-enqueues `task` on its next replica after `source` failed with
  /// `why`. Returns false (leaving the task untouched) when no failover is
  /// possible — no alternates, reroute budget spent, fetch deadline blown,
  /// or the merger is stopping — in which case the caller must complete
  /// the task with `why`.
  bool TryFailover(FetchTask& task, const Status& why) EXCLUDES(sched_mu_);
  /// Moves `task` onto its alternate `alt` (swapping it with `source`),
  /// spends one reroute, and queues it on the new node.
  void Reroute(FetchTask& task, size_t alt) REQUIRES(sched_mu_);
  /// Runs the chunked fetch conversation; returns the segment. Each chunk
  /// round trip is bounded by the sooner of `deadline` and the per-chunk
  /// timeout.
  /// Sends the protocol-v2 capability hello on a freshly dialed
  /// connection (one-way; the server never replies). A send failure is a
  /// dial-grade fault — the socket is already sick — surfaced to the
  /// retry loop like a failed Connect.
  Status SendHello(net::Connection& conn, const net::Deadline& deadline);
  /// `busy_retry_after_ms` (may be null) receives the server's retry-after
  /// hint when the conversation ends in kErrorBusy pushback.
  StatusOr<FetchedSegment> FetchSegment(net::Connection& conn,
                                        const FetchTask& task,
                                        const net::Deadline& deadline,
                                        uint32_t* busy_retry_after_ms);
  void CompleteTask(const FetchTask& task, StatusOr<FetchedSegment> result);
  /// Capped, jittered exponential backoff for retry `attempt` (>= 1),
  /// clamped so the sleep never overruns the fetch deadline.
  int64_t NextBackoffMs(int attempt, const net::Deadline& fetch_deadline)
      EXCLUDES(rng_mu_);
  /// Sleep before honoring a kErrorBusy reply: the server's retry-after
  /// hint plus up to 50% jitter (so pushed-back mergers don't return in
  /// lockstep), capped by max_retry_backoff_ms and the fetch deadline.
  int64_t PushbackDelayMs(uint32_t hint_ms,
                          const net::Deadline& fetch_deadline)
      EXCLUDES(rng_mu_);
  /// Interruptible sleep: returns false when Stop() cut it short.
  bool SleepInterruptible(int64_t ms) EXCLUDES(sched_mu_);
  /// Labels shared by all of this merger's metrics.
  MetricLabels BaseLabels() const;
  /// Publishes `depth` for the node's queue-depth gauge. Touches only the
  /// registry, so it is callable with or without sched_mu_ held (the
  /// registry lock is a leaf, so nesting under sched_mu_ is safe).
  void SetQueueDepth(const std::string& node, size_t depth);
  /// Re-exports the connection-manager counters and the segment pool's
  /// mapped bytes as gauges (they're owned by the manager and the pool,
  /// not the registry). Called from the stats accessors and Stop(), so
  /// dumps taken after shutdown still carry final values.
  void RefreshGauges() const;

  Options options_;
  net::ConnectionManager connections_;
  // Receive storage: recycled segment mappings (DESIGN.md §13). Closed by
  // Stop(); streams still holding a buffer keep it alive until they drop.
  std::shared_ptr<SegmentPool> segments_ = std::make_shared<SegmentPool>();

  // Observability plumbing: pointers into metrics_ (never null; falls back
  // to the owned registry/recorder when options don't share one).
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<TraceRecorder> owned_trace_;
  TraceRecorder* trace_ = nullptr;
  MetricCounter* fetches_c_ = nullptr;
  MetricCounter* chunks_c_ = nullptr;
  MetricCounter* bytes_fetched_c_ = nullptr;
  MetricCounter* connections_opened_c_ = nullptr;
  MetricCounter* node_switches_c_ = nullptr;
  MetricCounter* fetch_errors_c_ = nullptr;
  MetricCounter* fetch_retries_c_ = nullptr;
  MetricCounter* deadline_expiries_c_ = nullptr;
  MetricCounter* chunks_corrupt_c_ = nullptr;
  MetricCounter* chunks_compressed_c_ = nullptr;
  MetricCounter* failovers_c_ = nullptr;
  MetricCounter* pushback_c_ = nullptr;
  MetricCounter* bytes_copied_c_ = nullptr;
  MetricHistogram* fetch_latency_ms_h_ = nullptr;
  MetricHistogram* fetch_attempts_h_ = nullptr;

  // Built in the constructor once metrics_ is wired (it publishes the
  // per-node health gauges into the same registry).
  std::unique_ptr<NodeHealthTracker> health_;

  mutable Mutex sched_mu_;
  CondVar work_cv_;
  std::map<std::string, std::deque<FetchTask>> node_queues_
      GUARDED_BY(sched_mu_);
  std::set<std::string> busy_nodes_ GUARDED_BY(sched_mu_);
  // Last node serviced (round-robin pointer).
  std::string rr_last_ GUARDED_BY(sched_mu_);
  bool stopping_ GUARDED_BY(sched_mu_) = false;
  std::atomic<bool> cancelled_{false};

  Mutex rng_mu_;
  Rng rng_ GUARDED_BY(rng_mu_);

  std::vector<std::thread> workers_;
};

}  // namespace jbs::shuffle
