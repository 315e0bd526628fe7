// NetMerger (§III-C): the native client half of JBS. One per node, shared
// by every ReduceTask on that node, replacing their MOFCopier thread pools.
// Fetch requests from all reducers are consolidated into one queue per
// remote node (so live connections scale with nodes, not copiers), ordered
// by arrival within a node, and injected round-robin across nodes to keep
// any one ReduceTask's burst from monopolizing the network.
//
// The merge is network-levitated: FetchAndMerge returns once the first
// chunk of every segment has landed, and the merge reads each segment in
// place while the rest of it is still arriving (DESIGN.md §9). While
// other nodes wait under round robin, injection is chunk-granular: a
// claim (a step) takes up to `fetch_window` of a node's segments, sends
// them at most `fetch_window` requests (a segment without its first
// chunk gets its 16 KiB head only) and puts the unfinished ones back at
// the tail of the node's queue; a call's later chunks wait until every
// one of its heads has landed. A data thread that claims a node
// while no other node waits takes that node's whole queue into one
// conversation on the node's one connection, so all of a partition's
// segments advance together: at most `fetch_window` requests in flight
// across them, the next one for the segment with the fewest bytes
// requested, every reply matched to its segment by (map_task, partition,
// offset). Segments stay in memory, in recycled mappings: no reduce-side
// spill.
//
// Every wire operation is deadline-bounded: a fetch gets one time budget
// covering all retry attempts, each dial and each chunk round trip may be
// bounded tighter, and Stop() cancels everything in flight — queued and
// executing fetches end with kUnavailable, so no FetchAndMerge caller and
// no reader of its stream is left blocked on a silent peer. A retried or
// failed-over fetch resumes at the segment's committed offset.
#pragma once

#include <atomic>
#include <chrono>
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
#include "jbs/protocol.h"
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

  /// Returns once the first chunk of every segment has landed (or a fetch
  /// has failed). The stream reads each segment while it arrives; a fetch
  /// failure after the first chunks ends the stream with that failure.
  StatusOr<std::unique_ptr<mr::RecordStream>> FetchAndMerge(
      int partition, const std::vector<mr::MofLocation>& sources) override
      EXCLUDES(sched_mu_);

  /// Cancels all fetch work and joins the data threads. Queued and
  /// in-flight fetches fail with kUnavailable, so every FetchAndMerge
  /// caller — including ones blocked on a silent peer — returns promptly,
  /// and a stream waiting for bytes that will not come ends with that
  /// status.
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
  /// One segment's fetch as its reader sees it (completion, wake-ups),
  /// and the merge input that reads it. Defined in net_merger.cpp.
  class SegmentFetch;
  class ArrivingFetch;

  /// One FetchAndMerge call in flight.
  struct CallContext {
    Mutex mu;
    CondVar cv;
    size_t unlanded GUARDED_BY(mu) = 0;     // segments without a first chunk
    size_t outstanding GUARDED_BY(mu) = 0;  // segments whose fetch has not ended
    Status error GUARDED_BY(mu);            // the first fetch failure
    // Every segment's first chunk has landed. Set under sched_mu_, so a
    // data thread that found the call's later chunks unclaimable and went
    // to sleep is woken.
    std::atomic<bool> heads_landed{false};
  };

  /// One segment's fetch between its node queues and the data threads: the
  /// routing and the per-segment ledgers. Only the thread holding it
  /// touches it.
  struct FetchTask {
    mr::MofLocation source;
    int partition = 0;
    uint64_t fetch_id = 0;  // TraceRecorder id for this fetch's timeline
    std::shared_ptr<CallContext> context;
    std::shared_ptr<SegmentFetch> fetch;
    // The writer's reference to the segment, from the first reply on; a
    // retry or failover resumes filling it at its committed size.
    std::shared_ptr<SegmentBuffer> buffer;
    bool compressed = false;  // kSegmentCompressed, fixed by the first reply
    bool landed = false;      // first chunk committed and handed out
    // Replica routing: alternate locations holding the same map output
    // (duplicate sources that disagreed on host). When `source` exhausts
    // its attempts or sits in the penalty box, the task is re-enqueued on
    // an alternate instead of failing the reduce.
    std::vector<mr::MofLocation> alternates;
    int reroutes = 0;   // failovers consumed (bounded by max_failovers)
    int attempts = 0;   // transient failures on the current node
    int pushbacks = 0;  // kErrorBusy replies honored on the current node
    // One deadline budgets the whole fetch across retries AND failovers;
    // armed when first claimed so queue wait doesn't count twice.
    bool deadline_armed = false;
    net::Deadline deadline;
    std::chrono::steady_clock::time_point started{};  // this node's leg
  };

  /// A FetchTask inside one conversation, with this round's request
  /// pipeline. A round is one connection's worth of the conversation.
  struct Slot;

  static std::string NodeKey(const mr::MofLocation& loc) {
    return loc.host + ":" + std::to_string(loc.port);
  }

  void WorkerLoop() EXCLUDES(sched_mu_);
  /// Claims the next node and its tasks respecting per-node exclusivity,
  /// the round-robin policy, and the penalty box: penalized nodes are
  /// skipped, their queued tasks rerouted to healthy replicas when
  /// possible, and when only penalized work remains the wait is bounded by
  /// the earliest sentence expiry. When consolidating, the claim is the
  /// node's whole queue if no other node waits (see TakeQueued); else,
  /// under round robin, a step (`*step`): up to fetch_window tasks and
  /// fetch_window requests. Otherwise it is one task, fetched to its end.
  /// Blocks until work exists or shutdown.
  bool NextTasks(std::string* node, std::vector<FetchTask>* tasks,
                 bool* step) EXCLUDES(sched_mu_);
  /// True if a claim may take `task` now. Round robin serves heads first:
  /// a segment's later chunks wait until every segment of its call has
  /// landed. FIFO drains node by node.
  bool Claimable(const FetchTask& task) const;
  /// True if the queue holds a task a claim may take now.
  bool AnyClaimable(const std::deque<FetchTask>& queue) const;
  /// True when a node other than `node` has claimable work no data thread
  /// holds and no sentence blocks.
  bool OtherNodeWaiting(const std::string& node) REQUIRES(sched_mu_);
  /// Moves `node`'s claimable queued tasks into `tasks`, except ones
  /// naming a (map_task, partition) already among `held` or taken; `limit`
  /// caps how many move. Arms each task's fetch deadline on its first
  /// claim.
  void TakeQueued(const std::string& node, const std::vector<Slot>& held,
                  size_t limit, std::vector<FetchTask>* tasks)
      REQUIRES(sched_mu_);
  /// Adds the node's newly queued tasks to a consolidated conversation
  /// while no other node waits.
  void JoinQueued(const std::string& node, std::vector<Slot>* slots)
      EXCLUDES(sched_mu_);
  /// Runs one node's conversation: rounds on the node's connection, each
  /// followed by the per-segment retry, pushback, failover and deadline
  /// decisions, until every segment has ended or moved to another node.
  /// A `step` runs one round and then requeues what is left.
  void Converse(const std::string& node, std::vector<FetchTask> tasks,
                bool step) EXCLUDES(sched_mu_);
  /// Puts a step's unfinished segments back at the tail of the node's
  /// queue; ends those whose stream is gone, and all of them if the
  /// merger is stopping.
  void Requeue(const std::string& node, std::vector<Slot>* slots)
      EXCLUDES(sched_mu_);
  /// One round on `conn`: requests and replies for every active slot until
  /// none has a request left to send or a reply left to receive; a
  /// `step` sends fetch_window requests in all, and a segment without its
  /// first chunk only its head. Returns the transport failure that cut it
  /// short, if any; failures a reply names end up in their slot.
  Status RunRound(net::Connection& conn, const std::string& node,
                  std::vector<Slot>& slots, bool step) EXCLUDES(sched_mu_);
  /// Verifies a data reply for `slot` and commits it into the segment.
  Status AcceptChunk(Slot& slot, const FetchDataHeader& header,
                     std::span<const uint8_t> data, bool placed)
      EXCLUDES(sched_mu_);
  /// Re-enqueues `task` on its next replica after `source` failed with
  /// `why`. Returns false (leaving the task untouched) when no failover is
  /// possible — no alternates, reroute budget spent, fetch deadline blown,
  /// or the merger is stopping — in which case the caller must end the
  /// task with `why`.
  bool TryFailover(FetchTask& task, const Status& why) EXCLUDES(sched_mu_);
  /// Moves `task` onto its alternate `alt` (swapping it with `source`),
  /// spends one reroute, and queues it on the new node.
  void Reroute(FetchTask& task, size_t alt) REQUIRES(sched_mu_);
  /// Sends the protocol-v2 capability hello on a freshly dialed
  /// connection (one-way; the server never replies). A send failure is a
  /// dial-grade fault — the socket is already sick — surfaced to the
  /// retry loop like a failed Connect.
  Status SendHello(net::Connection& conn, const net::Deadline& deadline);
  /// Records the last leg's latency and attempts, then ends the task.
  void FinishTask(FetchTask& task, const Status& status);
  /// Ends the task's fetch with `status`: drops the writer's reference to
  /// the segment, wakes its reader and tells the FetchAndMerge call.
  void EndTask(FetchTask& task, const Status& status);
  /// Builds the merge input for one landed segment. A MOF-compressed
  /// segment, or a raw one that begins like a codec stream, waits for its
  /// whole segment (OpenSegment reads those whole); any other streams.
  StatusOr<std::unique_ptr<mr::RecordStream>> OpenLanded(
      const std::shared_ptr<SegmentFetch>& fetch);
  /// FetchAndMerge's failure path: stops the call's fetches, ends its
  /// queued tasks and waits until no data thread holds one.
  void AbandonCall(const std::shared_ptr<CallContext>& context,
                   const std::vector<std::shared_ptr<SegmentFetch>>& fetches)
      EXCLUDES(sched_mu_);
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
  MetricCounter* merge_waits_c_ = nullptr;
  MetricCounter* merge_wait_us_c_ = nullptr;
  MetricHistogram* fetch_latency_ms_h_ = nullptr;
  MetricHistogram* fetch_attempts_h_ = nullptr;

  // Built in the constructor once metrics_ is wired (it publishes the
  // per-node health gauges into the same registry).
  std::unique_ptr<NodeHealthTracker> health_;

  mutable Mutex sched_mu_;
  CondVar work_cv_;
  std::map<std::string, std::deque<FetchTask>> node_queues_
      GUARDED_BY(sched_mu_);
  // Nodes a data thread holds a conversation with: one per connection.
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
