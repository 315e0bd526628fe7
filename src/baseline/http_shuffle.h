// The stock Hadoop shuffle, reimplemented faithfully enough to be the
// paper's baseline (§II-B):
//
//   - HttpShuffleServer: an HttpServer embedded in each TaskTracker that
//     spawns HttpServlets to answer fetch requests. Each servlet finds the
//     MOF + index, reads the segment from disk, then transmits it — read
//     and Xmit fully SERIALIZED per request (Fig. 4), no cross-request
//     batching, no prefetch.
//   - MofCopierClient: each ReduceTask runs several MOFCopier threads that
//     each open their own HTTP connection per fetch; fetched segments
//     above the in-memory budget spill to local disk and are read back at
//     merge time.
//
// The JVM's stream costs are imposed via Throttle (see throttle.h); pass
// JvmPenalty::None() to measure the same architecture without them.
#pragma once

#include <atomic>
#include <deque>
#include <filesystem>
#include <thread>

#include "baseline/throttle.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "mapred/shuffle.h"
#include "transport/socket_util.h"

namespace jbs::baseline {

/// Stream-rate caps emulating the JVM (calibrated from the paper's Fig. 2).
struct JvmPenalty {
  double disk_stream_bytes_per_sec = 0;  // <=0 = unlimited
  double net_stream_bytes_per_sec = 0;

  static JvmPenalty None() { return {}; }
  /// Paper calibration scaled by `scale` (1.0 = the full Fig. 2 ratios —
  /// far too slow for unit tests; benches pass measured scales).
  static JvmPenalty Calibrated(double scale) {
    JvmPenalty penalty;
    penalty.disk_stream_bytes_per_sec = 35e6 * scale;
    penalty.net_stream_bytes_per_sec = 360e6 * scale;
    return penalty;
  }
};

class HttpShuffleServer final : public mr::ShuffleServer {
 public:
  struct Options {
    int servlets = 4;  // concurrent HttpServlet threads
    JvmPenalty penalty;
    // Observability: shared registry (e.g. the plugin's) or nullptr for a
    // private one. Publishes the same shuffle_* series as MofSupplier
    // (server="httpservlet"), so JBS-vs-baseline reads one exposition.
    MetricsRegistry* metrics = nullptr;
    std::string instance{};
  };

  explicit HttpShuffleServer(Options options);
  ~HttpShuffleServer() override;

  Status Start() override;
  uint16_t port() const override;
  Status PublishMof(const mr::MofHandle& handle) override;
  void Stop() override EXCLUDES(mu_);
  Stats stats() const override;

  /// The registry this server publishes into (owned or shared).
  MetricsRegistry& metrics() const { return *metrics_; }

 private:
  void AcceptLoop() EXCLUDES(mu_);
  void ServletLoop() EXCLUDES(mu_);
  /// Handles one connection (possibly many keep-alive requests).
  void HandleConnection(net::Fd conn) EXCLUDES(mu_);
  MetricLabels BaseLabels() const;

  Options options_;
  net::Fd listen_fd_;
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::vector<std::thread> servlets_;
  std::atomic<bool> running_{false};

  Mutex mu_;
  CondVar conn_cv_;
  std::deque<net::Fd> pending_conns_ GUARDED_BY(mu_);

  mr::MofRegistry published_;
  Throttle disk_throttle_;
  Throttle net_throttle_;

  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  MetricCounter* requests_c_ = nullptr;
  MetricCounter* bytes_served_c_ = nullptr;
  MetricCounter* errors_c_ = nullptr;
  MetricHistogram* request_latency_ms_h_ = nullptr;
};

class MofCopierClient final : public mr::ShuffleClient {
 public:
  struct Options {
    int copier_threads = 5;  // mapred.reduce.parallel.copies default
    JvmPenalty penalty;
    size_t in_memory_budget = 64 << 20;  // beyond this, spill to disk
    std::filesystem::path spill_dir;     // required if spilling possible
    int max_fetch_attempts = 3;          // Hadoop fetch retries
    int retry_backoff_ms = 20;           // doubled per attempt, jittered
    int max_retry_backoff_ms = 2000;     // backoff ceiling (0 = uncapped)
    uint64_t backoff_jitter_seed = 0x6D6F66636F707972ull;  // deterministic
    // Observability: shared registry (e.g. the plugin's) or nullptr for a
    // private one. Publishes the same shuffle_* series as NetMerger
    // (client="mofcopier"), so JBS-vs-baseline reads one exposition.
    MetricsRegistry* metrics = nullptr;
    std::string instance{};
  };

  explicit MofCopierClient(Options options);
  ~MofCopierClient() override;

  StatusOr<std::unique_ptr<mr::RecordStream>> FetchAndMerge(
      int partition, const std::vector<mr::MofLocation>& sources) override;

  void Stop() override {}
  Stats stats() const override;

  uint64_t spills() const { return spills_c_->value(); }

  /// The registry this client publishes into (owned or shared).
  MetricsRegistry& metrics() const { return *metrics_; }

 private:
  struct FetchedBody {
    std::vector<uint8_t> bytes;
    bool compressed = false;
  };
  StatusOr<FetchedBody> FetchOne(const mr::MofLocation& source,
                                 int partition);
  MetricLabels BaseLabels() const;

  Options options_;
  Throttle net_throttle_;
  std::atomic<uint64_t> spill_seq_{0};

  // Backoff jitter source, shared by all copier threads.
  Mutex rng_mu_;
  Rng rng_ GUARDED_BY(rng_mu_);

  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  MetricCounter* fetches_c_ = nullptr;
  MetricCounter* bytes_fetched_c_ = nullptr;
  MetricCounter* connections_opened_c_ = nullptr;
  MetricCounter* fetch_errors_c_ = nullptr;
  MetricCounter* spills_c_ = nullptr;
  MetricHistogram* fetch_latency_ms_h_ = nullptr;
};

}  // namespace jbs::baseline
