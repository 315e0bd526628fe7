// Connection reuse with an LRU cap (§IV-A): "Since the cost of setting up
// RDMA connection is relatively high, we keep newly created connections
// for reuse by default. We allow a maximum of 512 active connections. When
// this threshold is reached, connections are torn down based on the LRU
// order." Shared by the TCP path (§IV-B uses the same 512 threshold).
//
// Every NetMerger conversation runs on a managed connection. One leaves
// the cache by LRU eviction, by Invalidate() (a failed fetch, a health
// penalty, or every fetch under the consolidate=false ablation), or by
// Shutdown(); each closes it, which wakes any thread blocked on it.
#pragma once

#include <memory>
#include <string>

#include "common/lru_cache.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "transport/transport.h"

namespace jbs::net {

class ConnectionManager {
 public:
  static constexpr size_t kDefaultCapacity = 512;

  ConnectionManager(Transport* transport, size_t capacity = kDefaultCapacity);

  /// Returns a cached live connection to host:port, or dials a new one
  /// (bounded by `deadline`). The first fetch request to a node triggers
  /// connection establishment; later requests reuse it. After Shutdown()
  /// every call fails fast with kUnavailable.
  ///
  /// `dialed`, when non-null, is set to true iff this call opened a fresh
  /// connection (a successful dial — even one that then lost a caching
  /// race to a concurrent dial). This is the single authority callers use
  /// to count connections opened.
  StatusOr<std::shared_ptr<Connection>> GetOrConnect(
      const std::string& host, uint16_t port,
      const Deadline& deadline = Deadline(), bool* dialed = nullptr)
      EXCLUDES(mu_);

  /// Closes and drops a connection (e.g. after an I/O error) so the next
  /// request re-establishes it. Safe to race in-flight I/O: Close() wakes
  /// blocked Send/Receive, and the serving peer fails the connection and
  /// releases queued frame leases exactly once.
  void Invalidate(const std::string& host, uint16_t port) EXCLUDES(mu_);

  /// Closes everything and fails all future GetOrConnect calls — the
  /// cancellation half of NetMerger::Stop(). Closing wakes any thread
  /// blocked in Send/Receive on a cached connection.
  void Shutdown() EXCLUDES(mu_);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t dial_failures = 0;
  };
  Stats stats() const EXCLUDES(mu_);
  size_t active_connections() const EXCLUDES(mu_);
  size_t capacity() const { return capacity_; }

 private:
  static std::string Key(const std::string& host, uint16_t port) {
    return host + ":" + std::to_string(port);
  }

  Transport* transport_;
  size_t capacity_;
  mutable Mutex mu_;
  bool shutdown_ GUARDED_BY(mu_) = false;
  LruCache<std::string, std::shared_ptr<Connection>> cache_ GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace jbs::net
