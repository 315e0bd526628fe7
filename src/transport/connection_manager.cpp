#include "transport/connection_manager.h"

namespace jbs::net {

ConnectionManager::ConnectionManager(Transport* transport, size_t capacity)
    : transport_(transport),
      capacity_(capacity),
      cache_(capacity,
             [this](const std::string&, std::shared_ptr<Connection>& conn)
                 // The eviction callback only ever runs from cache_ member
                 // calls, which all happen under mu_; the analysis cannot
                 // see through the std::function indirection.
                 NO_THREAD_SAFETY_ANALYSIS {
                   // Evicted under mu_; shared_ptr keeps in-flight users
                   // alive, but the connection is closed so they fail fast
                   // and re-dial.
                   conn->Close();
                   ++stats_.evictions;
                 }) {}

StatusOr<std::shared_ptr<Connection>> ConnectionManager::GetOrConnect(
    const std::string& host, uint16_t port, const Deadline& deadline,
    bool* dialed) {
  if (dialed != nullptr) *dialed = false;
  const std::string key = Key(host, port);
  {
    MutexLock lock(mu_);
    if (shutdown_) return Unavailable("connection manager shut down");
    if (auto* cached = cache_.Get(key)) {
      if ((*cached)->alive()) {
        ++stats_.hits;
        return *cached;
      }
      (*cached)->Close();
      cache_.Erase(key);
    }
    ++stats_.misses;
  }
  // Dial outside the lock: connection setup can be slow (especially RDMA)
  // and must not serialize all other lookups.
  auto conn = transport_->Connect(host, port, deadline);
  if (!conn.ok()) {
    MutexLock lock(mu_);
    ++stats_.dial_failures;
    return conn.status();
  }
  if (dialed != nullptr) *dialed = true;
  std::shared_ptr<Connection> shared = std::move(conn).value();
  MutexLock lock(mu_);
  if (shutdown_) {
    // Stop() raced our dial; the fresh connection must not outlive it.
    shared->Close();
    return Unavailable("connection manager shut down");
  }
  // A racing dial may have beaten us; prefer the existing live one.
  if (auto* cached = cache_.Get(key)) {
    if ((*cached)->alive()) {
      shared->Close();
      return *cached;
    }
  }
  cache_.Put(key, shared);
  return shared;
}

void ConnectionManager::Invalidate(const std::string& host, uint16_t port) {
  MutexLock lock(mu_);
  const std::string key = Key(host, port);
  if (auto* cached = cache_.Get(key)) {
    (*cached)->Close();
    cache_.Erase(key);
  }
}

void ConnectionManager::Shutdown() {
  MutexLock lock(mu_);
  shutdown_ = true;
  cache_.Clear();
}

ConnectionManager::Stats ConnectionManager::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

size_t ConnectionManager::active_connections() const {
  MutexLock lock(mu_);
  return cache_.size();
}

}  // namespace jbs::net
