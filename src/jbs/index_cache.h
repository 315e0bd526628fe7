// IndexCache (§III-B): caches parsed MOF index files so segment lookups
// don't re-read the index from disk for every fetch request.
#pragma once

#include "common/lru_cache.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "mapred/mof.h"

namespace jbs::shuffle {

class IndexCache {
 public:
  explicit IndexCache(size_t capacity = 1024) : cache_(capacity) {}

  /// Returns `map_task`'s index, loading `index_path` and caching it on a
  /// miss.
  StatusOr<mr::MofIndex> GetOrLoad(int map_task, const std::string& index_path)
      EXCLUDES(mu_);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  Stats stats() const EXCLUDES(mu_);
  size_t size() const EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  // map_task -> parsed index
  LruCache<int, mr::MofIndex> cache_ GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace jbs::shuffle
