#include "jbs/index_cache.h"

namespace jbs::shuffle {

StatusOr<mr::MofIndex> IndexCache::GetOrLoad(int map_task,
                                              const std::string& index_path) {
  {
    MutexLock lock(mu_);
    if (auto* cached = cache_.Get(map_task)) {
      ++stats_.hits;
      return *cached;
    }
    ++stats_.misses;
  }
  auto index = mr::MofIndex::Load(index_path);
  JBS_RETURN_IF_ERROR(index.status());
  MutexLock lock(mu_);
  cache_.Put(map_task, *index);
  return std::move(index).value();
}

IndexCache::Stats IndexCache::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

size_t IndexCache::size() const {
  MutexLock lock(mu_);
  return cache_.size();
}

}  // namespace jbs::shuffle
