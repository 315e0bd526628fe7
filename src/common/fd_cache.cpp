#include "common/fd_cache.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>

#include "common/failpoints.h"

namespace jbs {
namespace {

/// EMFILE/ENFILE open retries before giving up. Each retry first evicts the
/// least-recently-used cache entry; a descriptor is only truly freed when no
/// outstanding Handle pins it, so the bound keeps a fully-pinned cache (or a
/// table exhausted by something other than us) from looping forever.
constexpr int kMaxEmergencyEvictions = 8;

}  // namespace

FdCache::OpenFile::~OpenFile() {
  if (fd >= 0) ::close(fd);
}

FdCache::FdCache(size_t capacity) : cache_(capacity) {}

StatusOr<FdCache::Handle> FdCache::Open(const std::string& path) {
  {
    MutexLock lock(mu_);
    if (auto* cached = cache_.Get(path)) {
      ++stats_.hits;
      return Handle(*cached);
    }
  }
  // open(2) walks the path and may hit disk; doing it outside mu_ keeps a
  // slow open from stalling every concurrent prefetch-thread cache hit.
  // EMFILE/ENFILE get the emergency-eviction treatment: drop our own LRU
  // descriptor and retry, bounded (DESIGN.md §16).
  int fd = -1;
  int open_errno = 0;
  for (int attempt = 0; attempt <= kMaxEmergencyEvictions; ++attempt) {
    if (const auto fp = failpoints::Hit("fdcache.open")) {
      errno = fp.err;
    } else {
      do {
        fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
      } while (fd < 0 && errno == EINTR);
    }
    if (fd >= 0) break;
    open_errno = errno;
    if (open_errno != EMFILE && open_errno != ENFILE) break;
    MutexLock lock(mu_);
    const auto victim = cache_.OldestKey();
    if (!victim.has_value() || !cache_.Erase(*victim)) break;
    ++stats_.emergency_evictions;
  }
  MutexLock lock(mu_);
  if (fd < 0) {
    ++stats_.open_failures;
    if (open_errno == ENOENT) {
      return NotFound("open " + path + ": no such file");
    }
    if (open_errno == EMFILE || open_errno == ENFILE) {
      return ResourceExhausted("open " + path +
                               ": fd table full after emergency eviction");
    }
    return IoError("open " + path);
  }
  if (auto* cached = cache_.Get(path)) {
    // Raced with another opener for the same path; serve the cached entry
    // and let our descriptor close when `file` drops below.
    auto file = std::make_shared<const OpenFile>(fd);
    ++stats_.hits;
    return Handle(*cached);
  }
  ++stats_.misses;
  auto file = std::make_shared<const OpenFile>(fd);
  cache_.Put(path, file);
  return Handle(std::move(file));
}

bool FdCache::Invalidate(const std::string& path) {
  MutexLock lock(mu_);
  return cache_.Erase(path);
}

void FdCache::Clear() {
  MutexLock lock(mu_);
  cache_.Clear();
}

FdCache::Stats FdCache::stats() const {
  MutexLock lock(mu_);
  Stats out = stats_;
  out.evictions = cache_.eviction_count();
  return out;
}

size_t FdCache::size() const {
  MutexLock lock(mu_);
  return cache_.size();
}

}  // namespace jbs
