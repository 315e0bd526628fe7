#include "jbs/segment_buffer.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>
#include <string>

namespace jbs::shuffle {

namespace {

std::atomic<uint64_t> g_live_mapped_bytes{0};
std::atomic<uint64_t> g_pooled_mapped_bytes{0};

}  // namespace

SegmentBuffer::~SegmentBuffer() {
  if (base_ != nullptr) pool_->Release(base_, mapped_);
}

Status SegmentBuffer::Append(std::span<const uint8_t> data) {
  const uint64_t size = size_.load(std::memory_order_relaxed);
  if (data.size() > capacity_ - size) {
    return Internal("segment append of " + std::to_string(data.size()) +
                    " bytes overruns its " + std::to_string(capacity_) +
                    "-byte capacity at " + std::to_string(size));
  }
  if (!data.empty()) std::memcpy(base_ + size, data.data(), data.size());
  size_.store(size + data.size(), std::memory_order_release);
  return Status::Ok();
}

Status SegmentBuffer::Commit(uint64_t n) {
  const uint64_t size = size_.load(std::memory_order_relaxed);
  if (n > capacity_ - size) {
    return Internal("segment commit of " + std::to_string(n) +
                    " bytes overruns its " + std::to_string(capacity_) +
                    "-byte capacity at " + std::to_string(size));
  }
  size_.store(size + n, std::memory_order_release);
  return Status::Ok();
}

SegmentPool::~SegmentPool() { Close(); }

StatusOr<std::unique_ptr<SegmentBuffer>> SegmentPool::Acquire(
    uint64_t capacity) {
  if (capacity == 0) {
    return std::unique_ptr<SegmentBuffer>(
        new SegmentBuffer(nullptr, 0, 0, nullptr));
  }
  const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  if (capacity > std::numeric_limits<size_t>::max() - page) {
    return ResourceExhausted("segment of " + std::to_string(capacity) +
                             " bytes cannot be mapped");
  }
  uint64_t mapped = (capacity + page - 1) / page * page;
  void* base = nullptr;
  {
    MutexLock lock(mu_);
    // Best fit with bounded slack: a small segment must not pin a mapping
    // sized for a much larger one.
    const auto it = idle_.lower_bound(mapped);
    if (it != idle_.end() && it->first - mapped <= mapped) {
      mapped = it->first;
      base = it->second;
      idle_.erase(it);
      pooled_.fetch_sub(mapped, std::memory_order_relaxed);
      g_pooled_mapped_bytes.fetch_sub(mapped, std::memory_order_relaxed);
    }
  }
  if (base == nullptr) {
    base = ::mmap(nullptr, static_cast<size_t>(mapped),
                  PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) {
      return ResourceExhausted("mmap of a " + std::to_string(capacity) +
                               "-byte segment failed: " +
                               std::strerror(errno));
    }
  }
  live_.fetch_add(mapped, std::memory_order_relaxed);
  g_live_mapped_bytes.fetch_add(mapped, std::memory_order_relaxed);
  return std::unique_ptr<SegmentBuffer>(new SegmentBuffer(
      static_cast<uint8_t*>(base), capacity, mapped, shared_from_this()));
}

void SegmentPool::Release(uint8_t* base, uint64_t mapped) {
  live_.fetch_sub(mapped, std::memory_order_relaxed);
  {
    MutexLock lock(mu_);
    if (!closed_ && pooled_bytes() + mapped <= budget_) {
      idle_.emplace(mapped, base);
      pooled_.fetch_add(mapped, std::memory_order_relaxed);
      g_live_mapped_bytes.fetch_sub(mapped, std::memory_order_relaxed);
      g_pooled_mapped_bytes.fetch_add(mapped, std::memory_order_relaxed);
      return;
    }
  }
  ::munmap(base, static_cast<size_t>(mapped));
  g_live_mapped_bytes.fetch_sub(mapped, std::memory_order_relaxed);
}

void SegmentPool::Close() {
  std::multimap<uint64_t, uint8_t*> idle;
  {
    MutexLock lock(mu_);
    closed_ = true;
    idle.swap(idle_);
    pooled_.store(0, std::memory_order_relaxed);
  }
  for (const auto& [mapped, base] : idle) {
    ::munmap(base, static_cast<size_t>(mapped));
    g_pooled_mapped_bytes.fetch_sub(mapped, std::memory_order_relaxed);
  }
}

uint64_t LiveSegmentMappedBytes() {
  return g_live_mapped_bytes.load(std::memory_order_relaxed);
}

uint64_t PooledSegmentMappedBytes() {
  return g_pooled_mapped_bytes.load(std::memory_order_relaxed);
}

}  // namespace jbs::shuffle
