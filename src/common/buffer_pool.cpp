#include "common/buffer_pool.h"

#include <sys/mman.h>

#include <cassert>
#include <chrono>
#include <new>

namespace jbs {

PooledBuffer::PooledBuffer(BufferPool* pool, uint8_t* data, size_t capacity)
    : pool_(pool), data_(data), capacity_(capacity) {}

PooledBuffer::~PooledBuffer() { Release(); }

PooledBuffer::PooledBuffer(PooledBuffer&& other) noexcept
    : pool_(other.pool_),
      data_(other.data_),
      capacity_(other.capacity_),
      size_(other.size_) {
  other.pool_ = nullptr;
  other.data_ = nullptr;
  other.capacity_ = 0;
  other.size_ = 0;
}

PooledBuffer& PooledBuffer::operator=(PooledBuffer&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    data_ = other.data_;
    capacity_ = other.capacity_;
    size_ = other.size_;
    other.pool_ = nullptr;
    other.data_ = nullptr;
    other.capacity_ = 0;
    other.size_ = 0;
  }
  return *this;
}

void PooledBuffer::Release() {
  if (pool_ != nullptr && data_ != nullptr) {
    pool_->Return(data_);
  }
  pool_ = nullptr;
  data_ = nullptr;
  capacity_ = 0;
  size_ = 0;
}

namespace {

/// The arena is its own anonymous mapping, never heap memory: malloc may
/// serve a block this size from the heap (glibc's mmap threshold rises
/// after a large free), and the whole heap block then counts as resident,
/// while a mapping's pages become resident only once touched. mallopt()
/// would fix the threshold for the whole host process, so it is not used.
uint8_t* MapArena(size_t bytes) {
  void* arena = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (arena == MAP_FAILED) throw std::bad_alloc();
  return static_cast<uint8_t*>(arena);
}

}  // namespace

BufferPool::BufferPool(size_t buffer_size, size_t count)
    : buffer_size_(buffer_size),
      count_(count),
      arena_(MapArena(buffer_size * count)) {
  assert(buffer_size > 0 && count > 0);
  free_list_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    free_list_.push_back(arena_ + i * buffer_size);
  }
}

BufferPool::~BufferPool() {
  // All buffers must be returned before the pool dies; PooledBuffer holds a
  // raw pointer into the arena. Taking the lock orders destruction after an
  // in-flight Return() whose notify (issued under mu_) has not finished —
  // e.g. a transport thread dropping the last lease while the owner polls
  // available().
  {
    MutexLock lock(mu_);
    assert(free_list_.size() == count_);
  }
  ::munmap(arena_, buffer_size_ * count_);
}

PooledBuffer BufferPool::Acquire() {
  MutexLock lock(mu_);
  ++stats_.acquires;
  if (free_list_.empty()) {
    if (cancelled_) return {};
    ++stats_.blocked_acquires;
    ++waiters_;
    const auto start = std::chrono::steady_clock::now();
    while (!cancelled_ && free_list_.empty()) available_cv_.Wait(lock);
    const auto waited = std::chrono::steady_clock::now() - start;
    stats_.total_wait_micros +=
        std::chrono::duration_cast<std::chrono::microseconds>(waited).count();
    --waiters_;
    if (free_list_.empty()) return {};
  }
  uint8_t* data = free_list_.back();
  free_list_.pop_back();
  return PooledBuffer(this, data, buffer_size_);
}

size_t BufferPool::waiters() const {
  MutexLock lock(mu_);
  return waiters_;
}

PooledBuffer BufferPool::TryAcquire() {
  MutexLock lock(mu_);
  ++stats_.acquires;
  if (free_list_.empty()) return {};
  uint8_t* data = free_list_.back();
  free_list_.pop_back();
  return PooledBuffer(this, data, buffer_size_);
}

size_t BufferPool::available() const {
  MutexLock lock(mu_);
  return free_list_.size();
}

BufferPool::Stats BufferPool::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void BufferPool::Cancel() {
  MutexLock lock(mu_);
  cancelled_ = true;
  available_cv_.NotifyAll();
}

void BufferPool::Return(uint8_t* data) {
  // Notify while holding mu_: once a buffer is visibly back, any thread
  // that acquires mu_ (available(), the destructor) may destroy the pool,
  // so the signal must not touch the cond var after our unlock.
  MutexLock lock(mu_);
  free_list_.push_back(data);
  available_cv_.NotifyOne();
}

std::shared_ptr<const void> MakeBufferLease(PooledBuffer&& buffer) {
  auto owned = std::make_shared<PooledBuffer>(std::move(buffer));
  return std::shared_ptr<const void>(owned, owned->data());
}

}  // namespace jbs
