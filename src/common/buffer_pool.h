// Fixed-size buffer pool modelling JBS "registered" transport buffers.
// The paper (Fig. 11) shows the tension this type embodies: larger buffers
// amortize per-request overhead but reduce the number of buffers available
// to data threads, increasing contention. The pool has a fixed total byte
// budget; Acquire() blocks when all buffers are checked out, and the time
// spent blocked is surfaced via contention statistics.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace jbs {

class BufferPool;

/// One checked-out buffer. Returns itself to the pool on destruction.
class PooledBuffer {
 public:
  PooledBuffer() = default;
  PooledBuffer(BufferPool* pool, uint8_t* data, size_t capacity);
  ~PooledBuffer();

  PooledBuffer(PooledBuffer&& other) noexcept;
  PooledBuffer& operator=(PooledBuffer&& other) noexcept;
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;

  bool valid() const { return data_ != nullptr; }
  uint8_t* data() const { return data_; }
  size_t capacity() const { return capacity_; }

  /// Bytes of payload currently in the buffer (set by the filler).
  size_t size() const { return size_; }
  void set_size(size_t size) { size_ = size; }

  void Release();

 private:
  BufferPool* pool_ = nullptr;
  uint8_t* data_ = nullptr;
  size_t capacity_ = 0;
  size_t size_ = 0;
};

/// Wraps `buffer` in a refcounted lease for Frame ownership handoff
/// (DESIGN.md §13): the returned pointer keeps the buffer checked out of
/// its pool; when the last copy drops — last byte on the socket, or the
/// frame died queued — the buffer returns to the pool exactly once.
std::shared_ptr<const void> MakeBufferLease(PooledBuffer&& buffer);

class BufferPool {
 public:
  /// Creates `count` buffers of `buffer_size` bytes each in one anonymous
  /// mapping: a buffer's pages become resident when first written. Throws
  /// std::bad_alloc if the mapping fails.
  BufferPool(size_t buffer_size, size_t count);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Blocks until a buffer is available. Returns an invalid buffer if the
  /// pool was cancelled while (or before) waiting.
  JBS_BLOCKING PooledBuffer Acquire() EXCLUDES(mu_);

  /// Returns an invalid buffer instead of blocking when the pool is dry.
  PooledBuffer TryAcquire() EXCLUDES(mu_);

  /// Threads currently blocked inside Acquire() — the
  /// `buffer_pool_waiters` gauge, an instantaneous saturation signal.
  size_t waiters() const EXCLUDES(mu_);

  /// Wakes every blocked Acquire() and makes it (and all future dry
  /// acquires) return an invalid buffer — shutdown support for pipeline
  /// stages parked on an exhausted pool. Buffers already checked out are
  /// unaffected and must still be returned.
  void Cancel() EXCLUDES(mu_);

  size_t buffer_size() const { return buffer_size_; }
  size_t capacity() const { return count_; }
  size_t available() const EXCLUDES(mu_);

  struct Stats {
    uint64_t acquires = 0;
    uint64_t blocked_acquires = 0;  // acquires that had to wait
    uint64_t total_wait_micros = 0;
  };
  Stats stats() const EXCLUDES(mu_);

 private:
  friend class PooledBuffer;
  void Return(uint8_t* data) EXCLUDES(mu_);

  const size_t buffer_size_;
  const size_t count_;
  uint8_t* const arena_;  // anonymous mapping of buffer_size_ * count_

  mutable Mutex mu_;
  CondVar available_cv_;
  std::vector<uint8_t*> free_list_ GUARDED_BY(mu_);
  bool cancelled_ GUARDED_BY(mu_) = false;
  size_t waiters_ GUARDED_BY(mu_) = 0;
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace jbs
