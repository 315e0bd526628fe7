// Page-backed storage for one fetched segment. NetMerger sizes it once,
// from the first reply's segment_total, fills it chunk by chunk in order,
// and hands the merge a leased view of the bytes in place. The merge may
// read while the segment fills: the committed size is the publication
// point. Append and Commit store it with release order after the bytes are
// written, and size()/bytes() load it with acquire order, so a reader on
// another thread sees every byte of the prefix it is shown. The bytes live
// in an anonymous mapping of their own, never in the malloc heap, where
// freed blocks of segment size would stay in the arenas and keep the
// reducer's RSS up. NetMerger takes its mappings from a SegmentPool:
// dropping the last lease parks the mapping there for the next fetch, up
// to a fixed byte budget, so a warm reducer stops faulting and zeroing
// fresh pages on every shuffle. Past the budget, or once the pool is
// closed, the pages go back to the kernel at once.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace jbs::shuffle {

class SegmentPool;

/// Made by SegmentPool::Acquire. One thread writes (Append, spare,
/// Commit); any thread may read size() and bytes() meanwhile.
class SegmentBuffer {
 public:
  /// Hands the mapping back to the pool it came from.
  ~SegmentBuffer();
  SegmentBuffer(const SegmentBuffer&) = delete;
  SegmentBuffer& operator=(const SegmentBuffer&) = delete;

  /// Appends `data` after the bytes already held. Internal, with nothing
  /// written, when it would run past the capacity.
  Status Append(std::span<const uint8_t> data);

  /// The writable room after size(), up to capacity(): where the next
  /// chunk can be received in place. Bytes written here stay out of
  /// bytes() until Commit; a pooled mapping's spare bytes hold whatever
  /// an earlier segment left there.
  std::span<uint8_t> spare() {
    const uint64_t size = size_.load(std::memory_order_relaxed);
    return {base_ + size, capacity_ - size};
  }
  /// Makes the next `n` spare bytes part of bytes(). Internal, with size()
  /// unchanged, when it would run past the capacity.
  Status Commit(uint64_t n);

  /// The committed prefix; it only grows.
  std::span<const uint8_t> bytes() const { return {base_, size()}; }
  uint64_t size() const { return size_.load(std::memory_order_acquire); }
  uint64_t capacity() const { return capacity_; }

 private:
  friend class SegmentPool;
  SegmentBuffer(uint8_t* base, uint64_t capacity, uint64_t mapped,
                std::shared_ptr<SegmentPool> pool)
      : base_(base), capacity_(capacity), mapped_(mapped),
        pool_(std::move(pool)) {}

  uint8_t* base_;
  uint64_t capacity_;
  uint64_t mapped_;  // whole pages behind base_
  std::atomic<uint64_t> size_{0};  // written by the one writer only
  std::shared_ptr<SegmentPool> pool_;  // null when nothing is mapped
};

/// Idle mappings a SegmentPool keeps for reuse, at most. A bulk_1sup
/// shuffle holds 32 MiB of segments, so a warm pool serves it whole.
inline constexpr uint64_t kSegmentPoolBudgetBytes = uint64_t{64} << 20;

/// Maps and recycles segment buffers (DESIGN.md §13, the receive side).
/// Filled lazily: nothing sits idle until a buffer is freed into it. Held
/// by shared_ptr, and every buffer it hands out holds it too, so a merge
/// stream may outlive the pool's owner. A zero budget pools nothing:
/// every buffer maps fresh and unmaps when freed.
class SegmentPool : public std::enable_shared_from_this<SegmentPool> {
 public:
  explicit SegmentPool(uint64_t budget_bytes = kSegmentPoolBudgetBytes)
      : budget_(budget_bytes) {}
  ~SegmentPool();
  SegmentPool(const SegmentPool&) = delete;
  SegmentPool& operator=(const SegmentPool&) = delete;

  /// A buffer of `capacity` bytes on the smallest idle mapping that holds
  /// it with at most 2x slack, or on a fresh one rounded up to whole
  /// pages; a zero capacity maps nothing. ResourceExhausted when the
  /// kernel refuses the mapping, e.g. for a forged size far beyond memory.
  /// A reused mapping is not zeroed: bytes() shows only what this
  /// buffer's own Append/Commit wrote.
  StatusOr<std::unique_ptr<SegmentBuffer>> Acquire(uint64_t capacity)
      EXCLUDES(mu_);
  /// Unmaps every idle mapping; buffers freed afterwards unmap too.
  void Close() EXCLUDES(mu_);

  /// Mapped bytes behind this pool's live buffers / held idle in it.
  uint64_t live_bytes() const { return live_.load(std::memory_order_relaxed); }
  uint64_t pooled_bytes() const {
    return pooled_.load(std::memory_order_relaxed);
  }

 private:
  friend class SegmentBuffer;
  /// Takes back a freed buffer's mapping: pooled within the budget,
  /// unmapped otherwise.
  void Release(uint8_t* base, uint64_t mapped) EXCLUDES(mu_);

  const uint64_t budget_;
  Mutex mu_;
  std::multimap<uint64_t, uint8_t*> idle_ GUARDED_BY(mu_);  // mapped -> base
  bool closed_ GUARDED_BY(mu_) = false;
  std::atomic<uint64_t> live_{0};
  std::atomic<uint64_t> pooled_{0};  // written under mu_
};

/// Bytes mapped by live SegmentBuffers, process-wide. Leak checkers do
/// not see mappings, so tests assert this returns to zero.
uint64_t LiveSegmentMappedBytes();
/// Bytes mapped by idle mappings parked in SegmentPools, process-wide;
/// zero once every pool is closed or destroyed.
uint64_t PooledSegmentMappedBytes();

}  // namespace jbs::shuffle
