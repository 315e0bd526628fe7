// Page-backed storage for one fetched segment. NetMerger sizes it once,
// from the first reply's segment_total, appends every chunk in order, and
// hands the merge a leased view of the bytes in place. The bytes live in
// an anonymous mapping of their own, so dropping the last lease returns
// the pages to the kernel at once; freed heap blocks of segment size
// would instead stay in the malloc arenas and keep the reducer's RSS up.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "common/status.h"

namespace jbs::shuffle {

class SegmentBuffer {
 public:
  /// Maps room for `capacity` bytes, rounded up to whole pages; a zero
  /// capacity maps nothing. ResourceExhausted when the kernel refuses the
  /// mapping, e.g. for a forged size far beyond memory.
  static StatusOr<std::unique_ptr<SegmentBuffer>> Create(uint64_t capacity);

  ~SegmentBuffer();
  SegmentBuffer(const SegmentBuffer&) = delete;
  SegmentBuffer& operator=(const SegmentBuffer&) = delete;

  /// Appends `data` after the bytes already held. Internal, with nothing
  /// written, when it would run past the capacity.
  Status Append(std::span<const uint8_t> data);

  std::span<const uint8_t> bytes() const { return {base_, size_}; }
  uint64_t size() const { return size_; }
  uint64_t capacity() const { return capacity_; }

 private:
  SegmentBuffer(uint8_t* base, uint64_t capacity, uint64_t mapped)
      : base_(base), capacity_(capacity), mapped_(mapped) {}

  uint8_t* base_;
  uint64_t capacity_;
  uint64_t mapped_;  // whole pages behind base_
  uint64_t size_ = 0;
};

/// Bytes mapped by live SegmentBuffers, process-wide. Leak checkers do
/// not see mappings, so tests assert this returns to zero.
uint64_t LiveSegmentMappedBytes();

}  // namespace jbs::shuffle
