#include "jbs/segment_buffer.h"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <limits>
#include <string>

namespace jbs::shuffle {

namespace {

std::atomic<uint64_t> g_live_mapped_bytes{0};

}  // namespace

StatusOr<std::unique_ptr<SegmentBuffer>> SegmentBuffer::Create(
    uint64_t capacity) {
  if (capacity == 0) {
    return std::unique_ptr<SegmentBuffer>(new SegmentBuffer(nullptr, 0, 0));
  }
  const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  if (capacity > std::numeric_limits<size_t>::max() - page) {
    return ResourceExhausted("segment of " + std::to_string(capacity) +
                             " bytes cannot be mapped");
  }
  const uint64_t mapped = (capacity + page - 1) / page * page;
  void* base = ::mmap(nullptr, static_cast<size_t>(mapped),
                      PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                      -1, 0);
  if (base == MAP_FAILED) {
    return ResourceExhausted("mmap of a " + std::to_string(capacity) +
                             "-byte segment failed: " + std::strerror(errno));
  }
  g_live_mapped_bytes.fetch_add(mapped, std::memory_order_relaxed);
  return std::unique_ptr<SegmentBuffer>(
      new SegmentBuffer(static_cast<uint8_t*>(base), capacity, mapped));
}

SegmentBuffer::~SegmentBuffer() {
  if (base_ == nullptr) return;
  ::munmap(base_, static_cast<size_t>(mapped_));
  g_live_mapped_bytes.fetch_sub(mapped_, std::memory_order_relaxed);
}

Status SegmentBuffer::Append(std::span<const uint8_t> data) {
  if (data.size() > capacity_ - size_) {
    return Internal("segment append of " + std::to_string(data.size()) +
                    " bytes overruns its " + std::to_string(capacity_) +
                    "-byte capacity at " + std::to_string(size_));
  }
  if (!data.empty()) std::memcpy(base_ + size_, data.data(), data.size());
  size_ += data.size();
  return Status::Ok();
}

uint64_t LiveSegmentMappedBytes() {
  return g_live_mapped_bytes.load(std::memory_order_relaxed);
}

}  // namespace jbs::shuffle
