#include "transport/backlog.h"

#include <algorithm>

namespace jbs::net {

uint64_t BacklogTable::Tag(ConnId id) {
  // Never 0, the free word's tag. A slot sees the same tag again only
  // after 2^24 - 1 later opens of that slot.
  constexpr uint64_t kTags = (uint64_t{1} << (64 - kCountBits)) - 1;
  return (id >> kSlotBits) % kTags + 1;
}

std::atomic<uint64_t>* BacklogTable::Slot(ConnId id) const {
  const size_t slot = static_cast<size_t>(id & (kMaxConnections - 1));
  std::atomic<uint64_t>* block =
      blocks_[slot >> kBlockBits].load(std::memory_order_acquire);
  return block == nullptr ? nullptr : &block[slot & (kBlockSlots - 1)];
}

ConnId BacklogTable::Open() {
  MutexLock lock(mu_);
  uint32_t slot = 0;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else if (used_ < kMaxConnections) {
    slot = used_++;
    auto& owned = owned_[slot >> kBlockBits];
    if (!owned) {
      owned = std::make_unique<std::atomic<uint64_t>[]>(kBlockSlots);
      blocks_[slot >> kBlockBits].store(owned.get(),
                                        std::memory_order_release);
    }
  } else {
    return 0;
  }
  const ConnId id = (next_seq_++ << kSlotBits) | slot;
  Slot(id)->store(Tag(id) << kCountBits, std::memory_order_relaxed);
  return id;
}

bool BacklogTable::Retire(std::atomic<uint64_t>* slot, uint64_t tag) {
  uint64_t word = slot->load(std::memory_order_relaxed);
  while (word >> kCountBits == tag) {
    if (slot->compare_exchange_weak(word, 0, std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

void BacklogTable::Close(ConnId id) {
  std::atomic<uint64_t>* slot = Slot(id);
  if (slot == nullptr || !Retire(slot, Tag(id))) return;
  MutexLock lock(mu_);
  free_.push_back(static_cast<uint32_t>(id & (kMaxConnections - 1)));
}

void BacklogTable::CloseAll() {
  MutexLock lock(mu_);
  for (uint32_t i = 0; i < used_; ++i) {
    std::atomic<uint64_t>& slot = owned_[i >> kBlockBits][i & (kBlockSlots - 1)];
    if (slot.exchange(0, std::memory_order_relaxed) != 0) free_.push_back(i);
  }
}

void BacklogTable::Set(ConnId id, uint64_t bytes) {
  std::atomic<uint64_t>* slot = Slot(id);
  if (slot == nullptr) return;
  const uint64_t tag = Tag(id);
  const uint64_t next = (tag << kCountBits) | std::min(bytes, kCountMask);
  uint64_t word = slot->load(std::memory_order_relaxed);
  // A compare-exchange, not a store: a sample racing Close must not
  // resurrect the retired slot.
  while (word >> kCountBits == tag) {
    if (slot->compare_exchange_weak(word, next, std::memory_order_relaxed)) {
      return;
    }
  }
}

uint64_t BacklogTable::Get(ConnId id) const {
  const std::atomic<uint64_t>* slot = Slot(id);
  if (slot == nullptr) return 0;
  const uint64_t word = slot->load(std::memory_order_relaxed);
  return word >> kCountBits == Tag(id) ? word & kCountMask : 0;
}

}  // namespace jbs::net
