// Per-connection send backlog behind ServerEndpoint::Backlog (DESIGN.md
// §14): the bytes a connection's wire still has ahead of the next reply,
// as its endpoint last sampled them.
//
// An endpoint mints every connection's id here, and the id's low bits name
// the connection's slot: one 64-bit atomic word whose high bits hold a tag
// derived from the rest of the id and whose low bits hold the sample. The
// endpoint's I/O thread stores a sample and any thread reads it with one
// atomic operation on the slot, with no lock, no map lookup and no
// syscall. A retired id's tag no longer matches its slot (the slot is free
// or belongs to a newer connection), so it reads 0 and its late samples
// are ignored. Only Open and Close, once per connection, take the mutex
// that guards the free-slot list.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "transport/transport.h"

namespace jbs::net {

class BacklogTable {
 public:
  /// Open connections one table can hold at once.
  static constexpr int kSlotBits = 16;
  static constexpr size_t kMaxConnections = size_t{1} << kSlotBits;

  BacklogTable() = default;
  BacklogTable(const BacklogTable&) = delete;
  BacklogTable& operator=(const BacklogTable&) = delete;

  /// Mints a new connection's id, with its backlog at 0. Ids are never 0
  /// and never repeat while the table lives. Returns 0 when
  /// kMaxConnections connections are already open.
  ConnId Open() EXCLUDES(mu_);
  /// Retires `id`: its backlog reads 0 from now on. Retiring an id again,
  /// or after CloseAll, does nothing.
  void Close(ConnId id) EXCLUDES(mu_);
  /// Retires every open connection (the endpoint stopped).
  void CloseAll() EXCLUDES(mu_);

  /// Any thread: `id`'s backlog is now `bytes` (saturating at 2^40 - 1).
  /// A no-op once `id` is retired.
  void Set(ConnId id, uint64_t bytes);
  /// Any thread, O(1): `id`'s last sample, 0 once it is retired.
  uint64_t Get(ConnId id) const;

 private:
  static constexpr int kCountBits = 40;
  static constexpr uint64_t kCountMask = (uint64_t{1} << kCountBits) - 1;
  static constexpr int kBlockBits = 8;
  static constexpr size_t kBlockSlots = size_t{1} << kBlockBits;
  static constexpr size_t kBlocks = kMaxConnections / kBlockSlots;

  static uint64_t Tag(ConnId id);
  /// `id`'s slot word, or nullptr when its block was never allocated.
  std::atomic<uint64_t>* Slot(ConnId id) const;
  /// Frees `slot` if its word still carries `tag`.
  bool Retire(std::atomic<uint64_t>* slot, uint64_t tag);

  // Slots are allocated a block at a time as connections open, and live as
  // long as the table.
  std::atomic<std::atomic<uint64_t>*> blocks_[kBlocks] = {};
  Mutex mu_;
  std::unique_ptr<std::atomic<uint64_t>[]> owned_[kBlocks] GUARDED_BY(mu_);
  std::vector<uint32_t> free_ GUARDED_BY(mu_);
  uint32_t used_ GUARDED_BY(mu_) = 0;  // slots ever handed out
  uint64_t next_seq_ GUARDED_BY(mu_) = 1;
};

}  // namespace jbs::net
