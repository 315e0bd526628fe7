// Generic LRU cache used twice in JBS exactly as the paper describes:
//   - the MOFSupplier IndexCache (MOF id -> parsed index file), and
//   - the ConnectionManager (remote node -> live connection, cap 512,
//     "connections are torn down based on the LRU order").
// Eviction invokes an optional callback so the connection cache can close
// sockets / destroy queue pairs as entries fall out.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <unordered_map>

namespace jbs {

template <typename Key, typename Value>
class LruCache {
 public:
  using EvictionCallback = std::function<void(const Key&, Value&)>;

  explicit LruCache(size_t capacity, EvictionCallback on_evict = nullptr)
      : capacity_(capacity), on_evict_(std::move(on_evict)) {
    assert(capacity_ > 0);
  }

  /// Inserts or overwrites; returns true if an eviction occurred.
  bool Put(const Key& key, Value value) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      Touch(it->second);
      return false;
    }
    bool evicted = false;
    if (entries_.size() >= capacity_) {
      EvictOldest();
      evicted = true;
    }
    entries_.emplace_front(key, std::move(value));
    index_[key] = entries_.begin();
    return evicted;
  }

  /// Looks up and marks as most-recently-used.
  Value* Get(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    Touch(it->second);
    return &entries_.front().second;
  }

  /// Lookup without LRU promotion (for inspection in tests).
  const Value* Peek(const Key& key) const {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    return &it->second->second;
  }

  bool Erase(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    entries_.erase(it->second);
    index_.erase(it);
    return true;
  }

  void Clear() {
    while (!entries_.empty()) EvictOldest();
  }

  size_t size() const { return entries_.size(); }
  size_t capacity() const { return capacity_; }

  /// Key of the least-recently-used entry, if any.
  std::optional<Key> OldestKey() const {
    if (entries_.empty()) return std::nullopt;
    return entries_.back().first;
  }

  uint64_t eviction_count() const { return eviction_count_; }

 private:
  using Entry = std::pair<Key, Value>;
  using EntryIter = typename std::list<Entry>::iterator;

  void Touch(EntryIter it) { entries_.splice(entries_.begin(), entries_, it); }

  void EvictOldest() {
    Entry& victim = entries_.back();
    if (on_evict_) on_evict_(victim.first, victim.second);
    index_.erase(victim.first);
    entries_.pop_back();
    ++eviction_count_;
  }

  size_t capacity_;
  EvictionCallback on_evict_;
  std::list<Entry> entries_;  // front = most recent
  std::unordered_map<Key, EntryIter> index_;
  uint64_t eviction_count_ = 0;
};

}  // namespace jbs
