// Optionally bounded multi-producer/multi-consumer blocking queue: the
// thread pool's task queue and the soft-RDMA endpoint's send queue.
#pragma once

#include <deque>
#include <optional>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace jbs {

template <typename T>
class BlockingQueue {
 public:
  explicit BlockingQueue(size_t capacity = SIZE_MAX) : capacity_(capacity) {}

  /// Blocks while full. Returns false if the queue was closed.
  JBS_BLOCKING bool Push(T item) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (!closed_ && items_.size() >= capacity_) not_full_cv_.Wait(lock);
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.Unlock();
    not_empty_cv_.NotifyOne();
    return true;
  }

  /// Non-blocking push; false if full or closed.
  bool TryPush(T item) EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_cv_.NotifyOne();
    return true;
  }

  /// Blocks while empty. Returns nullopt once closed and drained.
  JBS_BLOCKING std::optional<T> Pop() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (!closed_ && items_.empty()) not_empty_cv_.Wait(lock);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.Unlock();
    not_full_cv_.NotifyOne();
    return item;
  }

  /// Non-blocking pop.
  std::optional<T> TryPop() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.Unlock();
    not_full_cv_.NotifyOne();
    return item;
  }

  /// Wakes all waiters; subsequent pushes fail, pops drain then return
  /// nullopt.
  void Close() EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    not_empty_cv_.NotifyAll();
    not_full_cv_.NotifyAll();
  }

  bool closed() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return closed_;
  }

  size_t size() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return items_.size();
  }

  bool empty() const { return size() == 0; }

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  CondVar not_empty_cv_;
  CondVar not_full_cv_;
  std::deque<T> items_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
};

}  // namespace jbs
