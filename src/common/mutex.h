// Annotated mutex / scoped-lock / condvar wrappers. std::mutex and
// std::lock_guard carry no thread-safety attributes, so clang's
// -Wthread-safety cannot see acquisitions made through them; these thin
// wrappers (zero overhead beyond the std primitives they hold) are the
// capability types the analysis tracks. Every lock-holding class in the
// tree uses Mutex + MutexLock + CondVar so its GUARDED_BY contracts are
// machine-checked under the clang-tsa preset.
//
// CondVar deliberately has no predicate-taking Wait: a predicate lambda
// is analyzed as a separate function, outside the scope that holds the
// capability, so guarded reads inside it would all need escape hatches.
// Callers write the loop instead, in the scope that holds the lock:
//
//   MutexLock lock(mu_);
//   while (!closed_ && items_.empty()) cv_.Wait(lock);
//
// Lock order is checked twice over: statically by the jbs-lock-order
// clang check (DESIGN.md §17) and at runtime by ThreadSanitizer, which
// sees straight through these wrappers to the std primitives and reports
// any lock-order inversion, including a CondVar wait's reacquire under a
// nested lock (tests/common/tsan_lock_order_probe.cpp).
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace jbs {

class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock for Mutex; the scoped capability -Wthread-safety tracks.
/// Supports mid-scope Unlock()/Lock() (e.g. dropping the lock to notify
/// or to run a callback); the destructor releases only if still held.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() {
    if (held_) mu_.Unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void Unlock() RELEASE() {
    mu_.Unlock();
    held_ = false;
  }
  void Lock() ACQUIRE() {
    mu_.Lock();
    held_ = true;
  }

 private:
  friend class CondVar;
  Mutex& mu_;
  bool held_ = true;
};

/// Condition variable bound to a Mutex via the MutexLock holding it.
/// Waits atomically release and re-acquire the underlying std::mutex, so
/// from the analysis's point of view the capability is held across the
/// call — exactly the std::condition_variable contract.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  JBS_BLOCKING void Wait(MutexLock& lock) {
    std::unique_lock<std::mutex> native(lock.mu_.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  template <typename Clock, typename Duration>
  JBS_BLOCKING std::cv_status WaitUntil(
      MutexLock& lock, const std::chrono::time_point<Clock, Duration>& when) {
    std::unique_lock<std::mutex> native(lock.mu_.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(native, when);
    native.release();
    return status;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace jbs
