// Event loop for the TCP server endpoint (DESIGN.md §15): the §IV-B
// readiness model ("Both client and server use the epoll interface to
// monitor and detect events from concurrent connections"). One thread runs
// the loop; other threads inject work via RunInLoop (eventfd wakeup).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "transport/socket_util.h"

namespace jbs::net {

class EventLoop {
 public:
  /// Bitmask passed to fd callbacks.
  static constexpr uint32_t kReadable = 1;
  static constexpr uint32_t kWritable = 2;
  static constexpr uint32_t kError = 4;

  using FdCallback = std::function<void(uint32_t events)>;

  EventLoop() = default;
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Starts the loop thread.
  Status Start();

  /// Stops and joins the loop thread; all registrations dropped, along
  /// with any tasks injected too late for the loop's final drain.
  void Stop() EXCLUDES(pending_mu_);

  /// Registers a (nonblocking) fd. Callbacks run on the loop thread.
  /// Must be called from the loop thread or before Start().
  Status Add(int fd, bool want_read, bool want_write, FdCallback callback);

  /// Changes interest set. Loop thread only.
  Status Modify(int fd, bool want_read, bool want_write);

  /// Unregisters (does not close). Loop thread only.
  void Remove(int fd);

  /// Schedules `fn` to run on the loop thread; wakes the loop. Any thread.
  void RunInLoop(std::function<void()> fn) EXCLUDES(pending_mu_);

  bool InLoopThread() const {
    return std::this_thread::get_id() == loop_thread_id_;
  }

 private:
  void Loop();
  void DrainPending() EXCLUDES(pending_mu_);

  Fd epoll_fd_;
  Fd wake_fd_;  // eventfd
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::thread::id loop_thread_id_;

  std::unordered_map<int, FdCallback> callbacks_;

  Mutex pending_mu_;
  std::vector<std::function<void()>> pending_ GUARDED_BY(pending_mu_);
};

}  // namespace jbs::net
