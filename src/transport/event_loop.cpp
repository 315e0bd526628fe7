#include "transport/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "common/logging.h"

namespace jbs::net {

namespace {
uint32_t ToEpollEvents(bool want_read, bool want_write) {
  uint32_t events = 0;
  if (want_read) events |= EPOLLIN;
  if (want_write) events |= EPOLLOUT;
  return events;
}

// Writes one u64 to an eventfd, retrying EINTR: a signal landing between
// RunInLoop's enqueue and the wakeup write must not strand the task until
// the next unrelated wakeup (or until Stop's join, which would stretch
// shutdown by the poll timeout).
void EventfdSignal(int fd) {
  const uint64_t one = 1;
  ssize_t n;
  do {
    n = ::write(fd, &one, sizeof(one));
  } while (n < 0 && errno == EINTR);
  // EAGAIN means the 64-bit counter is already non-zero: the loop has a
  // pending wakeup, which is all we needed.
}
}  // namespace

EventLoop::~EventLoop() { Stop(); }

Status EventLoop::Start() {
  epoll_fd_ = Fd(::epoll_create1(0));
  if (!epoll_fd_.valid()) return IoError("epoll_create1 failed");
  wake_fd_ = Fd(::eventfd(0, EFD_NONBLOCK));
  if (!wake_fd_.valid()) return IoError("eventfd failed");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_.get();
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &ev) != 0) {
    return IoError("epoll_ctl(wakeup) failed");
  }
  running_.store(true);
  thread_ = std::thread([this] {
    loop_thread_id_ = std::this_thread::get_id();
    Loop();
  });
  return Status::Ok();
}

void EventLoop::Stop() {
  if (!running_.exchange(false)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  // Wake the loop so it observes running_ == false.
  EventfdSignal(wake_fd_.get());
  if (thread_.joinable()) thread_.join();
  callbacks_.clear();
  // Tasks that raced in after the loop's final drain would otherwise sit
  // here forever — and a queued send task pins its frame's buffer lease.
  MutexLock lock(pending_mu_);
  pending_.clear();
}

Status EventLoop::Add(int fd, bool want_read, bool want_write,
                           FdCallback callback) {
  epoll_event ev{};
  ev.events = ToEpollEvents(want_read, want_write);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
    return IoError("epoll_ctl(ADD) failed");
  }
  callbacks_[fd] = std::move(callback);
  return Status::Ok();
}

Status EventLoop::Modify(int fd, bool want_read, bool want_write) {
  epoll_event ev{};
  ev.events = ToEpollEvents(want_read, want_write);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, fd, &ev) != 0) {
    return IoError("epoll_ctl(MOD) failed");
  }
  return Status::Ok();
}

void EventLoop::Remove(int fd) {
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
  callbacks_.erase(fd);
}

void EventLoop::RunInLoop(std::function<void()> fn) {
  {
    MutexLock lock(pending_mu_);
    pending_.push_back(std::move(fn));
  }
  EventfdSignal(wake_fd_.get());
}

void EventLoop::DrainPending() {
  std::vector<std::function<void()>> work;
  {
    MutexLock lock(pending_mu_);
    work.swap(pending_);
  }
  for (auto& fn : work) fn();
}

void EventLoop::Loop() {
  std::array<epoll_event, 64> events{};
  while (running_.load(std::memory_order_relaxed)) {
    const int n = ::epoll_wait(epoll_fd_.get(), events.data(),
                               static_cast<int>(events.size()), /*ms=*/100);
    if (n < 0) {
      if (errno == EINTR) continue;
      JBS_ERROR << "epoll_wait: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[static_cast<size_t>(i)].data.fd;
      const uint32_t raw = events[static_cast<size_t>(i)].events;
      if (fd == wake_fd_.get()) {
        uint64_t drained = 0;
        // A drain dropped to EINTR leaves the eventfd counter nonzero, so
        // level-triggered epoll re-delivers it on the next iteration —
        // no retry loop needed here.
        // NOLINTNEXTLINE(jbs-eintr-retry)
        [[maybe_unused]] ssize_t r =
            ::read(wake_fd_.get(), &drained, sizeof(drained));
        continue;
      }
      auto it = callbacks_.find(fd);
      if (it == callbacks_.end()) continue;
      uint32_t mask = 0;
      if ((raw & EPOLLIN) != 0) mask |= kReadable;
      if ((raw & EPOLLOUT) != 0) mask |= kWritable;
      if ((raw & (EPOLLERR | EPOLLHUP)) != 0) mask |= kError;
      // Copy: the callback may Remove(fd) and invalidate the iterator.
      FdCallback cb = it->second;
      cb(mask);
    }
    DrainPending();
  }
  DrainPending();
}

}  // namespace jbs::net
