// Self-contained stand-ins for the repo types the jbs-* checks key on,
// so fixtures compile under the jbs-tidy driver with no include paths
// and no system headers. Shapes mirror the real declarations (names are
// what the checks match on: record names Frame/Mutex/MutexLock, member
// names lease/ext/payload, EventLoop-ish receivers, the jbs_*
// annotate attributes); bodies are irrelevant and mostly absent.
#pragma once

// --- std::move (the real one is a template in namespace std) ------------
namespace std {
template <typename T>
struct remove_reference {
  using type = T;
};
template <typename T>
struct remove_reference<T&> {
  using type = T;
};
template <typename T>
struct remove_reference<T&&> {
  using type = T;
};
template <typename T>
constexpr typename remove_reference<T>::type&& move(T&& t) noexcept {
  return static_cast<typename remove_reference<T>::type&&>(t);
}
}  // namespace std

// --- blocking / escape-hatch annotations (mirror thread_annotations.h) --
#define JBS_BLOCKING __attribute__((annotate("jbs_blocking")))
#define JBS_ALLOW_BLOCKING(why) \
  __attribute__((annotate("jbs_allow_blocking:" why)))

// --- TSA subset used by jbs-lock-order ----------------------------------
#define CAPABILITY(x) __attribute__((capability(x)))
#define REQUIRES(...) __attribute__((requires_capability(__VA_ARGS__)))

// --- frame/lease types (mirror common/framing.h) ------------------------
namespace jbs {

struct SharedLease {
  void* token = nullptr;
};

struct Span {
  const unsigned char* data = nullptr;
  unsigned long size = 0;
};

struct Bytes {
  unsigned char* data = nullptr;
  unsigned long size = 0;
};

struct Frame {
  Bytes payload;
  Span ext;
  SharedLease lease;
};

struct OutFrame {
  Bytes payload;
  Span ext;
  SharedLease lease;
};

// --- mutex family (mirror common/mutex.h) -------------------------------
class CAPABILITY("mutex") Mutex {
 public:
  void Lock();
  void Unlock();
};

class MutexLock {
 public:
  explicit MutexLock(Mutex& mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() { mu_.Unlock(); }

 private:
  Mutex& mu_;
};

// --- event-loop surface (mirror transport/event_loop.h) -----------------
using ConnId = unsigned long;

class EventLoop {
 public:
  template <typename Fn>
  void Add(int fd, Fn cb);
  template <typename Fn>
  void RunInLoop(Fn fn);
};

struct Handlers {
  void (*on_frame_fnptr)(ConnId, Frame) = nullptr;
};

// --- blocking repo helpers ----------------------------------------------
class BlockingQueue {
 public:
  JBS_BLOCKING bool Push(int item);
  bool TryPush(int item);
  JBS_BLOCKING int Pop();
};

}  // namespace jbs

// --- raw syscalls (extern "C", as <unistd.h> et al declare them) --------
extern "C" {
typedef long ssize_t;
typedef unsigned long size_t;
extern int errno;  // NOLINT: fixture stand-in for the errno macro
ssize_t read(int fd, void* buf, size_t count);
ssize_t write(int fd, const void* buf, size_t count);
int open(const char* path, int flags, ...);
int connect(int fd, const void* addr, unsigned len);
int accept(int fd, void* addr, unsigned* len);
int poll(void* fds, unsigned long nfds, int timeout);
int epoll_wait(int epfd, void* events, int maxevents, int timeout);
unsigned int sleep(unsigned int seconds);
int fsync(int fd);
}

#define EINTR 4  // what <errno.h> defines
#define O_RDONLY 0
