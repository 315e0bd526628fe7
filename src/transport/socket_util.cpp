#include "transport/socket_util.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <linux/sockios.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace jbs::net {

namespace {
std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

// Iovec batch bound per sendmsg call; far below IOV_MAX (1024) but enough
// to gather many frames' header+payload pairs in one syscall.
constexpr int kMaxIovecs = 64;
}  // namespace

void Fd::Reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<std::pair<Fd, uint16_t>> ListenTcp(uint16_t port, int backlog) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return IoError(Errno("socket"));
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return IoError(Errno("bind"));
  }
  if (::listen(fd.get(), backlog) != 0) return IoError(Errno("listen"));
  socklen_t len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return IoError(Errno("getsockname"));
  }
  return std::make_pair(std::move(fd), ntohs(addr.sin_port));
}

StatusOr<Fd> ConnectTcp(const std::string& host, uint16_t port,
                        const Deadline& deadline) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return IoError(Errno("socket"));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return InvalidArgument("bad address " + host);
  }
  // Reads SO_ERROR once the handshake has resolved; both connect paths
  // below funnel through this after an in-progress/interrupted connect.
  const auto finish_connect = [&fd, &deadline]() -> Status {
    JBS_RETURN_IF_ERROR(WaitWritable(fd.get(), deadline));
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      return IoError(Errno("getsockopt(SO_ERROR)"));
    }
    if (err != 0) {
      errno = err;
      return Unavailable(Errno("connect"));
    }
    return Status::Ok();
  };
  if (deadline.infinite()) {
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      // EINTR does not abort a blocking connect: the kernel completes the
      // handshake asynchronously, and re-calling connect() would report
      // EALREADY. Resolve it like a nonblocking connect instead.
      if (errno != EINTR) return Unavailable(Errno("connect"));
      JBS_RETURN_IF_ERROR(finish_connect());
    }
  } else {
    // Bounded handshake: nonblocking connect, poll for completion, then
    // restore blocking mode for the framed conversation.
    JBS_RETURN_IF_ERROR(SetNonBlocking(fd.get()));
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      if (errno != EINPROGRESS && errno != EINTR) {
        return Unavailable(Errno("connect"));
      }
      JBS_RETURN_IF_ERROR(finish_connect());
    }
    JBS_RETURN_IF_ERROR(SetBlocking(fd.get()));
  }
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return IoError(Errno("fcntl(F_GETFL)"));
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return IoError(Errno("fcntl(F_SETFL)"));
  }
  return Status::Ok();
}

Status SetBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return IoError(Errno("fcntl(F_GETFL)"));
  if (::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) < 0) {
    return IoError(Errno("fcntl(F_SETFL)"));
  }
  return Status::Ok();
}

namespace {
Status WaitFor(int fd, short events, const char* what,
               const Deadline& deadline) {
  for (;;) {
    pollfd pfd{fd, events, 0};
    const int n = ::poll(&pfd, 1, deadline.poll_timeout_ms());
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError(Errno("poll"));
    }
    if (n == 0) {
      if (deadline.expired()) {
        return DeadlineExceeded(std::string("deadline waiting for ") + what);
      }
      continue;  // spurious zero-timeout wakeup; re-arm with remaining time
    }
    // Readable/writable includes POLLERR/POLLHUP: let the following
    // recv/send observe and report the actual socket error.
    return Status::Ok();
  }
}
}  // namespace

Status WaitReadable(int fd, const Deadline& deadline) {
  return WaitFor(fd, POLLIN, "readable", deadline);
}

Status WaitWritable(int fd, const Deadline& deadline) {
  return WaitFor(fd, POLLOUT, "writable", deadline);
}

Status SetNoDelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    return IoError(Errno("setsockopt(TCP_NODELAY)"));
  }
  return Status::Ok();
}

uint64_t UnackedSendBytes(int fd) {
  int bytes = 0;
  if (::ioctl(fd, SIOCOUTQ, &bytes) != 0 || bytes < 0) return 0;
  return static_cast<uint64_t>(bytes);
}

Status SendAll(int fd, std::span<const uint8_t> data,
               const Deadline& deadline) {
  const bool bounded = !deadline.infinite();
  size_t sent = 0;
  while (sent < data.size()) {
    if (bounded) JBS_RETURN_IF_ERROR(WaitWritable(fd, deadline));
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL | (bounded ? MSG_DONTWAIT : 0));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (bounded && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      return IoError(Errno("send"));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status SendAllV(int fd, std::span<const std::span<const uint8_t>> bufs,
                const Deadline& deadline) {
  const bool bounded = !deadline.infinite();
  // Local iovec window over the unsent remainder; sendmsg (not writev) so
  // MSG_NOSIGNAL applies.
  iovec iov[kMaxIovecs];
  size_t next = 0;  // first span not yet fully sent
  size_t head_off = 0;  // bytes of bufs[next] already sent
  while (next < bufs.size()) {
    int cnt = 0;
    for (size_t i = next; i < bufs.size() && cnt < kMaxIovecs; ++i) {
      const size_t skip = (i == next) ? head_off : 0;
      if (bufs[i].size() <= skip) continue;
      iov[cnt].iov_base =
          const_cast<uint8_t*>(bufs[i].data() + skip);
      iov[cnt].iov_len = bufs[i].size() - skip;
      ++cnt;
    }
    if (cnt == 0) break;  // only empty spans remain
    if (bounded) JBS_RETURN_IF_ERROR(WaitWritable(fd, deadline));
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(cnt);
    const ssize_t n = ::sendmsg(
        fd, &msg, MSG_NOSIGNAL | (bounded ? MSG_DONTWAIT : 0));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (bounded && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      return IoError(Errno("sendmsg"));
    }
    // Advance (next, head_off) past the n written bytes.
    size_t written = static_cast<size_t>(n);
    while (next < bufs.size()) {
      const size_t remaining = bufs[next].size() - head_off;
      if (written < remaining) {
        head_off += written;
        written = 0;
        break;
      }
      written -= remaining;
      ++next;
      head_off = 0;
    }
  }
  return Status::Ok();
}

Status RecvAll(int fd, std::span<uint8_t> out, const Deadline& deadline) {
  const bool bounded = !deadline.infinite();
  size_t received = 0;
  while (received < out.size()) {
    if (bounded) JBS_RETURN_IF_ERROR(WaitReadable(fd, deadline));
    const ssize_t n = ::recv(fd, out.data() + received, out.size() - received,
                             bounded ? MSG_DONTWAIT : 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (bounded && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      return IoError(Errno("recv"));
    }
    if (n == 0) {
      if (received == 0) return Unavailable("peer closed");
      return IoError("peer closed mid-frame");
    }
    received += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace jbs::net
