// Thin RAII + helper layer over POSIX sockets.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "transport/deadline.h"

namespace jbs::net {

/// Owning file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { Reset(); }
  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  void Reset();

 private:
  int fd_ = -1;
};

/// Creates a TCP listener bound to 127.0.0.1:`port` (0 = ephemeral).
/// Returns the fd and the bound port.
StatusOr<std::pair<Fd, uint16_t>> ListenTcp(uint16_t port, int backlog = 128);

/// Connect to host:port with TCP_NODELAY. A finite deadline bounds the
/// three-way handshake (nonblocking connect + poll) and fails with
/// kDeadlineExceeded; an infinite one blocks in connect(2).
JBS_BLOCKING StatusOr<Fd> ConnectTcp(const std::string& host, uint16_t port,
                        const Deadline& deadline = Deadline());

Status SetNonBlocking(int fd);
Status SetBlocking(int fd);

/// Disables Nagle; required on every message-oriented socket or the
/// request/response pattern stalls on delayed ACKs.
Status SetNoDelay(int fd);

/// Bytes written to `fd` that the peer has not acknowledged yet (unsent
/// bytes included): the kernel's share of a send backlog, SIOCOUTQ. 0 if
/// the query fails.
uint64_t UnackedSendBytes(int fd);

/// Blocks until `fd` is readable (resp. writable), the deadline passes
/// (kDeadlineExceeded), or the fd errors. poll(2)-based; EINTR retried.
JBS_BLOCKING Status WaitReadable(int fd, const Deadline& deadline);
JBS_BLOCKING Status WaitWritable(int fd, const Deadline& deadline);

/// Writes the whole buffer, retrying on EINTR/partial. With a finite
/// deadline each write is poll(2)-guarded so a stalled peer (zero window)
/// fails with kDeadlineExceeded instead of wedging the caller.
JBS_BLOCKING Status SendAll(int fd, std::span<const uint8_t> data,
               const Deadline& deadline = Deadline());

/// Vectored SendAll: writes every span in order with sendmsg(2), resuming
/// partial writes across iovec boundaries, so a frame header and a
/// borrowed payload buffer go out in one syscall without being glued
/// together in user space. Same EINTR/deadline semantics as SendAll.
/// Spans beyond IOV_MAX are sent in successive batches.
JBS_BLOCKING Status SendAllV(int fd, std::span<const std::span<const uint8_t>> bufs,
                const Deadline& deadline = Deadline());

/// Reads exactly `out.size()` bytes. kUnavailable on clean peer close at a
/// frame boundary (0 bytes read so far), kIoError otherwise. With a finite
/// deadline each read is poll(2)-guarded: a silent peer fails with
/// kDeadlineExceeded instead of blocking forever.
JBS_BLOCKING Status RecvAll(int fd, std::span<uint8_t> out,
               const Deadline& deadline = Deadline());

}  // namespace jbs::net
