// Portable transport layer (§IV). One abstract API with two backends:
//
//   - TcpTransport: real nonblocking sockets; the server side multiplexes
//     connections over one epoll event loop and queues outbound frames
//     for asynchronous transmission (§IV-B's event-driven model).
//   - SoftRdmaTransport: a verbs-style emulation (queue pairs, completion
//     queues, rdma_cm-style event channel) preserving the §IV-A
//     connection-establishment state machine without RDMA hardware.
//
// Client side is a blocking framed Connection (thread-safe Send, single
// reader), matching how NetMerger data threads drive fetch conversations.
// Server side is a ServerEndpoint: callback-driven request intake plus
// asynchronous sends, matching the MOFSupplier pipeline.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "common/framing.h"
#include "common/status.h"
#include "transport/deadline.h"

namespace jbs::net {

/// Identifies one accepted connection within a ServerEndpoint: never 0 and
/// never reused while the endpoint lives. Its low bits name the
/// connection's backlog slot (transport/backlog.h).
using ConnId = uint64_t;

/// Client-side connection: framed, blocking. Send is safe from multiple
/// threads (frames are serialized whole); Receive must have one reader.
///
/// Every wire operation takes a Deadline: an infinite one (the overloads
/// without the argument) blocks until the peer acts or the connection is
/// closed; a finite one returns kDeadlineExceeded once it passes, leaving
/// the connection in an indeterminate mid-frame state — callers must treat
/// a timed-out connection as dead and re-dial.
///
/// Close() is cancellation-safe: it may be called from any thread while
/// another thread is blocked in Send/Receive, and must unblock that thread
/// promptly (the blocked call fails with kUnavailable).
class Connection {
 public:
  /// Where a received frame's payload tail goes (see ReceivePlaced). Gets
  /// the frame type, the first `head_len` payload bytes and the count of
  /// bytes after them; returns exactly that many writable bytes, or an
  /// empty span to receive the frame owned.
  using Placement = std::function<std::span<uint8_t>(
      uint8_t type, std::span<const uint8_t> head, size_t tail_len)>;

  virtual ~Connection() = default;
  virtual Status Send(const Frame& frame, const Deadline& deadline) = 0;
  virtual StatusOr<Frame> Receive(const Deadline& deadline) = 0;
  Status Send(const Frame& frame) { return Send(frame, Deadline()); }
  StatusOr<Frame> Receive() { return Receive(Deadline()); }

  /// Receive in place (DESIGN.md §13). Reads a frame's type and its first
  /// `head_len` payload bytes, then asks `place` where the rest goes. When
  /// `place` supplies storage, the tail is written straight into it: the
  /// returned frame's `payload` holds the head and `ext` views the placed
  /// bytes, with no lease — the caller owns that storage. When it declines,
  /// for frames no longer than the head, and on connections that cannot
  /// place (the default), the frame arrives owned, exactly as Receive
  /// returns it. Placed bytes are unverified wire bytes, and a failed
  /// receive may leave a partial tail behind: the caller must not treat the
  /// storage as valid until its own checks pass.
  virtual StatusOr<Frame> ReceivePlaced(size_t /*head_len*/,
                                        const Placement& /*place*/,
                                        const Deadline& deadline) {
    return Receive(deadline);
  }

  virtual void Close() = 0;
  virtual bool alive() const = 0;
  /// Bytes moved in each direction (for shuffle accounting).
  virtual uint64_t bytes_sent() const = 0;
  virtual uint64_t bytes_received() const = 0;
};

/// Server-side endpoint handling many connections.
class ServerEndpoint {
 public:
  struct Handlers {
    std::function<void(ConnId)> on_connect;
    std::function<void(ConnId, Frame)> on_frame;
    std::function<void(ConnId)> on_disconnect;
  };

  virtual ~ServerEndpoint() = default;

  /// Binds, starts the event machinery, and begins delivering callbacks
  /// (from the endpoint's internal thread — handlers must be fast or
  /// hand off).
  virtual Status Start(Handlers handlers) = 0;

  virtual uint16_t port() const = 0;

  /// Queues a frame for asynchronous transmission to a connection. Safe
  /// from any thread.
  ///
  /// Zero-copy contract (DESIGN.md §13): after SendAsync accepts a frame,
  /// the bytes behind `frame.ext` belong to the endpoint —
  /// the caller must not write them and must not assume they are still
  /// readable. The frame's lease is released when the last byte reaches
  /// the socket or the connection dies with the frame still queued,
  /// whichever comes first; that release is the only signal a pooled
  /// buffer may be reused.
  virtual Status SendAsync(ConnId conn, Frame frame) = 0;

  /// Owning-buffer convenience: attaches `lease` as the frame's ownership
  /// token (e.g. a PooledBuffer whose view `frame.ext` already points at)
  /// and queues it. Exists so call sites read as an explicit handoff.
  Status SendAsync(ConnId conn, Frame frame,
                   std::shared_ptr<const void> lease) {
    frame.lease = std::move(lease);
    return SendAsync(conn, std::move(frame));
  }

  /// The bytes `conn`'s wire still had ahead of the next reply when the
  /// endpoint last sampled it: bytes handed to the socket that the peer
  /// has not acknowledged (SIOCOUTQ), plus, on TCP, the bytes queued
  /// behind a write that would block. Frames SendAsync accepted that the
  /// I/O thread has not tried to write yet do not count. The I/O thread
  /// samples it as each incoming frame arrives, before the handler runs
  /// (and on TCP also when a write would block), so a request's handler
  /// and whoever serves it later see the wire as the request found it.
  /// 0 for a closed or unknown connection and after Stop(). Safe from any
  /// thread, O(1), with no lock and no syscall; the supplier reads it on
  /// the disk thread for every chunk (DESIGN.md §14).
  virtual uint64_t Backlog(ConnId conn) const = 0;

  /// Stops the event thread and closes all connections.
  virtual void Stop() = 0;

  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t frames_received = 0;
    uint64_t frames_sent = 0;
    uint64_t bytes_sent = 0;
    /// Frames accepted by SendAsync but not yet fully on the wire — an
    /// instantaneous backlog depth, not a cumulative count.
    uint64_t send_queue_depth = 0;
  };
  virtual Stats stats() const = 0;
};

/// Factory for one protocol family.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual std::string name() const = 0;
  virtual StatusOr<std::unique_ptr<ServerEndpoint>> CreateServer() = 0;
  /// Dials host:port. A finite deadline bounds connection establishment
  /// (including any handshake) and fails with kDeadlineExceeded.
  virtual StatusOr<std::unique_ptr<Connection>> Connect(
      const std::string& host, uint16_t port, const Deadline& deadline) = 0;
  StatusOr<std::unique_ptr<Connection>> Connect(const std::string& host,
                                                uint16_t port) {
    return Connect(host, port, Deadline());
  }
};

struct TcpTransportOptions {
  /// Largest accepted inbound frame payload, client and server side. The
  /// 4-byte length prefix is attacker-controlled; a frame announcing more
  /// than this fails the connection instead of attempting the allocation.
  size_t max_frame_bytes = 64 * 1024 * 1024;
};

/// Creates the TCP/IP transport (§IV-B).
std::unique_ptr<Transport> MakeTcpTransport(TcpTransportOptions options = {});

}  // namespace jbs::net
