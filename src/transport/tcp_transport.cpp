// TCP/IP backend (§IV-B): blocking framed client connections; an
// event-driven server endpoint where network threads detect readability
// across connections, decode request frames, and stream queued response
// buffers out asynchronously.
//
// The send path is zero-copy (DESIGN.md §13): outbound frames keep their
// payload in place — a small owned head plus a borrowed `ext` view — and
// the wire is fed with sendmsg(2) iovecs, resuming partial writes across
// iovec boundaries. A frame's buffer lease drops when its last byte is
// accepted by the kernel or the connection dies with the frame still
// queued.
//
// Execution model (DESIGN.md §15): the endpoint runs one epoll event loop
// that accepts, reads and writes every connection. Connection state (the
// decoder and outbound queue) is only ever touched from that loop thread,
// so the per-byte path takes no locks; the counters are relaxed atomics so
// stats() can read them from any thread. The loop thread samples each
// connection's send backlog into a BacklogTable slot when a request
// arrives and when a write would block: the bytes the peer has not
// acknowledged plus the bytes queued behind the blocked write.
#include "transport/tcp_transport.h"

#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "transport/backlog.h"
#include "transport/event_loop.h"
#include "transport/socket_util.h"

namespace jbs::net {

namespace {

// Iovec gather bound per sendmsg(2) on the server flush path.
constexpr int kFlushIovecs = 64;

class TcpConnection final : public Connection {
 public:
  TcpConnection(Fd fd, size_t max_frame_bytes)
      : fd_(std::move(fd)), max_frame_bytes_(max_frame_bytes) {}

  ~TcpConnection() override { Close(); }

  Status Send(const Frame& frame, const Deadline& deadline) override
      EXCLUDES(send_mu_) {
    // Vectored: the 5-byte wire header rides in the same sendmsg as the
    // payload spans, so nothing is glued into an encode buffer first.
    uint8_t header[kFrameHeaderSize];
    EncodeFrameHeader(frame, header);
    const std::span<const uint8_t> bufs[] = {
        {header, kFrameHeaderSize}, frame.payload, frame.ext};
    MutexLock lock(send_mu_);
    if (!alive_) return Unavailable("connection closed");
    Status st = SendAllV(fd_.get(), bufs, deadline);
    if (!st.ok()) {
      alive_ = false;
      return st;
    }
    bytes_sent_ += kFrameHeaderSize + frame.payload_size();
    return Status::Ok();
  }

  StatusOr<Frame> Receive(const Deadline& deadline) override {
    return ReceivePlaced(0, nullptr, deadline);
  }

  StatusOr<Frame> ReceivePlaced(size_t head_len, const Placement& place,
                                const Deadline& deadline) override {
    if (!alive_) return Unavailable("connection closed");
    const auto recv = [&](std::span<uint8_t> out) {
      Status st = RecvAll(fd_.get(), out, deadline);
      if (!st.ok()) alive_ = false;
      return st;
    };
    uint8_t header[kFrameHeaderSize];
    JBS_RETURN_IF_ERROR(recv(header));
    const uint32_t length = GetU32(header);
    if (length > max_frame_bytes_) {
      // The length prefix is attacker-controlled: refuse the allocation
      // and fail the connection (we cannot resynchronize mid-stream).
      Close();
      return IoError("inbound frame of " + std::to_string(length) +
                     " bytes exceeds max_frame_bytes");
    }
    Frame frame;
    frame.type = header[4];
    // Receive in place: read just the head, then recv(2) the tail straight
    // into the caller's storage when it names some.
    const size_t head = place && length > head_len ? head_len : length;
    frame.payload.resize(head);
    JBS_RETURN_IF_ERROR(recv(frame.payload));
    if (head < length) {
      const size_t tail_len = length - head;
      const std::span<uint8_t> tail =
          place(frame.type, frame.payload, tail_len);
      if (tail.size() == tail_len) {
        JBS_RETURN_IF_ERROR(recv(tail));
        frame.ext = tail;
      } else {
        frame.payload.resize(length);
        JBS_RETURN_IF_ERROR(
            recv(std::span<uint8_t>(frame.payload).subspan(head)));
      }
    }
    bytes_received_ += kFrameHeaderSize + length;
    return frame;
  }

  void Close() override {
    // Cancellation-safe: shutdown (not close) so a thread blocked in
    // Send/Receive wakes with an error immediately. The descriptor itself
    // stays open until destruction — closing it here would race a
    // concurrent recv on the fd number.
    if (alive_.exchange(false)) {
      if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
    }
  }

  bool alive() const override { return alive_; }
  uint64_t bytes_sent() const override { return bytes_sent_; }
  uint64_t bytes_received() const override { return bytes_received_; }

 private:
  Fd fd_;
  const size_t max_frame_bytes_;
  Mutex send_mu_;  // serializes senders so frames hit the wire whole
  std::atomic<bool> alive_{true};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};
};

class TcpServerEndpoint final : public ServerEndpoint {
 public:
  explicit TcpServerEndpoint(TcpTransportOptions options)
      : options_(options) {}

  ~TcpServerEndpoint() override { Stop(); }

  Status Start(Handlers handlers) override {
    handlers_ = std::move(handlers);
    auto listener = ListenTcp(/*port=*/0);
    JBS_RETURN_IF_ERROR(listener.status());
    listen_fd_ = std::move(listener->first);
    port_ = listener->second;
    JBS_RETURN_IF_ERROR(SetNonBlocking(listen_fd_.get()));
    JBS_RETURN_IF_ERROR(loop_.Start());
    // Registration must happen on the loop thread.
    std::promise<Status> done;
    loop_.RunInLoop([this, &done] {
      done.set_value(loop_.Add(listen_fd_.get(), /*read=*/true,
                               /*write=*/false,
                               [this](uint32_t) { AcceptReady(); }));
    });
    return done.get_future().get();
  }

  uint16_t port() const override { return port_; }

  Status SendAsync(ConnId conn, Frame frame) override {
    if (stopped_.load(std::memory_order_acquire)) {
      return Unavailable("endpoint stopped");
    }
    // The frame is NOT flattened into a wire buffer: its owned payload is
    // moved, its ext travels as a view, and the lease rides along until
    // the flush path finishes with the bytes.
    OutFrame out;
    EncodeFrameHeader(frame, out.header);
    out.payload = std::move(frame.payload);
    out.ext = frame.ext;
    // Last: once the lease moves, frame's ext view has no ownership token
    // behind it (jbs-lease-lifetime).
    out.lease = std::move(frame.lease);
    auto enqueue = [this, conn, out = std::move(out)]() mutable {
      auto it = conns_.find(conn);
      if (it == conns_.end()) return;  // conn gone; lease drops here
      it->second.unsent += out.size();
      it->second.out_queue.push_back(std::move(out));
      frames_sent_.fetch_add(1, std::memory_order_relaxed);
      queued_frames_.fetch_add(1, std::memory_order_relaxed);
      FlushWrites(conn);
    };
    // From the loop thread (e.g. an on_frame handler replying inline) run
    // synchronously: if the peer half-closed right after its request, the
    // EOF must find the reply already queued, not parked behind it in the
    // pending-task list.
    if (loop_.InLoopThread()) {
      enqueue();
    } else {
      loop_.RunInLoop(std::move(enqueue));
    }
    return Status::Ok();
  }

  uint64_t Backlog(ConnId conn) const override { return backlog_.Get(conn); }

  void Stop() override {
    if (stopped_.exchange(true)) return;
    loop_.Stop();
    conns_.clear();  // drops every queued OutFrame and its lease
    backlog_.CloseAll();
    listen_fd_.Reset();
  }

  Stats stats() const override {
    Stats out;
    out.connections_accepted =
        connections_accepted_.load(std::memory_order_relaxed);
    out.frames_received = frames_received_.load(std::memory_order_relaxed);
    out.frames_sent = frames_sent_.load(std::memory_order_relaxed);
    out.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
    out.send_queue_depth = queued_frames_.load(std::memory_order_relaxed);
    return out;
  }

 private:
  /// One queued outbound frame, scatter-gather form. Wire order:
  ///   header | payload | ext
  /// `sent` tracks progress through the concatenation.
  struct OutFrame {
    uint8_t header[kFrameHeaderSize];
    std::vector<uint8_t> payload;
    std::span<const uint8_t> ext;
    std::shared_ptr<const void> lease;
    size_t sent = 0;

    size_t size() const {
      return kFrameHeaderSize + payload.size() + ext.size();
    }
  };

  struct ConnState {
    Fd fd;
    FrameDecoder decoder;
    std::deque<OutFrame> out_queue;
    uint64_t unsent = 0;  // bytes in out_queue that no sendmsg took yet
    bool want_write = false;
    bool peer_half_closed = false;  // client sent FIN; drain replies first
    ConnState(Fd fd_in, size_t max_frame)
        : fd(std::move(fd_in)), decoder(max_frame) {}
  };

  void AcceptReady() {
    for (;;) {
      const int raw = ::accept4(listen_fd_.get(), nullptr, nullptr,
                                SOCK_NONBLOCK);
      if (raw < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        JBS_WARN << "accept: " << std::strerror(errno);
        return;
      }
      const ConnId id = backlog_.Open();
      if (id == 0) {
        JBS_WARN << "accept: connection limit reached";
        Fd refused(raw);  // closed on scope exit
        continue;
      }
      (void)SetNoDelay(raw);
      auto [it, inserted] = conns_.emplace(
          id, ConnState(Fd(raw), options_.max_frame_bytes));
      Status st = loop_.Add(it->second.fd.get(), /*read=*/true,
                            /*write=*/false, [this, id](uint32_t events) {
                              OnConnEvent(id, events);
                            });
      if (!st.ok()) {
        conns_.erase(it);
        backlog_.Close(id);
        continue;
      }
      connections_accepted_.fetch_add(1, std::memory_order_relaxed);
      if (handlers_.on_connect) handlers_.on_connect(id);
    }
  }

  void OnConnEvent(ConnId id, uint32_t events) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    if ((events & EventLoop::kError) != 0) {
      CloseConn(id);
      return;
    }
    if ((events & EventLoop::kReadable) != 0 && !ReadReady(id)) return;
    if ((events & EventLoop::kWritable) != 0) FlushWrites(id);
  }

  /// Returns false if the connection was closed.
  bool ReadReady(ConnId id) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return false;
    ConnState& state = it->second;
    // A request's reply will queue behind what the wire still holds: sample
    // that before the handler sees the request. The request's segment has
    // acknowledged every byte the peer received, so a peer that keeps up
    // reads 0 here.
    SampleBacklog(id, state);
    uint8_t chunk[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(state.fd.get(), chunk, sizeof(chunk), 0);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        CloseConn(id);
        return false;
      }
      if (n == 0) {
        // FIN from the peer. A half-closed client (shutdown(SHUT_WR)) is
        // still reading: drain the queued replies before closing rather
        // than dropping them on the floor.
        if (state.out_queue.empty()) {
          CloseConn(id);
          return false;
        }
        state.peer_half_closed = true;
        state.want_write = true;
        loop_.Modify(state.fd.get(), /*read=*/false, /*write=*/true);
        return true;
      }
      if (!state.decoder.Feed({chunk, static_cast<size_t>(n)}).ok()) {
        CloseConn(id);
        return false;
      }
      while (auto frame = state.decoder.Next()) {
        frames_received_.fetch_add(1, std::memory_order_relaxed);
        if (handlers_.on_frame) handlers_.on_frame(id, std::move(*frame));
        // The handler may have closed this connection.
        if (conns_.find(id) == conns_.end()) return false;
      }
      if (state.decoder.poisoned()) {
        CloseConn(id);
        return false;
      }
    }
    return true;
  }

  /// Appends frame's unsent slices to `iov`.
  static void Gather(const OutFrame& frame, iovec* iov, int& cnt) {
    size_t pos = 0;
    const std::span<const uint8_t> parts[] = {
        {frame.header, kFrameHeaderSize}, frame.payload, frame.ext};
    for (const auto& part : parts) {
      if (cnt >= kFlushIovecs) break;
      const size_t end = pos + part.size();
      if (frame.sent < end && !part.empty()) {
        const size_t skip = frame.sent > pos ? frame.sent - pos : 0;
        iov[cnt].iov_base = const_cast<uint8_t*>(part.data() + skip);
        iov[cnt].iov_len = part.size() - skip;
        ++cnt;
      }
      pos = end;
    }
  }

  /// Streams queued frames out until the queue drains or the socket
  /// would block: each round gathers unsent slices across frames into one
  /// sendmsg(2), then retires the frames it completed.
  void FlushWrites(ConnId id) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    ConnState& state = it->second;
    while (!state.out_queue.empty()) {
      iovec iov[kFlushIovecs];
      int cnt = 0;
      for (const OutFrame& frame : state.out_queue) {
        Gather(frame, iov, cnt);
        if (cnt >= kFlushIovecs) break;
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = static_cast<size_t>(cnt);
      const ssize_t n =
          ::sendmsg(state.fd.get(), &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        // EINTR: nothing was transferred (sendmsg is all-or-error per
        // call); loop and regather — `sent` is untouched, so no byte is
        // double-counted and the connection must not be failed.
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        CloseConn(id);
        return;
      }
      bytes_sent_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
      state.unsent -= static_cast<uint64_t>(n);
      // Advance `sent` across the queue and retire finished frames.
      size_t written = static_cast<size_t>(n);
      while (written > 0 && !state.out_queue.empty()) {
        OutFrame& front = state.out_queue.front();
        const size_t take = std::min(written, front.size() - front.sent);
        front.sent += take;
        written -= take;
        if (front.sent < front.size()) break;
        state.out_queue.pop_front();
        queued_frames_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    if (state.out_queue.empty() && state.peer_half_closed) {
      // Replies drained to a half-closed peer: now the connection is done.
      CloseConn(id);
      return;
    }
    // A socket that would block is the wire falling behind: tell the disk
    // threads now rather than at the next request.
    if (state.unsent > 0) SampleBacklog(id, state);
    const bool need_write = !state.out_queue.empty();
    if (need_write != state.want_write) {
      state.want_write = need_write;
      loop_.Modify(state.fd.get(), /*read=*/!state.peer_half_closed,
                        /*write=*/need_write);
    }
  }

  /// Publishes `id`'s backlog for Backlog(): the bytes written to the
  /// socket that the peer has not acknowledged, plus the bytes the last
  /// flush left queued because the socket would block. Frames the loop
  /// has not tried to write yet are not counted: it writes them within
  /// its next turn, so they say nothing about the wire.
  void SampleBacklog(ConnId id, const ConnState& state) {
    backlog_.Set(id, UnackedSendBytes(state.fd.get()) + state.unsent);
  }

  void CloseConn(ConnId id) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    queued_frames_.fetch_sub(it->second.out_queue.size(),
                             std::memory_order_relaxed);
    loop_.Remove(it->second.fd.get());
    backlog_.Close(id);
    conns_.erase(it);  // queued OutFrames die here, releasing leases
    if (handlers_.on_disconnect) handlers_.on_disconnect(id);
  }

  const TcpTransportOptions options_;
  Handlers handlers_;
  EventLoop loop_;
  // Loop thread only.
  std::unordered_map<ConnId, ConnState> conns_;
  Fd listen_fd_;
  uint16_t port_ = 0;
  // Relaxed atomics so stats() can read them off the loop thread.
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> frames_sent_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  // Frames enqueued but not fully written.
  std::atomic<uint64_t> queued_frames_{0};
  std::atomic<bool> stopped_{false};
  // Mints connection ids; the loop thread samples their backlogs and any
  // thread reads them.
  BacklogTable backlog_;
};

class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(TcpTransportOptions options) : options_(options) {}

  std::string name() const override { return "tcp"; }

  StatusOr<std::unique_ptr<ServerEndpoint>> CreateServer() override {
    return std::unique_ptr<ServerEndpoint>(
        std::make_unique<TcpServerEndpoint>(options_));
  }

  using Transport::Connect;
  StatusOr<std::unique_ptr<Connection>> Connect(
      const std::string& host, uint16_t port,
      const Deadline& deadline) override {
    auto fd = ConnectTcp(host, port, deadline);
    JBS_RETURN_IF_ERROR(fd.status());
    return std::unique_ptr<Connection>(std::make_unique<TcpConnection>(
        std::move(fd).value(), options_.max_frame_bytes));
  }

 private:
  const TcpTransportOptions options_;
};

}  // namespace

std::unique_ptr<Transport> MakeTcpTransport(TcpTransportOptions options) {
  return std::make_unique<TcpTransport>(options);
}

}  // namespace jbs::net
