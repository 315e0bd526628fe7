#include "transport/rdma_transport.h"

#include <atomic>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "common/blocking_queue.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "transport/backlog.h"
#include "transport/soft_rdma.h"

namespace jbs::net {

namespace {

using verbs::CmEvent;
using verbs::CmEventType;
using verbs::CompletionQueue;
using verbs::EventChannel;
using verbs::MemoryRegion;
using verbs::ProtectionDomain;
using verbs::QueuePair;
using verbs::RdmaServer;
using verbs::WcOpcode;
using verbs::WcStatus;
using verbs::WorkCompletion;

/// Registered+posted receive buffer ring for one queue pair.
class RecvRing {
 public:
  RecvRing(ProtectionDomain* pd, size_t buffer_size, size_t count)
      : buffer_size_(buffer_size),
        arena_(new uint8_t[buffer_size * count]) {
    regions_.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      regions_.push_back(
          pd->Register(arena_.get() + i * buffer_size, buffer_size));
    }
  }

  Status PostAll(QueuePair* qp) {
    for (size_t i = 0; i < regions_.size(); ++i) {
      JBS_RETURN_IF_ERROR(qp->PostRecv(static_cast<uint64_t>(i), regions_[i]));
    }
    return Status::Ok();
  }

  Status Repost(QueuePair* qp, uint64_t wr_id) {
    return qp->PostRecv(wr_id, regions_[static_cast<size_t>(wr_id)]);
  }

  const MemoryRegion& region(uint64_t wr_id) const {
    return regions_[static_cast<size_t>(wr_id)];
  }

  size_t buffer_size() const { return buffer_size_; }

 private:
  size_t buffer_size_;
  std::unique_ptr<uint8_t[]> arena_;
  std::vector<MemoryRegion> regions_;
};

class RdmaConnection final : public Connection {
 public:
  RdmaConnection(std::unique_ptr<QueuePair> qp,
                 std::unique_ptr<ProtectionDomain> pd,
                 std::unique_ptr<CompletionQueue> send_cq,
                 std::unique_ptr<CompletionQueue> recv_cq,
                 std::unique_ptr<RecvRing> ring)
      : pd_(std::move(pd)),
        send_cq_(std::move(send_cq)),
        recv_cq_(std::move(recv_cq)),
        ring_(std::move(ring)),
        qp_(std::move(qp)) {}

  ~RdmaConnection() override { Close(); }

  Status Send(const Frame& frame, const Deadline& deadline) override
      EXCLUDES(send_mu_) {
    if (frame.payload_size() > ring_->buffer_size()) {
      return InvalidArgument("frame exceeds transport buffer size");
    }
    MutexLock lock(send_mu_);
    // Gather: owned head + borrowed ext go out in one vectored write.
    JBS_RETURN_IF_ERROR(qp_->PostSend(next_send_wr_++, frame.type,
                                      frame.payload, frame.ext));
    auto wc = send_cq_->WaitPoll(deadline);
    if (!wc) {
      if (deadline.expired()) return DeadlineExceeded("send completion wait");
      return Unavailable("send completion failed");
    }
    if (wc->status != WcStatus::kSuccess) {
      return Unavailable("send completion failed");
    }
    return Status::Ok();
  }

  StatusOr<Frame> Receive(const Deadline& deadline) override {
    return ReceivePlaced(0, nullptr, deadline);
  }

  StatusOr<Frame> ReceivePlaced(size_t head_len, const Placement& place,
                                const Deadline& deadline) override {
    auto wc = recv_cq_->WaitPoll(deadline);
    if (!wc) {
      if (deadline.expired()) {
        return DeadlineExceeded("receive completion wait");
      }
      return Unavailable("connection shut down");
    }
    if (wc->status == WcStatus::kFlushed) {
      return Unavailable("peer closed");
    }
    if (wc->status != WcStatus::kSuccess) {
      return IoError("receive completion error");
    }
    Frame frame;
    frame.type = wc->msg_type;
    const MemoryRegion& mr = ring_->region(wc->wr_id);
    const std::span<const uint8_t> message(mr.addr, wc->byte_len);
    // Receive in place: one copy from the posted region straight into the
    // caller's storage, instead of into an owned payload and on from there.
    std::span<uint8_t> tail;
    if (place && message.size() > head_len) {
      const size_t tail_len = message.size() - head_len;
      tail = place(frame.type, message.first(head_len), tail_len);
      if (tail.size() != tail_len) tail = {};
    }
    if (!tail.empty()) {
      frame.payload.assign(message.begin(), message.begin() + head_len);
      std::memcpy(tail.data(), message.data() + head_len, tail.size());
      frame.ext = tail;
    } else {
      frame.payload.assign(message.begin(), message.end());
    }
    JBS_RETURN_IF_ERROR(ring_->Repost(qp_.get(), wc->wr_id));
    return frame;
  }

  void Close() override {
    if (closed_.exchange(true)) return;
    qp_->Disconnect();
    send_cq_->Shutdown();
    recv_cq_->Shutdown();
  }

  bool alive() const override {
    return !closed_ && qp_->state() == QueuePair::State::kRts;
  }
  uint64_t bytes_sent() const override { return qp_->bytes_sent(); }
  uint64_t bytes_received() const override { return qp_->bytes_received(); }

 private:
  std::unique_ptr<ProtectionDomain> pd_;
  std::unique_ptr<CompletionQueue> send_cq_;
  std::unique_ptr<CompletionQueue> recv_cq_;
  std::unique_ptr<RecvRing> ring_;
  std::unique_ptr<QueuePair> qp_;
  Mutex send_mu_;  // one in-flight send at a time (post + completion wait)
  uint64_t next_send_wr_ GUARDED_BY(send_mu_) = 1;
  std::atomic<bool> closed_{false};
};

class RdmaServerEndpoint final : public ServerEndpoint {
 public:
  explicit RdmaServerEndpoint(RdmaTransportOptions options)
      : options_(options), server_(&channel_) {}

  ~RdmaServerEndpoint() override { Stop(); }

  Status Start(Handlers handlers) override {
    handlers_ = std::move(handlers);
    JBS_RETURN_IF_ERROR(server_.Listen());
    running_.store(true);
    cm_thread_ = std::thread([this] { CmLoop(); });
    recv_thread_ = std::thread([this] { RecvLoop(); });
    send_thread_ = std::thread([this] { SendLoop(); });
    return Status::Ok();
  }

  uint16_t port() const override { return server_.port(); }

  Status SendAsync(ConnId conn, Frame frame) override {
    if (frame.payload_size() > options_.buffer_size) {
      return InvalidArgument("frame exceeds transport buffer size");
    }
    // The frame (and any buffer lease it carries) travels through the
    // queue; the lease drops after the send thread's synchronous PostSend
    // returns — or when the queue drains at Stop().
    if (!send_queue_.Push({conn, std::move(frame)})) {
      return Unavailable("endpoint stopped");
    }
    return Status::Ok();
  }

  uint64_t Backlog(ConnId conn) const override { return backlog_.Get(conn); }

  void Stop() override {
    if (!running_.exchange(false)) return;
    server_.Stop();
    channel_.Shutdown();
    send_queue_.Close();
    recv_cq_.Shutdown();
    send_cq_.Shutdown();
    if (cm_thread_.joinable()) cm_thread_.join();
    if (send_thread_.joinable()) send_thread_.join();
    if (recv_thread_.joinable()) recv_thread_.join();
    {
      MutexLock lock(mu_);
      conns_.clear();
    }
    backlog_.CloseAll();
  }

  Stats stats() const override EXCLUDES(stats_mu_) {
    MutexLock lock(stats_mu_);
    Stats out = stats_;
    out.send_queue_depth = send_queue_.size();
    return out;
  }

 private:
  struct ConnState {
    ConnId id;
    // shared_ptr: the send thread keeps the QP alive across a PostSend even
    // if the recv thread drops the connection concurrently.
    std::shared_ptr<QueuePair> qp;
    std::unique_ptr<RecvRing> ring;
  };

  // wr_id layout for the shared recv CQ: high bits = the connection's key,
  // low = buffer. The key is the id's low 44 bits: its backlog slot and
  // the low bits of its sequence number, so no two open connections share
  // one, and conns_ is keyed by it. Every lookup by ConnId then checks the
  // full id (FindLocked); one by wr_id can only be stale if its slot was
  // reopened 2^28 times since the receive was posted.
  static constexpr uint64_t kBufferBits = 20;
  static uint64_t WrKey(ConnId conn) {
    return conn & ((1ull << (64 - kBufferBits)) - 1);
  }
  static uint64_t MakeWr(ConnId conn, uint64_t buffer) {
    return (WrKey(conn) << kBufferBits) | buffer;
  }
  static uint64_t WrConnKey(uint64_t wr) { return wr >> kBufferBits; }
  static uint64_t WrBuffer(uint64_t wr) {
    return wr & ((1ull << kBufferBits) - 1);
  }

  ConnState* FindLocked(ConnId conn) REQUIRES(mu_) {
    auto it = conns_.find(WrKey(conn));
    return it == conns_.end() || it->second.id != conn ? nullptr
                                                       : &it->second;
  }

  void CmLoop() {
    // The paper's "additional thread managing network events": services
    // the RDMA event channel, accepting connection requests.
    while (running_.load()) {
      auto event = channel_.WaitEvent();
      if (!event) return;
      if (event->type != CmEventType::kConnectRequest) continue;
      const ConnId id = backlog_.Open();
      if (id == 0) {
        JBS_WARN << "rdma_accept: connection limit reached";
        (void)server_.Reject(event->request_id);
        continue;
      }
      auto qp = server_.Accept(event->request_id, &pd_, &send_cq_, &recv_cq_,
                               options_.max_message_bytes);
      if (!qp.ok()) {
        JBS_WARN << "rdma_accept failed: " << qp.status().ToString();
        backlog_.Close(id);
        continue;
      }
      auto ring = std::make_unique<RecvRing>(&pd_, options_.buffer_size,
                                             options_.buffers_per_connection);
      std::shared_ptr<QueuePair> accepted = std::move(qp).value();
      RecvRing* ring_ptr = ring.get();
      // Register the connection before posting: the QP's receiver is
      // already live, so a completion can reach RecvLoop the instant a
      // buffer is posted — if the conn isn't in the map yet, that first
      // request frame would be dropped and its buffer never reposted,
      // leaving the client blocked forever. Post under the same lock, so
      // a DropConn for an early disconnect cannot free the ring mid-post.
      bool ok = true;
      {
        MutexLock lock(mu_);
        conns_[WrKey(id)] = ConnState{id, accepted, std::move(ring)};
        // Post with conn-qualified wr_ids into the shared CQ.
        for (size_t i = 0; ok && i < options_.buffers_per_connection; ++i) {
          ok = accepted->PostRecv(MakeWr(id, i), ring_ptr->region(i)).ok();
        }
        if (!ok) conns_.erase(WrKey(id));
      }
      if (!ok) {
        backlog_.Close(id);
        continue;
      }
      {
        MutexLock lock(stats_mu_);
        ++stats_.connections_accepted;
      }
      if (handlers_.on_connect) handlers_.on_connect(id);
    }
  }

  void RecvLoop() {
    while (running_.load()) {
      auto wc = recv_cq_.WaitPoll();
      if (!wc) return;
      const uint64_t key = WrConnKey(wc->wr_id);
      if (wc->opcode != WcOpcode::kRecv) continue;
      if (wc->status == WcStatus::kFlushed) {
        DropConn(key);
        continue;
      }
      if (wc->status != WcStatus::kSuccess) {
        DropConn(key);
        continue;
      }
      Frame frame;
      frame.type = wc->msg_type;
      ConnId id = 0;
      {
        MutexLock lock(mu_);
        auto it = conns_.find(key);
        if (it == conns_.end()) continue;
        id = it->second.id;
        const MemoryRegion& mr =
            it->second.ring->region(WrBuffer(wc->wr_id));
        frame.payload.assign(mr.addr, mr.addr + wc->byte_len);
        it->second.qp->PostRecv(wc->wr_id,
                                it->second.ring->region(WrBuffer(wc->wr_id)));
        // A request reads the backlog its reply will find: sample it
        // before the handler sees the request.
        backlog_.Set(id, it->second.qp->unacked_send_bytes());
      }
      {
        MutexLock lock(stats_mu_);
        ++stats_.frames_received;
      }
      if (handlers_.on_frame) handlers_.on_frame(id, std::move(frame));
    }
  }

  void SendLoop() {
    for (;;) {
      auto item = send_queue_.Pop();
      if (!item) return;
      auto& [conn, frame] = *item;
      std::shared_ptr<QueuePair> qp;
      {
        MutexLock lock(mu_);
        ConnState* state = FindLocked(conn);
        if (state == nullptr) continue;
        qp = state->qp;
      }
      if (qp->PostSend(next_send_wr_++, frame.type, frame.payload,
                       frame.ext)
              .ok()) {
        MutexLock slock(stats_mu_);
        ++stats_.frames_sent;
        stats_.bytes_sent += frame.payload_size();
      }
      send_cq_.Poll();  // drain send completions
    }
  }

  /// Drops the connection whose wr_id key is `key`.
  void DropConn(uint64_t key) {
    std::shared_ptr<QueuePair> dying;
    ConnId id = 0;
    {
      MutexLock lock(mu_);
      auto it = conns_.find(key);
      if (it == conns_.end()) return;
      id = it->second.id;
      dying = std::move(it->second.qp);
      conns_.erase(it);
    }
    backlog_.Close(id);
    dying->Disconnect();
    // Do not join here: DropConn runs on the recv thread, and ~QueuePair
    // joins its receiver thread, which is safe (different thread).
    dying.reset();
    if (handlers_.on_disconnect) handlers_.on_disconnect(id);
  }

  RdmaTransportOptions options_;
  Handlers handlers_;
  EventChannel channel_;
  RdmaServer server_;
  ProtectionDomain pd_;
  CompletionQueue send_cq_;
  CompletionQueue recv_cq_;

  std::atomic<bool> running_{false};
  std::thread cm_thread_;
  std::thread recv_thread_;
  std::thread send_thread_;
  BlockingQueue<std::pair<ConnId, Frame>> send_queue_;
  // Mints connection ids; the recv thread samples their backlogs and any
  // thread reads them.
  BacklogTable backlog_;
  std::atomic<uint64_t> next_send_wr_{1};

  mutable Mutex mu_;
  // Keyed by WrKey(id).
  std::unordered_map<uint64_t, ConnState> conns_ GUARDED_BY(mu_);
  mutable Mutex stats_mu_;
  Stats stats_ GUARDED_BY(stats_mu_);
};

class SoftRdmaTransport final : public Transport {
 public:
  explicit SoftRdmaTransport(RdmaTransportOptions options)
      : options_(options) {}

  std::string name() const override { return "soft-rdma"; }

  StatusOr<std::unique_ptr<ServerEndpoint>> CreateServer() override {
    return std::unique_ptr<ServerEndpoint>(
        std::make_unique<RdmaServerEndpoint>(options_));
  }

  using Transport::Connect;
  StatusOr<std::unique_ptr<Connection>> Connect(
      const std::string& host, uint16_t port,
      const Deadline& deadline) override {
    auto pd = std::make_unique<ProtectionDomain>();
    auto send_cq = std::make_unique<CompletionQueue>();
    auto recv_cq = std::make_unique<CompletionQueue>();
    auto qp = verbs::RdmaConnect(host, port, pd.get(), send_cq.get(),
                                 recv_cq.get(), deadline,
                                 options_.max_message_bytes);
    JBS_RETURN_IF_ERROR(qp.status());
    auto ring = std::make_unique<RecvRing>(pd.get(), options_.buffer_size,
                                           options_.buffers_per_connection);
    JBS_RETURN_IF_ERROR(ring->PostAll(qp->get()));
    return std::unique_ptr<Connection>(std::make_unique<RdmaConnection>(
        std::move(qp).value(), std::move(pd), std::move(send_cq),
        std::move(recv_cq), std::move(ring)));
  }

 private:
  RdmaTransportOptions options_;
};

}  // namespace

std::unique_ptr<Transport> MakeSoftRdmaTransport(
    RdmaTransportOptions options) {
  return std::make_unique<SoftRdmaTransport>(options);
}

}  // namespace jbs::net
