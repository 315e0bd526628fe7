// SoftRdma: a software emulation of the verbs/rdma_cm API surface that JBS
// uses on InfiniBand and RoCE (§IV-A), faithful in *semantics* rather than
// speed: reliable-connection queue pairs, pre-posted receive buffers with
// direct data placement (payload lands in the registered buffer, no
// intermediate copy on the receive path), completion queues, and the
// rdma_cm connection-establishment state machine of Fig. 6
// (rdma_listen -> CONNECT_REQUEST -> rdma_accept -> ESTABLISHED on both
// ends). The wire underneath is a loopback TCP socket — the substitution
// documented in DESIGN.md; protocol-level costs are modelled in simnet.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "transport/deadline.h"
#include "transport/socket_util.h"

namespace jbs::net::verbs {

/// A registered memory region (ibv_mr analogue). Registration pins the
/// region in the protection domain; receives may only land in registered
/// memory.
struct MemoryRegion {
  uint8_t* addr = nullptr;
  size_t length = 0;
  uint32_t lkey = 0;
};

class ProtectionDomain {
 public:
  MemoryRegion Register(void* addr, size_t length) EXCLUDES(mu_);
  bool Owns(const MemoryRegion& mr) const EXCLUDES(mu_);
  /// Validates a remote-access request: does [addr, addr+length) sit
  /// inside the region registered under `rkey`?
  bool ValidateRemoteAccess(uint32_t rkey, const uint8_t* addr,
                            size_t length) const EXCLUDES(mu_);
  size_t registered_count() const EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  uint32_t next_lkey_ GUARDED_BY(mu_) = 1;
  std::unordered_map<uint32_t, std::pair<uint8_t*, size_t>> regions_
      GUARDED_BY(mu_);
};

enum class WcOpcode { kSend, kRecv, kRdmaRead };
enum class WcStatus {
  kSuccess,
  kFlushed,
  kLocalLengthError,
  kRemoteAccessError,  // RDMA READ outside the peer's registration
  kError,
};

struct WorkCompletion {
  uint64_t wr_id = 0;
  WcOpcode opcode = WcOpcode::kSend;
  WcStatus status = WcStatus::kSuccess;
  uint32_t byte_len = 0;
  uint8_t msg_type = 0;  // application tag carried with each message
};

class CompletionQueue {
 public:
  /// Nonblocking poll (ibv_poll_cq).
  std::optional<WorkCompletion> Poll() EXCLUDES(mu_);

  /// Blocks until a completion arrives or the CQ is shut down.
  JBS_BLOCKING std::optional<WorkCompletion> WaitPoll() EXCLUDES(mu_);

  /// Bounded wait: additionally returns nullopt once `deadline` passes
  /// (the completion-wait analogue of a hardware CQ poll timeout).
  /// Distinguish timeout from shutdown via deadline.expired().
  JBS_BLOCKING std::optional<WorkCompletion> WaitPoll(const Deadline& deadline)
      EXCLUDES(mu_);

  void Push(WorkCompletion wc) EXCLUDES(mu_);
  void Shutdown() EXCLUDES(mu_);
  size_t depth() const EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  CondVar cv_;
  std::deque<WorkCompletion> completions_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
};

/// Largest message a QueuePair accepts from the wire. The 4-byte length
/// prefix is peer-controlled; a message announcing more than this kills
/// the connection instead of allocating.
constexpr size_t kDefaultMaxMessageBytes = 64 * 1024 * 1024;

/// Reliable-connection queue pair over an established socket.
class QueuePair {
 public:
  enum class State { kRts, kError, kClosed };

  QueuePair(Fd socket, ProtectionDomain* pd, CompletionQueue* send_cq,
            CompletionQueue* recv_cq,
            size_t max_message_bytes = kDefaultMaxMessageBytes);
  ~QueuePair();

  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  /// Posts a receive buffer. Incoming messages are placed directly into
  /// posted buffers in FIFO order; a message larger than its buffer
  /// completes with kLocalLengthError. The region must be registered.
  Status PostRecv(uint64_t wr_id, MemoryRegion buffer);

  /// Sends a message; completion lands in the send CQ. Thread-safe.
  Status PostSend(uint64_t wr_id, uint8_t msg_type,
                  std::span<const uint8_t> payload);

  /// Gather variant: transmits head ++ tail as one message with vectored
  /// I/O — no intermediate copy. The spans need only stay valid for the
  /// duration of the call (the send is synchronous under the wire lock).
  Status PostSend(uint64_t wr_id, uint8_t msg_type,
                  std::span<const uint8_t> head,
                  std::span<const uint8_t> tail);

  /// One-sided RDMA READ: pulls `length` bytes from the peer's registered
  /// memory at (remote_addr, rkey) into `local` — no receive posted and no
  /// completion raised on the peer (its "CPU" stays out of the path, which
  /// is the whole point of the verb). Completion (WcOpcode::kRdmaRead)
  /// lands in the requester's send CQ, per verbs semantics. `local` must
  /// be at least `length` bytes and registered in this side's PD.
  Status PostRdmaRead(uint64_t wr_id, MemoryRegion local,
                      uint64_t remote_addr, uint32_t rkey, uint32_t length);

  /// Tears the connection down; pending receives flush with kFlushed.
  void Disconnect();

  State state() const;
  uint64_t bytes_sent() const { return bytes_sent_; }
  /// Sent bytes the peer has not acknowledged yet: a send completes once
  /// the socket takes it, so these are the QP's bytes still on the wire.
  uint64_t unacked_send_bytes() const {
    return UnackedSendBytes(socket_.get());
  }
  uint64_t bytes_received() const { return bytes_received_; }
  size_t posted_recvs() const;

 private:
  friend class RdmaServer;
  friend StatusOr<std::unique_ptr<QueuePair>> RdmaConnect(
      const std::string&, uint16_t, ProtectionDomain*, CompletionQueue*,
      CompletionQueue*, const Deadline&, size_t);

  void ReceiverLoop();
  struct PostedRecv {
    uint64_t wr_id;
    MemoryRegion buffer;
  };
  /// Blocks until a recv is posted or the QP dies.
  std::optional<PostedRecv> TakePostedRecv();
  /// Responder half of RDMA READ, run on the receiver thread.
  void HandleRdmaReadRequest(std::span<const uint8_t> request);
  /// Requester half: places the reply into the pending read's buffer.
  void HandleRdmaReadResponse(std::span<const uint8_t> response);

  Fd socket_;
  ProtectionDomain* pd_;
  CompletionQueue* send_cq_;
  CompletionQueue* recv_cq_;
  const size_t max_message_bytes_;

  mutable Mutex mu_;
  CondVar recv_posted_cv_;
  std::deque<PostedRecv> posted_recvs_ GUARDED_BY(mu_);
  State state_ GUARDED_BY(mu_) = State::kRts;

  /// Serializes writers of the socket byte stream (header + payload must
  /// not interleave); guards no member, only the wire.
  Mutex send_mu_;
  std::thread receiver_;
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};

  struct PendingRead {
    uint64_t wr_id;
    MemoryRegion local;
  };
  Mutex reads_mu_;
  std::unordered_map<uint64_t, PendingRead> pending_reads_
      GUARDED_BY(reads_mu_);
  uint64_t next_read_id_ GUARDED_BY(reads_mu_) = 1;
};

/// rdma_cm events (the subset Fig. 6 exercises).
enum class CmEventType {
  kConnectRequest,
  kEstablished,
  kDisconnected,
  kConnectError,
};

struct CmEvent {
  CmEventType type;
  uint64_t request_id = 0;  // for kConnectRequest: pass to Accept/Reject
};

/// Delivers connection-management events to the "additional thread
/// managing network events" the paper describes.
class EventChannel {
 public:
  std::optional<CmEvent> WaitEvent() EXCLUDES(mu_);
  std::optional<CmEvent> PollEvent() EXCLUDES(mu_);
  void Push(CmEvent event) EXCLUDES(mu_);
  void Shutdown() EXCLUDES(mu_);

 private:
  Mutex mu_;
  CondVar cv_;
  std::deque<CmEvent> events_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
};

/// Server half of Fig. 6: rdma_listen / CONNECT_REQUEST / rdma_accept.
class RdmaServer {
 public:
  explicit RdmaServer(EventChannel* channel) : channel_(channel) {}
  ~RdmaServer();

  /// rdma_listen(): binds 127.0.0.1 (0 = ephemeral port), starts the
  /// listener thread; connection requests surface on the event channel.
  Status Listen(uint16_t port = 0);
  uint16_t port() const { return port_; }

  /// rdma_accept(): completes the handshake for a pending request,
  /// allocating the connection (QP). Fires kEstablished on the channel.
  StatusOr<std::unique_ptr<QueuePair>> Accept(
      uint64_t request_id, ProtectionDomain* pd, CompletionQueue* send_cq,
      CompletionQueue* recv_cq,
      size_t max_message_bytes = kDefaultMaxMessageBytes);

  /// rdma_reject(): refuses a pending request.
  Status Reject(uint64_t request_id);

  void Stop();

 private:
  void ListenLoop();

  EventChannel* channel_;
  Fd listen_fd_;
  uint16_t port_ = 0;
  std::thread listener_;
  std::atomic<bool> running_{false};

  Mutex mu_;
  std::unordered_map<uint64_t, Fd> pending_
      GUARDED_BY(mu_);  // request_id -> socket
  uint64_t next_request_id_ GUARDED_BY(mu_) = 1;
};

/// Client half of Fig. 6: alloc conn + rdma_connect, blocking until the
/// accept-reply ("established" on both sides). Returns a ready QP. A
/// finite deadline bounds both the TCP dial and the accept-reply wait.
StatusOr<std::unique_ptr<QueuePair>> RdmaConnect(
    const std::string& host, uint16_t port, ProtectionDomain* pd,
    CompletionQueue* send_cq, CompletionQueue* recv_cq,
    const Deadline& deadline = Deadline(),
    size_t max_message_bytes = kDefaultMaxMessageBytes);

}  // namespace jbs::net::verbs
