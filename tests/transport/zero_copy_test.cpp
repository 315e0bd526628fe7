// Zero-copy serve path (DESIGN.md §13): vectored partial writes, buffer
// ownership handoff, and the inbound frame cap; and its receive-side
// twin, frames received in place into caller storage.
#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

#include "common/buffer_pool.h"
#include "common/bytes.h"
#include "common/framing.h"
#include "transport/fault_injection.h"
#include "transport/rdma_transport.h"
#include "transport/socket_util.h"
#include "transport/transport.h"

namespace jbs::net {
namespace {

std::vector<uint8_t> Pattern(size_t n, uint32_t seed = 1) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    seed = seed * 1664525u + 1013904223u;
    out[i] = static_cast<uint8_t>(seed >> 24);
  }
  return out;
}

/// Reads until `want` bytes or EOF/error; returns what arrived.
std::vector<uint8_t> DrainFd(int fd, size_t want) {
  std::vector<uint8_t> got;
  got.reserve(want);
  uint8_t buf[64 * 1024];
  while (got.size() < want) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    got.insert(got.end(), buf, buf + n);
  }
  return got;
}

bool WaitUntil(const std::function<bool()>& pred,
               std::chrono::milliseconds budget = std::chrono::seconds(5)) {
  const auto give_up = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < give_up) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// Heap-backed lease + ext view for endpoint-level zero-copy frames.
Frame ExtFrame(uint8_t type, std::vector<uint8_t> head,
               std::vector<uint8_t> tail) {
  Frame frame;
  frame.type = type;
  frame.payload = std::move(head);
  auto owned = std::make_shared<std::vector<uint8_t>>(std::move(tail));
  frame.ext = {owned->data(), owned->size()};
  frame.lease = std::shared_ptr<const void>(owned, owned->data());
  return frame;
}

// ---- SendAllV: partial-write resume across iovec boundaries -------------

TEST(SendAllVTest, PartialWritesReassembleByteIdentical) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  // A tiny send buffer forces every sendmsg to accept only a slice of the
  // gathered iovecs, so the resume logic has to restart mid-span and
  // mid-list many times over.
  const int tiny = 4096;
  ASSERT_EQ(::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny)),
            0);
  // Spans of wildly different sizes, with empties sprinkled between them.
  const std::vector<size_t> sizes = {5,  0,     1,       64 * 1024, 3, 0,
                                     17, 12345, 900'000, 2,         0, 77};
  std::vector<std::vector<uint8_t>> chunks;
  std::vector<std::span<const uint8_t>> spans;
  std::vector<uint8_t> expected;
  uint32_t seed = 7;
  for (size_t n : sizes) {
    chunks.push_back(Pattern(n, ++seed));
    spans.emplace_back(chunks.back());
    expected.insert(expected.end(), chunks.back().begin(),
                    chunks.back().end());
  }
  auto reader = std::async(std::launch::async,
                           [&] { return DrainFd(sv[1], expected.size()); });
  EXPECT_TRUE(SendAllV(sv[0], spans).ok());
  ::shutdown(sv[0], SHUT_WR);
  EXPECT_EQ(reader.get(), expected);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(SendAllVTest, AllEmptySpansIsANoOp) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::span<const uint8_t> spans[] = {{}, {}, {}};
  EXPECT_TRUE(SendAllV(sv[0], spans).ok());
  ::close(sv[0]);
  ::close(sv[1]);
}

// ---- Server endpoint: scatter-gather frames ------------------------------

class ZeroCopyEndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    transport_ = MakeTcpTransport();
    auto server = transport_->CreateServer();
    ASSERT_TRUE(server.ok());
    server_ = std::move(*server);
  }
  void TearDown() override {
    if (server_) server_->Stop();
  }
  std::unique_ptr<Transport> transport_;
  std::unique_ptr<ServerEndpoint> server_;
};

TEST_F(ZeroCopyEndpointTest, ExtFrameArrivesContiguousWithZeroCopies) {
  ServerEndpoint::Handlers handlers;
  std::atomic<ConnId> peer{0};
  handlers.on_connect = [&](ConnId id) { peer = id; };
  ASSERT_TRUE(server_->Start(handlers).ok());
  auto conn = transport_->Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(WaitUntil([&] { return peer.load() != 0; }));

  const std::vector<uint8_t> head = Pattern(32, 5);
  const std::vector<uint8_t> tail = Pattern(300'000, 6);
  const uint64_t copied_before = PayloadCopyBytes();
  ASSERT_TRUE(server_->SendAsync(peer, ExtFrame(9, head, tail)).ok());
  auto got = (*conn)->Receive();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->type, 9);
  ASSERT_EQ(got->payload.size(), head.size() + tail.size());
  EXPECT_TRUE(std::equal(head.begin(), head.end(), got->payload.begin()));
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(),
                         got->payload.begin() + head.size()));
  // The serve path's contract: no user-space copy of the payload anywhere
  // between SendAsync and the socket.
  EXPECT_EQ(PayloadCopyBytes(), copied_before);
}

TEST_F(ZeroCopyEndpointTest, ManyExtFramesInterleaveInOrder) {
  ServerEndpoint::Handlers handlers;
  std::atomic<ConnId> peer{0};
  handlers.on_connect = [&](ConnId id) { peer = id; };
  ASSERT_TRUE(server_->Start(handlers).ok());
  auto conn = transport_->Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(WaitUntil([&] { return peer.load() != 0; }));
  // A burst larger than the socket buffer: the flush path must gather
  // across frames, take partial writes, and resume in order.
  constexpr int kFrames = 64;
  std::vector<std::vector<uint8_t>> tails;
  for (int i = 0; i < kFrames; ++i) {
    tails.push_back(Pattern(128 * 1024, 100 + i));
    ASSERT_TRUE(
        server_
            ->SendAsync(peer, ExtFrame(static_cast<uint8_t>(i), {}, tails[i]))
            .ok());
  }
  for (int i = 0; i < kFrames; ++i) {
    auto got = (*conn)->Receive();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->type, static_cast<uint8_t>(i));
    EXPECT_EQ(got->payload, tails[i]);
  }
}

// ---- Buffer-ownership handoff: the lease returns exactly once ------------

TEST_F(ZeroCopyEndpointTest, PooledBufferReturnsAfterSend) {
  BufferPool pool(64 * 1024, 1);
  ServerEndpoint::Handlers handlers;
  std::atomic<ConnId> peer{0};
  handlers.on_connect = [&](ConnId id) { peer = id; };
  ASSERT_TRUE(server_->Start(handlers).ok());
  auto conn = transport_->Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(WaitUntil([&] { return peer.load() != 0; }));

  // Three serves through a one-buffer pool: each round must get the single
  // buffer back from the previous frame's lease, so a double-return or a
  // leak deadlocks or corrupts immediately.
  for (int round = 0; round < 3; ++round) {
    PooledBuffer buffer = pool.Acquire();
    ASSERT_TRUE(buffer.valid());
    const std::vector<uint8_t> data = Pattern(60'000, 50 + round);
    std::copy(data.begin(), data.end(), buffer.data());
    auto lease = MakeBufferLease(std::move(buffer));
    Frame frame;
    frame.type = static_cast<uint8_t>(round);
    frame.ext = {static_cast<const uint8_t*>(lease.get()), data.size()};
    ASSERT_TRUE(
        server_->SendAsync(peer, std::move(frame), std::move(lease)).ok());
    auto got = (*conn)->Receive();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->payload, data);
    ASSERT_TRUE(WaitUntil([&] { return pool.available() == 1; }))
        << "lease did not return the buffer after the send completed";
  }
}

TEST_F(ZeroCopyEndpointTest, QueuedLeasesReleaseWhenPeerDisconnects) {
  BufferPool pool(64 * 1024, 4);
  ServerEndpoint::Handlers handlers;
  std::atomic<ConnId> peer{0};
  handlers.on_connect = [&](ConnId id) { peer = id; };
  std::promise<void> gone;
  handlers.on_disconnect = [&](ConnId) { gone.set_value(); };
  ASSERT_TRUE(server_->Start(handlers).ok());
  // Raw client with a clamped receive buffer (clamping disables rcvbuf
  // autotuning), so loopback can hold at most sndbuf-max + a few KB.
  auto raw = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(raw.ok());
  const int tiny = 4096;
  (void)::setsockopt(raw->get(), SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  ASSERT_TRUE(WaitUntil([&] { return peer.load() != 0; }));

  // Fill the pipe past any plausible kernel buffering (tcp_wmem max is
  // 4MB here) so the lease-carrying frames behind it are guaranteed to
  // be parked in the endpoint's OutFrame queue, not in flight.
  for (int i = 0; i < 3; ++i) {
    Frame filler;
    filler.type = 0;
    filler.payload.assign(4 * 1024 * 1024, static_cast<uint8_t>(i));
    ASSERT_TRUE(server_->SendAsync(peer, std::move(filler)).ok());
  }
  // Queue frames against a client that never reads, then kill the
  // client: every parked frame's lease must drop.
  for (int i = 0; i < 4; ++i) {
    PooledBuffer buffer = pool.Acquire();
    ASSERT_TRUE(buffer.valid());
    auto lease = MakeBufferLease(std::move(buffer));
    Frame frame;
    frame.type = 1;
    frame.ext = {static_cast<const uint8_t*>(lease.get()), 64 * 1024};
    ASSERT_TRUE(
        server_->SendAsync(peer, std::move(frame), std::move(lease)).ok());
  }
  EXPECT_LT(pool.available(), 4u);
  raw->Reset();
  ASSERT_EQ(gone.get_future().wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  ASSERT_TRUE(WaitUntil([&] { return pool.available() == 4; }))
      << "disconnect must release every queued frame's lease exactly once";
}

TEST_F(ZeroCopyEndpointTest, QueuedLeasesReleaseOnServerStop) {
  BufferPool pool(64 * 1024, 4);
  ServerEndpoint::Handlers handlers;
  std::atomic<ConnId> peer{0};
  handlers.on_connect = [&](ConnId id) { peer = id; };
  ASSERT_TRUE(server_->Start(handlers).ok());
  auto conn = transport_->Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(WaitUntil([&] { return peer.load() != 0; }));
  for (int i = 0; i < 4; ++i) {
    PooledBuffer buffer = pool.Acquire();
    ASSERT_TRUE(buffer.valid());
    auto lease = MakeBufferLease(std::move(buffer));
    Frame frame;
    frame.type = 1;
    frame.ext = {static_cast<const uint8_t*>(lease.get()), 64 * 1024};
    ASSERT_TRUE(
        server_->SendAsync(peer, std::move(frame), std::move(lease)).ok());
  }
  server_->Stop();
  // Stop drops queued frames (and any pending loop tasks); the pool's
  // destructor asserts every buffer came home, so this must converge.
  ASSERT_TRUE(WaitUntil([&] { return pool.available() == 4; }));
  EXPECT_FALSE(server_->SendAsync(peer, Frame{}).ok());
}

// ---- Satellite: signals mid-syscall (EINTR) must be invisible ------------

/// Installs a no-op SIGUSR1 handler WITHOUT SA_RESTART (so every blocking
/// syscall in the target thread actually fails with EINTR) and pummels
/// `target` from a helper thread until destruction.
class SignalStorm {
 public:
  explicit SignalStorm(pthread_t target) {
    struct sigaction sa {};
    sa.sa_handler = [](int) {};
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // deliberately no SA_RESTART
    sigaction(SIGUSR1, &sa, &old_);
    thread_ = std::thread([this, target] {
      while (!stop_.load(std::memory_order_relaxed)) {
        pthread_kill(target, SIGUSR1);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }
  ~SignalStorm() {
    stop_.store(true);
    thread_.join();
    sigaction(SIGUSR1, &old_, nullptr);
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
  struct sigaction old_ {};
};

TEST(SendAllVTest, SignalStormDuringTinySndbufPushIsInvisible) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const int tiny = 4096;
  ASSERT_EQ(::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny)),
            0);
  // 2MB through a 4KB send buffer = thousands of blocking sendmsg calls,
  // each a fresh chance for a signal to land mid-syscall. The push must
  // neither fail nor skip/duplicate a byte.
  const std::vector<uint8_t> head = Pattern(12345, 31);
  const std::vector<uint8_t> tail = Pattern(2 * 1024 * 1024, 32);
  std::vector<uint8_t> expected = head;
  expected.insert(expected.end(), tail.begin(), tail.end());
  const std::span<const uint8_t> spans[] = {head, tail};
  auto reader = std::async(std::launch::async,
                           [&] { return DrainFd(sv[1], expected.size()); });
  {
    SignalStorm storm(pthread_self());
    EXPECT_TRUE(SendAllV(sv[0], spans).ok());
  }
  ::shutdown(sv[0], SHUT_WR);
  EXPECT_EQ(reader.get(), expected);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST_F(ZeroCopyEndpointTest, ServerFlushSurvivesSignalStorm) {
  // Regression for the FlushWrites EINTR contract: a signal interrupting
  // the gathered sendmsg must neither fail the connection nor
  // double-count bytes (jbs_serve_bytes_copied_total stays put; the
  // stream stays byte-identical).
  ServerEndpoint::Handlers handlers;
  std::atomic<ConnId> peer{0};
  std::atomic<int> disconnects{0};
  handlers.on_connect = [&](ConnId id) { peer = id; };
  handlers.on_disconnect = [&](ConnId) { disconnects.fetch_add(1); };
  ASSERT_TRUE(server_->Start(handlers).ok());

  // Raw client socket with a 32KB receive window — small enough that the
  // server-side flush takes partial writes and resumes hundreds of times,
  // large enough that reads free >= 2*MSS so window updates go out
  // immediately instead of riding the delayed-ACK timer.
  auto raw = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(raw.ok());
  const int tiny = 32 * 1024;
  // Best effort — even without it the storm still interrupts syscalls.
  (void)::setsockopt(raw->get(), SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  ASSERT_TRUE(WaitUntil([&] { return peer.load() != 0; }));

  // Block SIGUSR1 everywhere except the already-running endpoint loop
  // threads, then raise process-directed signals: delivery can only land
  // on the serve path.
  sigset_t usr1, prev;
  sigemptyset(&usr1);
  sigaddset(&usr1, SIGUSR1);
  ASSERT_EQ(pthread_sigmask(SIG_BLOCK, &usr1, &prev), 0);

  const uint64_t copied_before = PayloadCopyBytes();
  constexpr int kFrames = 24;
  std::vector<uint8_t> expected;
  struct sigaction sa {};
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  struct sigaction old_sa {};
  sigaction(SIGUSR1, &sa, &old_sa);
  std::atomic<bool> storm_stop{false};
  std::thread storm([&] {
    while (!storm_stop.load(std::memory_order_relaxed)) {
      ::kill(::getpid(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  // Mixed shapes: bare ext frames and owned-head + ext frames, so the
  // gather resumes mid-header, mid-head and mid-ext under fire.
  for (int i = 0; i < kFrames; ++i) {
    std::vector<uint8_t> head =
        i % 2 == 0 ? std::vector<uint8_t>{} : Pattern(4000 + i, 700 + i);
    std::vector<uint8_t> tail = Pattern(96 * 1024 + 64 * i, 500 + i);
    PutU32(expected, static_cast<uint32_t>(head.size() + tail.size()));
    expected.push_back(static_cast<uint8_t>(i));
    expected.insert(expected.end(), head.begin(), head.end());
    expected.insert(expected.end(), tail.begin(), tail.end());
    ASSERT_TRUE(server_
                    ->SendAsync(peer, ExtFrame(static_cast<uint8_t>(i),
                                               std::move(head),
                                               std::move(tail)))
                    .ok());
  }
  // This thread has SIGUSR1 blocked, so the drain itself is undisturbed.
  // Throttled 4KB reads hold the server at EAGAIN for the whole transfer,
  // so flush resumption keeps happening while signals rain down.
  std::vector<uint8_t> got;
  got.reserve(expected.size());
  {
    uint8_t buf[4096];
    while (got.size() < expected.size()) {
      const ssize_t n = ::read(raw->get(), buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      got.insert(got.end(), buf, buf + n);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  storm_stop.store(true);
  storm.join();
  sigaction(SIGUSR1, &old_sa, nullptr);
  pthread_sigmask(SIG_SETMASK, &prev, nullptr);

  ASSERT_EQ(got.size(), expected.size());
  EXPECT_TRUE(got == expected) << "stream corrupted under signal storm";
  EXPECT_EQ(disconnects.load(), 0)
      << "a mid-syscall signal must never fail the connection";
  EXPECT_EQ(PayloadCopyBytes(), copied_before)
      << "EINTR retries must not re-copy (double-count) payload bytes";
}

// ---- Inbound frame cap ---------------------------------------------------

TEST(FrameCapTest, TcpServerKillsOversizedInboundFrame) {
  auto transport = MakeTcpTransport({.max_frame_bytes = 1024});
  auto server = transport->CreateServer();
  ASSERT_TRUE(server.ok());
  std::atomic<int> frames{0};
  ServerEndpoint::Handlers handlers;
  handlers.on_frame = [&](ConnId, Frame) { frames.fetch_add(1); };
  ASSERT_TRUE((*server)->Start(handlers).ok());

  auto fd = ConnectTcp("127.0.0.1", (*server)->port());
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> header;
  PutU32(header, 1 << 20);  // announce 1MB against a 1KB cap
  header.push_back(1);
  ASSERT_TRUE(SendAll(fd->get(), header).ok());
  uint8_t buf[16];
  EXPECT_EQ(::recv(fd->get(), buf, sizeof(buf), 0), 0)
      << "server should close instead of allocating";
  EXPECT_EQ(frames.load(), 0);
  (*server)->Stop();
}

TEST(FrameCapTest, TcpClientRejectsOversizedInboundFrame) {
  auto small = MakeTcpTransport({.max_frame_bytes = 1024});
  auto big = MakeTcpTransport();  // server side: default cap
  auto server = big->CreateServer();
  ASSERT_TRUE(server.ok());
  ServerEndpoint::Handlers handlers;
  handlers.on_frame = [&](ConnId conn, Frame frame) {
    Frame reply;
    reply.type = 2;
    reply.payload.assign(4096, 0xab);
    (void)frame;
    (*server)->SendAsync(conn, std::move(reply));
  };
  ASSERT_TRUE((*server)->Start(handlers).ok());
  auto conn = small->Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE((*conn)->Send(Frame{}).ok());
  auto got = (*conn)->Receive();
  EXPECT_FALSE(got.ok());
  EXPECT_FALSE((*conn)->alive());
  (*server)->Stop();
}

TEST(FrameCapTest, RdmaReceiverKillsOversizedMessage) {
  RdmaTransportOptions sopts;
  sopts.buffer_size = 64 * 1024;
  sopts.max_message_bytes = 1024;  // cap below what the client will send
  auto server_transport = MakeSoftRdmaTransport(sopts);
  auto server = server_transport->CreateServer();
  ASSERT_TRUE(server.ok());
  std::atomic<int> frames{0};
  ServerEndpoint::Handlers handlers;
  handlers.on_frame = [&](ConnId, Frame) { frames.fetch_add(1); };
  ASSERT_TRUE((*server)->Start(handlers).ok());

  auto client_transport = MakeSoftRdmaTransport({.buffer_size = 64 * 1024});
  auto conn = client_transport->Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(conn.ok());
  Frame frame;
  frame.type = 1;
  frame.payload.assign(8 * 1024, 0x5a);
  // The send may succeed locally; the receiver must drop the connection
  // without delivering the frame.
  (void)(*conn)->Send(frame);
  auto got = (*conn)->Receive(Deadline::After(std::chrono::seconds(5)));
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(frames.load(), 0);
  (*server)->Stop();
}

// ---- Receive in place: a frame's tail lands in caller storage -----------

/// Echo server on one transport family: "tcp", "rdma", or "faults" (the
/// fault injector over TCP with no fault armed, forwarding placement).
class PlacedReceiveTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "rdma") {
      inner_ = MakeSoftRdmaTransport();
    } else {
      inner_ = MakeTcpTransport();
    }
    client_ = inner_.get();
    if (GetParam() == "faults") {
      faults_ = std::make_unique<FaultInjectingTransport>(inner_.get());
      client_ = faults_.get();
    }
    auto server = inner_->CreateServer();
    ASSERT_TRUE(server.ok());
    server_ = std::move(*server);
    ServerEndpoint::Handlers handlers;
    handlers.on_frame = [this](ConnId conn, Frame frame) {
      (void)server_->SendAsync(conn, std::move(frame));
    };
    ASSERT_TRUE(server_->Start(handlers).ok());
    auto conn = client_->Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(conn.ok());
    conn_ = std::move(*conn);
  }
  void TearDown() override {
    conn_.reset();
    if (server_) server_->Stop();
  }

  /// Echoes a frame carrying `payload` and receives the echo with a
  /// 32-byte head, asking `place` where the rest goes.
  StatusOr<Frame> EchoPlaced(const std::vector<uint8_t>& payload,
                             const Connection::Placement& place) {
    Frame frame;
    frame.type = 9;
    frame.payload = payload;
    JBS_RETURN_IF_ERROR(conn_->Send(frame));
    return conn_->ReceivePlaced(32, place,
                                Deadline::After(std::chrono::seconds(5)));
  }

  std::unique_ptr<Transport> inner_;
  std::unique_ptr<FaultInjectingTransport> faults_;
  Transport* client_ = nullptr;
  std::unique_ptr<ServerEndpoint> server_;
  std::unique_ptr<Connection> conn_;
};

TEST_P(PlacedReceiveTest, TailLandsInCallerStorage) {
  const std::vector<uint8_t> payload = Pattern(32 + 5000, 21);
  std::vector<uint8_t> storage(5000);
  int calls = 0;
  auto got = EchoPlaced(payload, [&](uint8_t type,
                                     std::span<const uint8_t> head,
                                     size_t tail_len) {
    ++calls;
    EXPECT_EQ(type, 9);
    EXPECT_TRUE(std::equal(head.begin(), head.end(), payload.begin()));
    EXPECT_EQ(head.size(), 32u);
    EXPECT_EQ(tail_len, 5000u);
    return std::span<uint8_t>(storage);
  });
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(got->type, 9);
  EXPECT_EQ(got->payload,
            std::vector<uint8_t>(payload.begin(), payload.begin() + 32));
  EXPECT_EQ(got->ext.data(), storage.data());
  EXPECT_EQ(got->ext.size(), storage.size());
  EXPECT_EQ(got->lease, nullptr);
  EXPECT_TRUE(std::equal(storage.begin(), storage.end(), payload.begin() + 32));
  EXPECT_EQ(got->payload_size(), payload.size());

  // The stream stays in step: the next frame arrives whole and owned.
  Frame next;
  next.type = 3;
  next.payload = Pattern(700, 22);
  ASSERT_TRUE(conn_->Send(next).ok());
  auto owned = conn_->Receive(Deadline::After(std::chrono::seconds(5)));
  ASSERT_TRUE(owned.ok());
  EXPECT_EQ(owned->payload, next.payload);
  EXPECT_TRUE(owned->ext.empty());
}

TEST_P(PlacedReceiveTest, DeclinedOrMisSizedPlacementArrivesOwned) {
  const std::vector<uint8_t> payload = Pattern(32 + 900, 23);
  for (const size_t offered : {size_t{0}, size_t{899}, size_t{900} + 1}) {
    std::vector<uint8_t> room(offered);
    auto got = EchoPlaced(payload, [&](uint8_t, std::span<const uint8_t>,
                                       size_t) {
      return std::span<uint8_t>(room);
    });
    ASSERT_TRUE(got.ok()) << offered;
    EXPECT_EQ(got->payload, payload) << offered;
    EXPECT_TRUE(got->ext.empty()) << offered;
  }
}

TEST_P(PlacedReceiveTest, FrameNoLongerThanTheHeadIsNeverPlaced) {
  for (const size_t size : {size_t{0}, size_t{20}, size_t{32}}) {
    const std::vector<uint8_t> payload = Pattern(size, 24);
    bool asked = false;
    auto got = EchoPlaced(payload, [&](uint8_t, std::span<const uint8_t>,
                                       size_t) {
      asked = true;
      return std::span<uint8_t>();
    });
    ASSERT_TRUE(got.ok()) << size;
    EXPECT_FALSE(asked) << size;
    EXPECT_EQ(got->payload, payload) << size;
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, PlacedReceiveTest,
                         ::testing::Values("tcp", "rdma", "faults"),
                         [](const auto& param) { return param.param; });

}  // namespace
}  // namespace jbs::net
