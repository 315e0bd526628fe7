#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "common/framing.h"
#include "transport/socket_util.h"
#include "transport/transport.h"

namespace jbs::net {
namespace {

Frame MakeFrame(uint8_t type, const std::string& payload) {
  Frame f;
  f.type = type;
  f.payload.assign(payload.begin(), payload.end());
  return f;
}

std::string PayloadStr(const Frame& f) {
  return {f.payload.begin(), f.payload.end()};
}

class TcpTransportTest : public ::testing::Test {
 protected:
  void SetUp() override { transport_ = MakeTcpTransport(); }
  std::unique_ptr<Transport> transport_;
};

TEST_F(TcpTransportTest, EchoServerRoundTrip) {
  auto server = transport_->CreateServer();
  ASSERT_TRUE(server.ok());
  ServerEndpoint::Handlers handlers;
  handlers.on_frame = [&](ConnId conn, Frame frame) {
    frame.type += 1;  // transform so we know the server saw it
    ASSERT_TRUE((*server)->SendAsync(conn, std::move(frame)).ok());
  };
  ASSERT_TRUE((*server)->Start(handlers).ok());
  ASSERT_NE((*server)->port(), 0);

  auto conn = transport_->Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE((*conn)->Send(MakeFrame(7, "hello shuffle")).ok());
  auto reply = (*conn)->Receive();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, 8);
  EXPECT_EQ(PayloadStr(*reply), "hello shuffle");
  (*server)->Stop();
}

TEST_F(TcpTransportTest, ManyFramesInOrder) {
  auto server = transport_->CreateServer();
  ASSERT_TRUE(server.ok());
  ServerEndpoint::Handlers handlers;
  handlers.on_frame = [&](ConnId conn, Frame frame) {
    (*server)->SendAsync(conn, std::move(frame));
  };
  ASSERT_TRUE((*server)->Start(handlers).ok());
  auto conn = transport_->Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(conn.ok());
  constexpr int kFrames = 200;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE((*conn)->Send(MakeFrame(1, "msg_" + std::to_string(i))).ok());
  }
  for (int i = 0; i < kFrames; ++i) {
    auto reply = (*conn)->Receive();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(PayloadStr(*reply), "msg_" + std::to_string(i));
  }
  (*server)->Stop();
}

TEST_F(TcpTransportTest, LargeFrame) {
  auto server = transport_->CreateServer();
  ASSERT_TRUE(server.ok());
  ServerEndpoint::Handlers handlers;
  handlers.on_frame = [&](ConnId conn, Frame frame) {
    (*server)->SendAsync(conn, std::move(frame));
  };
  ASSERT_TRUE((*server)->Start(handlers).ok());
  auto conn = transport_->Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(conn.ok());
  Frame big;
  big.type = 3;
  big.payload.resize(4 << 20);
  for (size_t i = 0; i < big.payload.size(); ++i) {
    big.payload[i] = static_cast<uint8_t>(i * 31);
  }
  ASSERT_TRUE((*conn)->Send(big).ok());
  auto reply = (*conn)->Receive();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->payload, big.payload);
  (*server)->Stop();
}

TEST_F(TcpTransportTest, MultipleConcurrentClients) {
  auto server = transport_->CreateServer();
  ASSERT_TRUE(server.ok());
  ServerEndpoint::Handlers handlers;
  handlers.on_frame = [&](ConnId conn, Frame frame) {
    (*server)->SendAsync(conn, std::move(frame));
  };
  ASSERT_TRUE((*server)->Start(handlers).ok());

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto conn = transport_->Connect("127.0.0.1", (*server)->port());
      if (!conn.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < 50; ++i) {
        const std::string msg =
            "c" + std::to_string(c) + "_m" + std::to_string(i);
        if (!(*conn)->Send(MakeFrame(2, msg)).ok()) {
          ++failures;
          return;
        }
        auto reply = (*conn)->Receive();
        if (!reply.ok() || PayloadStr(*reply) != msg) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ((*server)->stats().connections_accepted,
            static_cast<uint64_t>(kClients));
  (*server)->Stop();
}

TEST_F(TcpTransportTest, ServerSeesDisconnect) {
  auto server = transport_->CreateServer();
  ASSERT_TRUE(server.ok());
  std::promise<void> disconnected;
  ServerEndpoint::Handlers handlers;
  handlers.on_disconnect = [&](ConnId) { disconnected.set_value(); };
  ASSERT_TRUE((*server)->Start(handlers).ok());
  {
    auto conn = transport_->Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(conn.ok());
    (*conn)->Close();
  }
  auto fut = disconnected.get_future();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  (*server)->Stop();
}

TEST_F(TcpTransportTest, ConnectToClosedPortFails) {
  auto conn = transport_->Connect("127.0.0.1", 1);
  EXPECT_FALSE(conn.ok());
}

TEST_F(TcpTransportTest, ReceiveAfterServerStopFails) {
  auto server = transport_->CreateServer();
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start({}).ok());
  auto conn = transport_->Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(conn.ok());
  (*server)->Stop();
  auto frame = (*conn)->Receive();
  EXPECT_FALSE(frame.ok());
  EXPECT_FALSE((*conn)->alive());
}

TEST_F(TcpTransportTest, ByteCountersAdvance) {
  auto server = transport_->CreateServer();
  ASSERT_TRUE(server.ok());
  ServerEndpoint::Handlers handlers;
  handlers.on_frame = [&](ConnId conn, Frame frame) {
    (*server)->SendAsync(conn, std::move(frame));
  };
  ASSERT_TRUE((*server)->Start(handlers).ok());
  auto conn = transport_->Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE((*conn)->Send(MakeFrame(1, "12345")).ok());
  ASSERT_TRUE((*conn)->Receive().ok());
  EXPECT_EQ((*conn)->bytes_sent(), 5u + 5u);  // header + payload
  EXPECT_EQ((*conn)->bytes_received(), 10u);
  (*server)->Stop();
}

TEST_F(TcpTransportTest, HalfClosedPeerStillDrainsReplies) {
  // A client may shutdown(SHUT_WR) after its last request while still
  // reading replies. The server must drain queued output to the
  // half-closed peer before tearing the connection down, not treat the
  // EOF as a full disconnect.
  auto server = transport_->CreateServer();
  ASSERT_TRUE(server.ok());
  ServerEndpoint::Handlers handlers;
  handlers.on_frame = [&](ConnId conn, Frame frame) {
    (*server)->SendAsync(conn, std::move(frame));
  };
  ASSERT_TRUE((*server)->Start(handlers).ok());

  auto fd = ConnectTcp("127.0.0.1", (*server)->port());
  ASSERT_TRUE(fd.ok());
  constexpr int kRequests = 3;
  std::vector<uint8_t> wire;
  for (int i = 0; i < kRequests; ++i) {
    EncodeFrame(MakeFrame(static_cast<uint8_t>(i), "drain me"), wire);
  }
  ASSERT_TRUE(SendAll(fd->get(), wire).ok());
  // Half-close: no more requests, but we still expect every reply.
  ASSERT_EQ(::shutdown(fd->get(), SHUT_WR), 0);

  FrameDecoder decoder;
  int got = 0;
  uint8_t buf[256];
  while (got < kRequests) {
    const ssize_t n = ::recv(fd->get(), buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "server closed before draining replies";
    ASSERT_TRUE(decoder.Feed({buf, static_cast<size_t>(n)}).ok());
    while (auto frame = decoder.Next()) {
      EXPECT_EQ(frame->type, static_cast<uint8_t>(got));
      ++got;
    }
  }
  // After the drain the server closes its side: clean EOF, not a reset.
  const ssize_t eof = ::recv(fd->get(), buf, sizeof(buf), 0);
  EXPECT_EQ(eof, 0);
  (*server)->Stop();
}

bool WaitUntil(const std::function<bool()>& pred) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < give_up) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// Writes one frame straight onto a raw client socket: a request as the
/// endpoint sees it.
void SendRawFrame(int fd, uint8_t type) {
  Frame frame;
  frame.type = type;
  frame.payload.assign(16, type);
  uint8_t header[kFrameHeaderSize];
  EncodeFrameHeader(frame, header);
  ASSERT_TRUE(SendAll(fd, header).ok());
  ASSERT_TRUE(SendAll(fd, frame.payload).ok());
}

TEST_F(TcpTransportTest, BacklogCountsBytesThePeerHasNotReceived) {
  // A client that does not read lets the kernel take a few MiB at most
  // (its receive window only grows as it reads), so 16 MiB posted leaves
  // most of it queued in the endpoint behind a write that would block:
  // Backlog covers at least every byte no sendmsg has taken, returns to 0
  // once the client has read everything and sent a request, and drops to
  // 0 when the connection closes, or the endpoint stops, with bytes still
  // queued.
  auto server = transport_->CreateServer();
  ASSERT_TRUE(server.ok());
  ServerEndpoint& endpoint = **server;
  std::atomic<ConnId> peer{0};
  std::atomic<int> disconnects{0};
  std::atomic<int> requests{0};
  ServerEndpoint::Handlers handlers;
  handlers.on_connect = [&](ConnId id) { peer = id; };
  handlers.on_disconnect = [&](ConnId) { disconnects.fetch_add(1); };
  handlers.on_frame = [&](ConnId, Frame) { requests.fetch_add(1); };
  ASSERT_TRUE(endpoint.Start(handlers).ok());

  const auto dial = [&] {
    peer = 0;
    auto raw = ConnectTcp("127.0.0.1", endpoint.port());
    EXPECT_TRUE(raw.ok());
    EXPECT_TRUE(WaitUntil([&] { return peer.load() != 0; }));
    return std::move(raw).value();
  };
  constexpr size_t kFrames = 4;
  constexpr size_t kFrameBytes = 4 * 1024 * 1024;
  constexpr uint64_t kWireBytes = kFrames * (kFrameHeaderSize + kFrameBytes);
  const auto post = [&](ConnId id) {
    for (size_t i = 0; i < kFrames; ++i) {
      Frame frame;
      frame.type = 1;
      frame.payload.assign(kFrameBytes, static_cast<uint8_t>(i));
      ASSERT_TRUE(endpoint.SendAsync(id, std::move(frame)).ok());
    }
  };
  // Settled: the socket takes no more, so the flush path is parked.
  const auto settle = [&] {
    uint64_t sent = endpoint.stats().bytes_sent;
    for (int still = 0; still < 25;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(4));
      const uint64_t now = endpoint.stats().bytes_sent;
      still = now == sent ? still + 1 : 0;
      sent = now;
    }
    return sent;
  };

  Fd client = dial();
  const ConnId id = peer;
  EXPECT_EQ(endpoint.Backlog(id), 0u);
  post(id);
  const uint64_t taken = settle();
  ASSERT_LT(taken, kWireBytes);
  EXPECT_GE(endpoint.Backlog(id), kWireBytes - taken);
  EXPECT_LE(endpoint.Backlog(id), kWireBytes);

  std::vector<uint8_t> sink(kWireBytes);
  ASSERT_TRUE(RecvAll(client.get(), sink).ok());
  EXPECT_TRUE(WaitUntil([&] { return endpoint.stats().bytes_sent == kWireBytes; }));
  // The request acknowledges every byte the client read.
  SendRawFrame(client.get(), 2);
  ASSERT_TRUE(WaitUntil([&] { return requests.load() == 1; }));
  EXPECT_EQ(endpoint.Backlog(id), 0u);

  // Closed with bytes queued, on a fresh connection (the first one's
  // window has grown): the unread data makes the close a reset, so the
  // endpoint's next write fails and the connection closes.
  Fd second = dial();
  const ConnId second_id = peer;
  EXPECT_NE(second_id, id);
  post(second_id);
  settle();
  ASSERT_GT(endpoint.Backlog(second_id), 0u);
  second.Reset();
  ASSERT_TRUE(WaitUntil([&] { return disconnects.load() == 1; }));
  EXPECT_EQ(endpoint.Backlog(second_id), 0u);

  // Stopped with bytes queued.
  Fd third = dial();
  const ConnId third_id = peer;
  post(third_id);
  settle();
  ASSERT_GT(endpoint.Backlog(third_id), 0u);
  endpoint.Stop();
  EXPECT_EQ(endpoint.Backlog(third_id), 0u);
  EXPECT_EQ(endpoint.Backlog(id), 0u);
}

TEST_F(TcpTransportTest, BacklogSeesBytesTheSocketTookButThePeerDidNotGet) {
  // The kernel half of the signal. A client with a tiny receive buffer
  // that does not read: a reply the socket takes whole still waits in the
  // kernel, and the next request finds it there although no byte is left
  // in the endpoint's own queue. A frame the loop has not tried to write
  // yet is never counted, so a client that keeps up reads 0.
  auto server = transport_->CreateServer();
  ASSERT_TRUE(server.ok());
  ServerEndpoint& endpoint = **server;
  std::atomic<ConnId> peer{0};
  std::atomic<int> requests{0};
  std::atomic<uint64_t> backlog_at_request{~uint64_t{0}};
  ServerEndpoint::Handlers handlers;
  handlers.on_connect = [&](ConnId id) { peer = id; };
  handlers.on_frame = [&](ConnId id, Frame) {
    backlog_at_request = endpoint.Backlog(id);
    requests.fetch_add(1);
  };
  ASSERT_TRUE(endpoint.Start(handlers).ok());

  Fd client(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(client.valid());
  const int tiny = 1;  // the kernel rounds it up to its minimum
  ASSERT_EQ(::setsockopt(client.get(), SOL_SOCKET, SO_RCVBUF, &tiny,
                         sizeof(tiny)),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(client.get(), reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ASSERT_TRUE(WaitUntil([&] { return peer.load() != 0; }));
  const ConnId id = peer;

  // A client that keeps up: its request acknowledged everything.
  SendRawFrame(client.get(), 2);
  ASSERT_TRUE(WaitUntil([&] { return requests.load() == 1; }));
  EXPECT_EQ(backlog_at_request.load(), 0u);

  // 8 KiB fits the socket's send buffer but not the client's window.
  constexpr size_t kReplyBytes = 8 * 1024;
  Frame reply;
  reply.type = 1;
  reply.payload.assign(kReplyBytes, 0x33);
  ASSERT_TRUE(endpoint.SendAsync(id, std::move(reply)).ok());
  ASSERT_TRUE(WaitUntil([&] {
    return endpoint.stats().bytes_sent == kFrameHeaderSize + kReplyBytes;
  }));
  EXPECT_EQ(endpoint.stats().send_queue_depth, 0u);  // the socket took it
  SendRawFrame(client.get(), 2);
  ASSERT_TRUE(WaitUntil([&] { return requests.load() == 2; }));
  EXPECT_GT(backlog_at_request.load(), 0u);
  EXPECT_LE(backlog_at_request.load(), kFrameHeaderSize + kReplyBytes);

  // Once the client has read the reply, its next request finds 0.
  std::vector<uint8_t> sink(kFrameHeaderSize + kReplyBytes);
  ASSERT_TRUE(RecvAll(client.get(), sink).ok());
  SendRawFrame(client.get(), 2);
  ASSERT_TRUE(WaitUntil([&] { return requests.load() == 3; }));
  EXPECT_EQ(backlog_at_request.load(), 0u);
  endpoint.Stop();
}

}  // namespace
}  // namespace jbs::net
