#include "transport/fault_injection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/failpoints.h"
#include "transport/transport.h"

namespace jbs::net {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoints::DisarmAll();
    inner_ = MakeTcpTransport();
    flaky_ = std::make_unique<FaultInjectingTransport>(inner_.get());
    auto server = inner_->CreateServer();
    ASSERT_TRUE(server.ok());
    server_ = std::move(server).value();
    ServerEndpoint::Handlers handlers;
    handlers.on_frame = [this](ConnId conn, Frame frame) {
      (void)server_->SendAsync(conn, std::move(frame));
    };
    ASSERT_TRUE(server_->Start(handlers).ok());
  }
  void TearDown() override {
    failpoints::DisarmAll();
    server_->Stop();
  }

  std::unique_ptr<Transport> inner_;
  std::unique_ptr<FaultInjectingTransport> flaky_;
  std::unique_ptr<ServerEndpoint> server_;
};

TEST_F(FaultInjectionTest, PassThroughWhenHealthy) {
  auto conn = flaky_->Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  Frame f;
  f.type = 1;
  f.payload = {1, 2, 3};
  ASSERT_TRUE((*conn)->Send(f).ok());
  auto reply = (*conn)->Receive();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->payload, f.payload);
  EXPECT_EQ(flaky_->name(), "tcp+faults");
}

TEST_F(FaultInjectionTest, FailsExactlyNConnects) {
  ASSERT_TRUE(failpoints::Arm("faults.connect", "eagain*2").ok());
  EXPECT_FALSE(flaky_->Connect("127.0.0.1", server_->port()).ok());
  EXPECT_FALSE(flaky_->Connect("127.0.0.1", server_->port()).ok());
  EXPECT_TRUE(flaky_->Connect("127.0.0.1", server_->port()).ok());
  EXPECT_EQ(failpoints::FireCount("faults.connect"), 2u);
  EXPECT_EQ(failpoints::HitCount("faults.connect"), 3u);
}

TEST_F(FaultInjectionTest, ChaosCorruptionFlipsExactlyOneBit) {
  flaky_->SetChaosSchedule({ChaosPhase{.ops = 1, .corrupt_prob = 1.0}}, 42);
  EXPECT_EQ(flaky_->chaos_seed(), 42u);
  auto conn = flaky_->Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  Frame f;
  f.type = 1;
  f.payload = {0x00, 0xff, 0x55, 0xaa};
  ASSERT_TRUE((*conn)->Send(f).ok());
  auto reply = (*conn)->Receive();
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->payload.size(), f.payload.size());
  int flipped_bits = 0;
  for (size_t i = 0; i < f.payload.size(); ++i) {
    flipped_bits += __builtin_popcount(reply->payload[i] ^ f.payload[i]);
  }
  EXPECT_EQ(flipped_bits, 1);  // a single bit-flip, like a real flaky link
  EXPECT_EQ(flaky_->chaos_corruptions(), 1);
}

TEST_F(FaultInjectionTest, ChaosCorruptionReachesPlacedBytes) {
  // A frame received in place keeps most of its bytes in caller storage:
  // the flip must be able to land there, or chaos would stop covering the
  // placed receive path.
  constexpr int kOps = 16;
  flaky_->SetChaosSchedule({ChaosPhase{.ops = kOps, .corrupt_prob = 1.0}}, 77);
  auto conn = flaky_->Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  Frame f;
  f.type = 1;
  f.payload.resize(4 + 4096);
  for (size_t i = 0; i < f.payload.size(); ++i) {
    f.payload[i] = static_cast<uint8_t>(i * 13);
  }
  int in_placed = 0;
  for (int op = 0; op < kOps; ++op) {
    ASSERT_TRUE((*conn)->Send(f).ok());
    std::vector<uint8_t> storage(4096);
    auto reply = (*conn)->ReceivePlaced(
        4, [&](uint8_t, std::span<const uint8_t>, size_t) {
          return std::span<uint8_t>(storage);
        },
        Deadline());
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->ext.data(), storage.data());
    int head_bits = 0;
    int placed_bits = 0;
    for (size_t i = 0; i < 4; ++i) {
      head_bits += __builtin_popcount(reply->payload[i] ^ f.payload[i]);
    }
    for (size_t i = 0; i < storage.size(); ++i) {
      placed_bits += __builtin_popcount(storage[i] ^ f.payload[4 + i]);
    }
    EXPECT_EQ(head_bits + placed_bits, 1) << "op " << op;
    in_placed += placed_bits;
  }
  EXPECT_EQ(flaky_->chaos_corruptions(), kOps);
  EXPECT_GT(in_placed, 0);
}

TEST_F(FaultInjectionTest, ChaosScheduleExhaustsPhaseThenGoesClean) {
  flaky_->SetChaosSchedule({ChaosPhase{.ops = 2, .corrupt_prob = 1.0}}, 7);
  auto conn = flaky_->Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  Frame f;
  f.type = 1;
  f.payload = {1, 2, 3};
  for (int op = 0; op < 5; ++op) {
    ASSERT_TRUE((*conn)->Send(f).ok());
    auto reply = (*conn)->Receive();
    ASSERT_TRUE(reply.ok());
    if (op < 2) {
      EXPECT_NE(reply->payload, f.payload) << "op " << op;
    } else {
      EXPECT_EQ(reply->payload, f.payload) << "op " << op;
    }
  }
  EXPECT_EQ(flaky_->chaos_corruptions(), 2);
}

TEST_F(FaultInjectionTest, ChaosIsDeterministicForSameSeed) {
  // Same seed, same op stream -> the same ops get corrupted. This is what
  // makes a chaos failure replayable from its printed seed.
  auto run = [&](uint64_t seed) {
    flaky_->SetChaosSchedule({ChaosPhase{.ops = 32, .corrupt_prob = 0.5}},
                             seed);
    auto conn = flaky_->Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(conn.ok());
    Frame f;
    f.type = 1;
    f.payload = {1, 2, 3};
    std::vector<bool> corrupted;
    for (int op = 0; op < 32; ++op) {
      EXPECT_TRUE((*conn)->Send(f).ok());
      auto reply = (*conn)->Receive();
      EXPECT_TRUE(reply.ok());
      corrupted.push_back(reply->payload != f.payload);
    }
    flaky_->ClearChaos();
    return corrupted;
  };
  const auto first = run(1234);
  const auto second = run(1234);
  EXPECT_EQ(first, second);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
}

TEST_F(FaultInjectionTest, ChaosDropClosesConnection) {
  flaky_->SetChaosSchedule({ChaosPhase{.ops = 1, .drop_prob = 1.0}}, 3);
  auto conn = flaky_->Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  Frame f;
  f.type = 1;
  f.payload = {1};
  ASSERT_TRUE((*conn)->Send(f).ok());
  EXPECT_FALSE((*conn)->Receive().ok());
  EXPECT_FALSE((*conn)->alive());
  EXPECT_EQ(flaky_->chaos_drops(), 1);
}

TEST_F(FaultInjectionTest, ChaosBlackholeHonorsDeadline) {
  flaky_->SetChaosSchedule({ChaosPhase{.ops = 1, .blackhole_prob = 1.0}}, 5);
  auto conn = flaky_->Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  Frame f;
  f.type = 1;
  f.payload = {1};
  ASSERT_TRUE((*conn)->Send(f).ok());
  auto reply = (*conn)->Receive(Deadline::AfterMs(50));
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(flaky_->chaos_blackholes(), 1);
}

TEST_F(FaultInjectionTest, ClearChaosRestoresCleanWire) {
  flaky_->SetChaosSchedule({ChaosPhase{.ops = 100, .corrupt_prob = 1.0}}, 9);
  flaky_->ClearChaos();
  auto conn = flaky_->Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  Frame f;
  f.type = 1;
  f.payload = {4, 5, 6};
  ASSERT_TRUE((*conn)->Send(f).ok());
  auto reply = (*conn)->Receive();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->payload, f.payload);
  EXPECT_EQ(flaky_->chaos_corruptions(), 0);
}

TEST_F(FaultInjectionTest, BreaksConnectionAfterKSends) {
  ASSERT_TRUE(failpoints::Arm("faults.send", "eio+2").ok());
  auto conn = flaky_->Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  Frame f;
  f.type = 2;
  ASSERT_TRUE((*conn)->Send(f).ok());
  ASSERT_TRUE((*conn)->Send(f).ok());
  EXPECT_FALSE((*conn)->Send(f).ok());  // third send breaks
  EXPECT_FALSE((*conn)->alive());
  EXPECT_FALSE((*conn)->Send(f).ok());  // stays broken
  EXPECT_EQ(failpoints::FireCount("faults.send"), 1u);
}

TEST_F(FaultInjectionTest, SlowWireReportsItsUnpaidBytesAsBacklog) {
  // 1 KB/s: the request and the echo, ~210 bytes with headers, keep the
  // wire busy for ~200 ms although both crossed loopback at once.
  flaky_->SetSlowWire(1000);
  auto server = flaky_->CreateServer();
  ASSERT_TRUE(server.ok());
  ServerEndpoint& endpoint = **server;
  std::atomic<ConnId> peer{0};
  std::atomic<uint64_t> backlog_at_request{0};
  ServerEndpoint::Handlers handlers;
  handlers.on_frame = [&](ConnId conn, Frame frame) {
    peer = conn;
    backlog_at_request = endpoint.Backlog(conn);
    (void)endpoint.SendAsync(conn, std::move(frame));
  };
  ASSERT_TRUE(endpoint.Start(handlers).ok());

  auto conn = inner_->Connect("127.0.0.1", endpoint.port());
  ASSERT_TRUE(conn.ok());
  Frame f;
  f.type = 1;
  f.payload.assign(100, 0x5A);
  ASSERT_TRUE((*conn)->Send(f).ok());
  auto reply = (*conn)->Receive();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->payload, f.payload);  // bytes still move at full speed
  // The request itself was charged before its handler ran, so even a
  // stop-and-wait request finds the wire behind.
  EXPECT_GT(backlog_at_request.load(), 0u);
  EXPECT_GT(endpoint.Backlog(peer), 100u);

  // Off: the endpoint reports the inner TCP endpoint's backlog, which
  // the request found empty (its client had read every earlier byte).
  flaky_->SetSlowWire(0);
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (endpoint.Backlog(peer) != 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(endpoint.Backlog(peer), 0u);
  endpoint.Stop();
}

}  // namespace
}  // namespace jbs::net
