// Deadline semantics, deadline-bounded wire operations on both transports,
// and the fault-injection modes (delayed / blackholed receives and
// connects) that simulate silent peers deterministically.
#include "transport/deadline.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>

#include "common/failpoints.h"
#include "transport/fault_injection.h"
#include "transport/rdma_transport.h"
#include "transport/transport.h"

namespace jbs::net {
namespace {

using Clock = std::chrono::steady_clock;

int64_t ElapsedMs(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               since)
      .count();
}

TEST(DeadlineTest, DefaultIsInfinite) {
  Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.poll_timeout_ms(), -1);
  EXPECT_EQ(d.remaining_ms(), INT64_MAX);
}

TEST(DeadlineTest, AfterMsNonPositiveMeansDisabled) {
  EXPECT_TRUE(Deadline::AfterMs(0).infinite());
  EXPECT_TRUE(Deadline::AfterMs(-5).infinite());
  EXPECT_FALSE(Deadline::AfterMs(1).infinite());
}

TEST(DeadlineTest, ExpiresOnceTimePasses) {
  Deadline d = Deadline::AfterMs(5);
  EXPECT_FALSE(d.expired());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining_ms(), 0);
  EXPECT_EQ(d.poll_timeout_ms(), 0);
}

TEST(DeadlineTest, SoonerPicksTighterBound) {
  const Deadline infinite;
  const Deadline near = Deadline::AfterMs(10);
  const Deadline far = Deadline::AfterMs(10000);
  EXPECT_TRUE(Deadline::Sooner(infinite, infinite).infinite());
  EXPECT_EQ(Deadline::Sooner(infinite, near).time(), near.time());
  EXPECT_EQ(Deadline::Sooner(near, infinite).time(), near.time());
  EXPECT_EQ(Deadline::Sooner(near, far).time(), near.time());
  EXPECT_EQ(Deadline::Sooner(far, near).time(), near.time());
}

// ---------------------------------------------------------------------------
// Deadline-bounded wire operations, per transport.

Frame Ping() {
  Frame f;
  f.type = 1;
  f.payload = {1, 2, 3};
  return f;
}

/// Server that never answers — the canonical silent peer. Receive with a
/// finite deadline must fail with kDeadlineExceeded in bounded time.
void ExpectReceiveTimesOutOnSilentPeer(Transport* transport) {
  auto server = transport->CreateServer();
  ASSERT_TRUE(server.ok());
  ServerEndpoint::Handlers handlers;
  handlers.on_frame = [](ConnId, Frame) {};  // swallow every request
  ASSERT_TRUE((*server)->Start(handlers).ok());
  auto conn = transport->Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE((*conn)->Send(Ping()).ok());
  const auto start = Clock::now();
  auto reply = (*conn)->Receive(Deadline::AfterMs(100));
  const int64_t elapsed = ElapsedMs(start);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded)
      << reply.status().ToString();
  EXPECT_GE(elapsed, 90);
  EXPECT_LT(elapsed, 2000);
  (*server)->Stop();
}

TEST(DeadlineTransportTest, TcpReceiveTimesOutOnSilentPeer) {
  auto transport = MakeTcpTransport();
  ExpectReceiveTimesOutOnSilentPeer(transport.get());
}

TEST(DeadlineTransportTest, RdmaReceiveTimesOutOnSilentPeer) {
  auto transport = MakeSoftRdmaTransport({});
  ExpectReceiveTimesOutOnSilentPeer(transport.get());
}

/// Close() from another thread must wake a Receive blocked with an
/// infinite deadline — the cancellation half of NetMerger::Stop().
void ExpectCloseUnblocksBlockedReceive(Transport* transport) {
  auto server = transport->CreateServer();
  ASSERT_TRUE(server.ok());
  ServerEndpoint::Handlers handlers;
  handlers.on_frame = [](ConnId, Frame) {};
  ASSERT_TRUE((*server)->Start(handlers).ok());
  auto conn = transport->Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(conn.ok());
  auto blocked = std::async(std::launch::async, [&] {
    return (*conn)->Receive();  // infinite deadline
  });
  // Give the receiver time to actually block.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto start = Clock::now();
  (*conn)->Close();
  auto reply = blocked.get();
  EXPECT_LT(ElapsedMs(start), 2000);
  EXPECT_FALSE(reply.ok());
  EXPECT_NE(reply.status().code(), StatusCode::kDeadlineExceeded);
  (*server)->Stop();
}

TEST(DeadlineTransportTest, TcpCloseUnblocksBlockedReceive) {
  auto transport = MakeTcpTransport();
  ExpectCloseUnblocksBlockedReceive(transport.get());
}

TEST(DeadlineTransportTest, RdmaCloseUnblocksBlockedReceive) {
  auto transport = MakeSoftRdmaTransport({});
  ExpectCloseUnblocksBlockedReceive(transport.get());
}

// ---------------------------------------------------------------------------
// Fault-injection modes, over a real TCP echo server.

class FaultModesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoints::DisarmAll();
    inner_ = MakeTcpTransport();
    faults_ = std::make_unique<FaultInjectingTransport>(inner_.get());
    auto server = inner_->CreateServer();
    ASSERT_TRUE(server.ok());
    server_ = std::move(server).value();
    ServerEndpoint::Handlers handlers;
    handlers.on_frame = [this](ConnId conn, Frame frame) {
      server_->SendAsync(conn, std::move(frame));
    };
    ASSERT_TRUE(server_->Start(handlers).ok());
  }
  void TearDown() override {
    failpoints::DisarmAll();
    server_->Stop();
  }

  StatusOr<std::unique_ptr<Connection>> Dial(
      const Deadline& deadline = Deadline()) {
    return faults_->Connect("127.0.0.1", server_->port(), deadline);
  }

  std::unique_ptr<Transport> inner_;
  std::unique_ptr<FaultInjectingTransport> faults_;
  std::unique_ptr<ServerEndpoint> server_;
};

TEST_F(FaultModesTest, DelayedReceiveTripsTightDeadline) {
  auto conn = Dial();
  ASSERT_TRUE(conn.ok());
  faults_->SetChaosSchedule(
      {ChaosPhase{.ops = 1, .delay_prob = 1, .delay_ms = 200}}, /*seed=*/1);
  ASSERT_TRUE((*conn)->Send(Ping()).ok());
  auto reply = (*conn)->Receive(Deadline::AfterMs(50));
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(faults_->chaos_delays(), 1);
  // The delayed reply was never consumed off the wire; with the phase
  // spent, a fresh Receive delegates and still finds it.
  auto late = (*conn)->Receive(Deadline::AfterMs(2000));
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late->type, Ping().type);
}

TEST_F(FaultModesTest, DelayedReceiveWithinDeadlineDelivers) {
  auto conn = Dial();
  ASSERT_TRUE(conn.ok());
  faults_->SetChaosSchedule(
      {ChaosPhase{.ops = 1, .delay_prob = 1, .delay_ms = 10}}, /*seed=*/1);
  ASSERT_TRUE((*conn)->Send(Ping()).ok());
  auto reply = (*conn)->Receive(Deadline::AfterMs(5000));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(faults_->chaos_delays(), 1);
}

TEST_F(FaultModesTest, BlackholedReceiveTimesOut) {
  auto conn = Dial();
  ASSERT_TRUE(conn.ok());
  faults_->SetChaosSchedule({ChaosPhase{.ops = 1, .blackhole_prob = 1}},
                            /*seed=*/1);
  ASSERT_TRUE((*conn)->Send(Ping()).ok());
  const auto start = Clock::now();
  auto reply = (*conn)->Receive(Deadline::AfterMs(50));
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(ElapsedMs(start), 2000);
  EXPECT_EQ(faults_->chaos_blackholes(), 1);
}

TEST_F(FaultModesTest, ReleaseBlackholesResumesParkedReceive) {
  auto conn = Dial();
  ASSERT_TRUE(conn.ok());
  faults_->SetChaosSchedule({ChaosPhase{.ops = 1, .blackhole_prob = 1}},
                            /*seed=*/1);
  ASSERT_TRUE((*conn)->Send(Ping()).ok());
  auto blocked = std::async(std::launch::async, [&] {
    return (*conn)->Receive();  // parked in the blackhole, no deadline
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  faults_->ReleaseBlackholes();
  auto reply = blocked.get();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, Ping().type);
}

TEST_F(FaultModesTest, CloseUnblocksBlackholedReceive) {
  auto conn = Dial();
  ASSERT_TRUE(conn.ok());
  faults_->SetChaosSchedule({ChaosPhase{.ops = 1, .blackhole_prob = 1}},
                            /*seed=*/1);
  ASSERT_TRUE((*conn)->Send(Ping()).ok());
  auto blocked = std::async(std::launch::async, [&] {
    return (*conn)->Receive();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  (*conn)->Close();
  auto reply = blocked.get();
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
}

TEST_F(FaultModesTest, BlackholedConnectTimesOut) {
  ASSERT_TRUE(failpoints::Arm("faults.connect", "false*1").ok());
  const auto start = Clock::now();
  auto conn = Dial(Deadline::AfterMs(50));
  ASSERT_FALSE(conn.ok());
  EXPECT_EQ(conn.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(ElapsedMs(start), 2000);
  EXPECT_EQ(failpoints::FireCount("faults.connect"), 1u);
  // The next dial proceeds normally.
  ASSERT_TRUE(Dial().ok());
}

TEST_F(FaultModesTest, ReleaseBlackholesResumesParkedConnect) {
  ASSERT_TRUE(failpoints::Arm("faults.connect", "false*1").ok());
  auto blocked = std::async(std::launch::async, [&] { return Dial(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  faults_->ReleaseBlackholes();
  auto conn = blocked.get();
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  ASSERT_TRUE((*conn)->Send(Ping()).ok());
  EXPECT_TRUE((*conn)->Receive(Deadline::AfterMs(5000)).ok());
}

}  // namespace
}  // namespace jbs::net
