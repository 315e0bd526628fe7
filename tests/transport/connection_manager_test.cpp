#include "transport/connection_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <thread>

#include "common/buffer_pool.h"

namespace jbs::net {
namespace {

bool WaitUntil(const std::function<bool()>& pred,
               std::chrono::milliseconds limit = std::chrono::seconds(5)) {
  const auto give_up = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < give_up) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

/// Transport double that mints fake connections and counts dials.
class FakeTransport final : public Transport {
 public:
  class FakeConnection final : public Connection {
   public:
    explicit FakeConnection(std::atomic<int>* closed) : closed_(closed) {}
    Status Send(const Frame&, const Deadline&) override {
      return Status::Ok();
    }
    StatusOr<Frame> Receive(const Deadline&) override {
      return Unavailable("fake");
    }
    void Close() override {
      if (!dead_.exchange(true)) closed_->fetch_add(1);
    }
    bool alive() const override { return !dead_; }
    uint64_t bytes_sent() const override { return 0; }
    uint64_t bytes_received() const override { return 0; }

   private:
    std::atomic<int>* closed_;
    std::atomic<bool> dead_{false};
  };

  std::string name() const override { return "fake"; }
  StatusOr<std::unique_ptr<ServerEndpoint>> CreateServer() override {
    return Internal("not used");
  }
  using Transport::Connect;
  StatusOr<std::unique_ptr<Connection>> Connect(
      const std::string&, uint16_t, const Deadline&) override {
    if (fail_dials) return Unavailable("refused");
    ++dials;
    auto conn = std::make_unique<FakeConnection>(&closed);
    last = conn.get();
    return std::unique_ptr<Connection>(std::move(conn));
  }

  std::atomic<int> dials{0};
  std::atomic<int> closed{0};
  bool fail_dials = false;
  FakeConnection* last = nullptr;
};

TEST(ConnectionManagerTest, ReusesLiveConnection) {
  FakeTransport transport;
  ConnectionManager manager(&transport, 4);
  auto c1 = manager.GetOrConnect("10.0.0.1", 1000);
  auto c2 = manager.GetOrConnect("10.0.0.1", 1000);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(c1->get(), c2->get());
  EXPECT_EQ(transport.dials.load(), 1);
  EXPECT_EQ(manager.stats().hits, 1u);
  EXPECT_EQ(manager.stats().misses, 1u);
}

TEST(ConnectionManagerTest, DistinctEndpointsDialSeparately) {
  FakeTransport transport;
  ConnectionManager manager(&transport, 4);
  ASSERT_TRUE(manager.GetOrConnect("10.0.0.1", 1000).ok());
  ASSERT_TRUE(manager.GetOrConnect("10.0.0.1", 1001).ok());
  ASSERT_TRUE(manager.GetOrConnect("10.0.0.2", 1000).ok());
  EXPECT_EQ(transport.dials.load(), 3);
  EXPECT_EQ(manager.active_connections(), 3u);
}

TEST(ConnectionManagerTest, LruEvictionClosesOldest) {
  FakeTransport transport;
  ConnectionManager manager(&transport, 2);
  ASSERT_TRUE(manager.GetOrConnect("n1", 1).ok());
  ASSERT_TRUE(manager.GetOrConnect("n2", 1).ok());
  ASSERT_TRUE(manager.GetOrConnect("n1", 1).ok());  // promote n1
  ASSERT_TRUE(manager.GetOrConnect("n3", 1).ok());  // evicts n2
  EXPECT_EQ(manager.active_connections(), 2u);
  EXPECT_EQ(manager.stats().evictions, 1u);
  EXPECT_EQ(transport.closed.load(), 1);
  // n2 must re-dial; n1 must not.
  const int dials_before = transport.dials.load();
  ASSERT_TRUE(manager.GetOrConnect("n1", 1).ok());
  EXPECT_EQ(transport.dials.load(), dials_before);
  ASSERT_TRUE(manager.GetOrConnect("n2", 1).ok());
  EXPECT_EQ(transport.dials.load(), dials_before + 1);
}

TEST(ConnectionManagerTest, DeadConnectionRedialed) {
  FakeTransport transport;
  ConnectionManager manager(&transport, 4);
  auto c1 = manager.GetOrConnect("n1", 1);
  ASSERT_TRUE(c1.ok());
  (*c1)->Close();
  auto c2 = manager.GetOrConnect("n1", 1);
  ASSERT_TRUE(c2.ok());
  EXPECT_NE(c1->get(), c2->get());
  EXPECT_EQ(transport.dials.load(), 2);
}

TEST(ConnectionManagerTest, DialFailurePropagates) {
  FakeTransport transport;
  transport.fail_dials = true;
  ConnectionManager manager(&transport, 4);
  auto result = manager.GetOrConnect("n1", 1);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(manager.stats().dial_failures, 1u);
  EXPECT_EQ(manager.active_connections(), 0u);
}

TEST(ConnectionManagerTest, InvalidateForcesRedial) {
  FakeTransport transport;
  ConnectionManager manager(&transport, 4);
  ASSERT_TRUE(manager.GetOrConnect("n1", 1).ok());
  manager.Invalidate("n1", 1);
  EXPECT_EQ(manager.active_connections(), 0u);
  ASSERT_TRUE(manager.GetOrConnect("n1", 1).ok());
  EXPECT_EQ(transport.dials.load(), 2);
}

TEST(ConnectionManagerTest, InvalidateOnPenaltyClosesAndRedialsCleanly) {
  // The NetMerger evicts a host's cached connection the moment its health
  // tracker penalizes the node: the next fetch after the sentence must
  // re-dial a fresh socket, not inherit the wedged one. Lock down the
  // contract that eviction closes (doesn't leak) the old connection, only
  // that host is affected, and the post-release lookup reports a dial.
  FakeTransport transport;
  ConnectionManager manager(&transport, 4);
  auto sick = manager.GetOrConnect("sick-node", 1);
  ASSERT_TRUE(sick.ok());
  ASSERT_TRUE(manager.GetOrConnect("healthy-node", 1).ok());
  manager.Invalidate("sick-node", 1);
  EXPECT_FALSE((*sick)->alive());  // closed, not leaked
  EXPECT_EQ(transport.closed.load(), 1);
  EXPECT_EQ(manager.active_connections(), 1u);  // healthy-node untouched
  bool dialed = false;
  auto fresh = manager.GetOrConnect("sick-node", 1, Deadline(), &dialed);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(dialed);
  EXPECT_NE(sick->get(), fresh->get());
  dialed = true;
  ASSERT_TRUE(
      manager.GetOrConnect("healthy-node", 1, Deadline(), &dialed).ok());
  EXPECT_FALSE(dialed);  // the bystander kept its cached connection
}

TEST(ConnectionManagerTest, InvalidateMidFlushReleasesEveryLeaseOnce) {
  // Invalidate racing an in-flight flush (the path a failed fetch, a
  // health penalty and every consolidate=false fetch take): the manager
  // closes a cached connection while the serving peer's OutFrame queue
  // still holds buffer leases for it. The serve side must fail the
  // connection and release every parked lease exactly once — the pool
  // refills to exactly its capacity, never short (leak) or over (double
  // release trips the pool's accounting).
  BufferPool pool(64 * 1024, 4);  // before the server: leases must not
                                  // outlive the pool on any exit path
  auto transport = MakeTcpTransport({});
  auto server = transport->CreateServer();
  ASSERT_TRUE(server.ok());
  ServerEndpoint::Handlers handlers;
  std::atomic<ConnId> peer{0};
  std::promise<void> gone;
  handlers.on_connect = [&](ConnId id) { peer = id; };
  handlers.on_disconnect = [&](ConnId) { gone.set_value(); };
  ASSERT_TRUE((*server)->Start(handlers).ok());

  ConnectionManager manager(transport.get(), 4);
  auto conn = manager.GetOrConnect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(WaitUntil([&] { return peer.load() != 0; }));

  // Fill the pipe past kernel buffering (tcp_wmem max 4MB; the cached
  // client never reads, so its receive buffer stays at its initial size)
  // so the lease frames behind the filler are parked in the serve queue.
  for (int i = 0; i < 3; ++i) {
    Frame filler;
    filler.type = 0;
    filler.payload.assign(4 * 1024 * 1024, static_cast<uint8_t>(i));
    ASSERT_TRUE((*server)->SendAsync(peer, std::move(filler)).ok());
  }
  for (int i = 0; i < 4; ++i) {
    PooledBuffer buffer = pool.Acquire();
    ASSERT_TRUE(buffer.valid());
    auto lease = MakeBufferLease(std::move(buffer));
    Frame frame;
    frame.type = 1;
    frame.ext = {static_cast<const uint8_t*>(lease.get()), 64 * 1024};
    ASSERT_TRUE(
        (*server)->SendAsync(peer, std::move(frame), std::move(lease)).ok());
  }
  EXPECT_LT(pool.available(), 4u);

  manager.Invalidate("127.0.0.1", (*server)->port());
  EXPECT_EQ(manager.active_connections(), 0u);
  EXPECT_FALSE((*conn)->alive());
  // Invalidate shut the connection down; dropping the last fetch-side
  // reference closes the descriptor, which is what the serving peer
  // observes (a reset, since the receive queue is non-empty).
  conn->reset();
  ASSERT_EQ(gone.get_future().wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  ASSERT_TRUE(WaitUntil([&] { return pool.available() == 4; }))
      << "invalidate mid-flush must release every queued lease exactly once";
  (*server)->Stop();
}

TEST(ConnectionManagerTest, ShutdownClosesAndFailsFast) {
  FakeTransport transport;
  ConnectionManager manager(&transport, 4);
  ASSERT_TRUE(manager.GetOrConnect("n1", 1).ok());
  ASSERT_TRUE(manager.GetOrConnect("n2", 1).ok());
  manager.Shutdown();
  EXPECT_EQ(transport.closed.load(), 2);
  EXPECT_EQ(manager.active_connections(), 0u);
  auto result = manager.GetOrConnect("n3", 1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(transport.dials.load(), 2);  // no dial after shutdown
}

TEST(ConnectionManagerTest, DefaultCapacityIs512) {
  FakeTransport transport;
  ConnectionManager manager(&transport);
  EXPECT_EQ(manager.capacity(), 512u);
}

TEST(ConnectionManagerTest, PaperScenario512Cap) {
  // 600 distinct endpoints through a 512-cap manager: exactly 88 LRU
  // teardowns, oldest first.
  FakeTransport transport;
  ConnectionManager manager(&transport, 512);
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(manager.GetOrConnect("node" + std::to_string(i), 1).ok());
  }
  EXPECT_EQ(manager.active_connections(), 512u);
  EXPECT_EQ(manager.stats().evictions, 88u);
  EXPECT_EQ(transport.closed.load(), 88);
}

}  // namespace
}  // namespace jbs::net
