// Fetch-path robustness: per-fetch deadlines bound how long a silent peer
// can stall a reducer, connect timeouts bound dials to dead-but-routed
// hosts, Stop() drains queued and in-flight fetches so no FetchAndMerge
// caller hangs, duplicate source lists collapse instead of corrupting the
// merge, and retry backoff stays capped and jittered. Runs under both the
// TCP and the soft-RDMA transport.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <thread>

#include "common/failpoints.h"
#include "jbs/mof_supplier.h"
#include "jbs/net_merger.h"
#include "mapred/ifile.h"
#include "transport/fault_injection.h"
#include "transport/rdma_transport.h"

namespace jbs {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

int64_t ElapsedMs(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               since)
      .count();
}

class FetchRobustnessTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    failpoints::DisarmAll();
    dir_ = fs::temp_directory_path() /
           ("fetch_robust_" + std::to_string(::getpid()) + "_" + GetParam() +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    real_transport_ = GetParam() == "rdma" ? net::MakeSoftRdmaTransport({})
                                           : net::MakeTcpTransport();
    flaky_ = std::make_unique<net::FaultInjectingTransport>(
        real_transport_.get());
  }
  void TearDown() override {
    failpoints::DisarmAll();
    suppliers_.clear();
    fs::remove_all(dir_);
  }

  std::vector<mr::MofLocation> MakeSuppliers(int count) {
    std::vector<mr::MofLocation> locations;
    for (int m = 0; m < count; ++m) {
      shuffle::MofSupplier::Options options;
      options.transport = real_transport_.get();  // server side is healthy
      auto supplier = std::make_unique<shuffle::MofSupplier>(options);
      EXPECT_TRUE(supplier->Start().ok());
      mr::MofWriter writer(dir_ / ("mof_" + std::to_string(m)));
      mr::IFileWriter segment;
      for (int r = 0; r < 200; ++r) {
        segment.Append("key_" + std::to_string(r), "value");
      }
      const uint64_t records = segment.records();
      EXPECT_TRUE(writer.AppendSegment(segment.Finish(), records).ok());
      auto handle = writer.Finish(m, 0);
      EXPECT_TRUE(handle.ok());
      EXPECT_TRUE(supplier->PublishMof(*handle).ok());
      locations.push_back({m, 0, "127.0.0.1", supplier->port()});
      suppliers_.push_back(std::move(supplier));
    }
    return locations;
  }

  shuffle::NetMerger::Options BaseOptions() {
    shuffle::NetMerger::Options options;
    options.transport = flaky_.get();
    options.retry_backoff_ms = 1;
    return options;
  }

  static size_t Drain(mr::RecordStream& stream) {
    mr::Record record;
    size_t count = 0;
    while (stream.Next(&record)) ++count;
    return count;
  }

  fs::path dir_;
  std::unique_ptr<net::Transport> real_transport_;
  std::unique_ptr<net::FaultInjectingTransport> flaky_;
  std::vector<std::unique_ptr<shuffle::MofSupplier>> suppliers_;
};

TEST_P(FetchRobustnessTest, SilentPeerFetchFailsWithinDeadline) {
  auto locations = MakeSuppliers(1);
  // The server accepts the connection and the request, then never answers.
  flaky_->SetChaosSchedule(
      {net::ChaosPhase{.ops = 100, .blackhole_prob = 1}}, /*seed=*/1);
  auto options = BaseOptions();
  options.fetch_deadline_ms = 400;  // budget for the fetch incl. retries
  options.max_fetch_attempts = 3;
  shuffle::NetMerger merger(options);
  const auto start = Clock::now();
  auto stream = merger.FetchAndMerge(0, locations);
  const int64_t elapsed = ElapsedMs(start);
  ASSERT_FALSE(stream.ok());
  EXPECT_EQ(stream.status().code(), StatusCode::kDeadlineExceeded)
      << stream.status().ToString();
  // Acceptance bound: the fetch fails within 2x the configured deadline —
  // the budget covers all attempts, not deadline x attempts.
  EXPECT_LT(elapsed, 2 * options.fetch_deadline_ms);
  merger.Stop();
}

TEST_P(FetchRobustnessTest, DeadlineExpiryLeavesCompleteTraceTimeline) {
  auto locations = MakeSuppliers(1);
  flaky_->SetChaosSchedule(
      {net::ChaosPhase{.ops = 100, .blackhole_prob = 1}}, /*seed=*/1);
  auto options = BaseOptions();
  // No chunk timeout: the blackholed receive blocks until the fetch
  // deadline itself expires, which is the expiry path under test.
  options.fetch_deadline_ms = 400;
  options.max_fetch_attempts = 3;
  shuffle::NetMerger merger(options);
  auto stream = merger.FetchAndMerge(0, locations);
  ASSERT_FALSE(stream.ok());
  EXPECT_EQ(stream.status().code(), StatusCode::kDeadlineExceeded)
      << stream.status().ToString();
  EXPECT_GT(merger.merger_stats().deadline_expiries, 0u);

  // The lone fetch is id 1 in the merger's private recorder. Its timeline
  // must tell the whole story: queued, dialed, then failed — with the
  // failure carrying the status code and monotonic timestamps throughout.
  const auto timeline = merger.trace().ForFetch(1);
  ASSERT_GE(timeline.size(), 3u);
  EXPECT_EQ(timeline.front().event, TraceEvent::kQueued);
  bool dialed = false;
  for (const auto& entry : timeline) {
    if (entry.event == TraceEvent::kDialed) dialed = true;
  }
  EXPECT_TRUE(dialed);
  EXPECT_EQ(timeline.back().event, TraceEvent::kFailed);
  EXPECT_EQ(timeline.back().detail,
            static_cast<int64_t>(StatusCode::kDeadlineExceeded));
  for (size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_GE(timeline[i].t_us, timeline[i - 1].t_us);
  }
  merger.Stop();
}

TEST_P(FetchRobustnessTest, StopUnblocksEveryFetchAndMergeCaller) {
  auto locations = MakeSuppliers(1);
  // Consolidated fetches park on a cached connection; the consolidate=false
  // ablation parks on a connection dialed for that one fetch. Stop() must
  // reach both.
  for (const bool consolidate : {true, false}) {
    SCOPED_TRACE(consolidate ? "consolidate" : "connection per fetch");
    // Every receive hangs forever and no deadlines are configured: without
    // cancellation, all callers would block indefinitely.
    flaky_->SetChaosSchedule(
        {net::ChaosPhase{.ops = 1000, .blackhole_prob = 1}}, /*seed=*/1);
    auto options = BaseOptions();
    options.data_threads = 2;
    options.max_fetch_attempts = 2;
    options.consolidate = consolidate;
    shuffle::NetMerger merger(options);

    constexpr int kCallers = 4;
    std::vector<std::future<Status>> callers;
    callers.reserve(kCallers);
    for (int i = 0; i < kCallers; ++i) {
      callers.push_back(std::async(std::launch::async, [&] {
        return merger.FetchAndMerge(0, locations).status();
      }));
    }
    // Let some callers get in flight (parked in the blackhole) and the rest
    // queue behind them on the single node.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));

    const auto start = Clock::now();
    merger.Stop();
    for (auto& caller : callers) {
      ASSERT_EQ(caller.wait_for(std::chrono::seconds(10)),
                std::future_status::ready)
          << "FetchAndMerge caller still blocked after Stop()";
      const Status status = caller.get();
      EXPECT_FALSE(status.ok());
      EXPECT_EQ(status.code(), StatusCode::kUnavailable)
          << status.ToString();
    }
    EXPECT_LT(ElapsedMs(start), 5000);
    EXPECT_EQ(merger.pending_node_count(), 0u);
    // Drained tasks are cancellations, not fetch failures.
    EXPECT_EQ(merger.merger_stats().fetch_errors, 0u);
    // A caller arriving after Stop() fails fast.
    EXPECT_EQ(merger.FetchAndMerge(0, locations).status().code(),
              StatusCode::kUnavailable);
  }
}

TEST_P(FetchRobustnessTest, ConnectTimeoutBoundsDial) {
  auto locations = MakeSuppliers(1);
  // A dial that hangs like a dead-but-routed host.
  ASSERT_TRUE(failpoints::Arm("faults.connect", "false*1").ok());
  auto options = BaseOptions();
  options.connect_timeout_ms = 100;
  options.max_fetch_attempts = 1;
  shuffle::NetMerger merger(options);
  const auto start = Clock::now();
  auto stream = merger.FetchAndMerge(0, locations);
  ASSERT_FALSE(stream.ok());
  EXPECT_EQ(stream.status().code(), StatusCode::kDeadlineExceeded)
      << stream.status().ToString();
  EXPECT_LT(ElapsedMs(start), 5000);
  merger.Stop();
}

TEST_P(FetchRobustnessTest, DuplicateSourcesCollapseToOneFetch) {
  auto locations = MakeSuppliers(1);
  // The same location reported twice (e.g. a re-announced map completion)
  // must not double-fetch — or worse, double-consume the stored segment.
  std::vector<mr::MofLocation> dup = {locations[0], locations[0],
                                      locations[0]};
  shuffle::NetMerger merger(BaseOptions());
  auto stream = merger.FetchAndMerge(0, dup);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_EQ(Drain(**stream), 200u);  // one copy of the segment, not three
  EXPECT_EQ(merger.merger_stats().fetches, 1u);
  merger.Stop();
}

TEST_P(FetchRobustnessTest, ConflictingDuplicatesActAsFailoverReplicas) {
  // Duplicate sources that disagree on where the map output lives are
  // replicas: when the first-listed copy is unreachable (a port nothing
  // listens on), the fetch fails over to the live copy instead of failing
  // the reduce.
  auto locations = MakeSuppliers(1);
  mr::MofLocation dead = locations[0];
  dead.port = static_cast<uint16_t>(locations[0].port + 1);
  auto options = BaseOptions();
  options.max_fetch_attempts = 1;  // exhaust the dead replica quickly
  shuffle::NetMerger merger(options);
  auto stream = merger.FetchAndMerge(0, {dead, locations[0]});
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_EQ(Drain(**stream), 200u);
  EXPECT_GE(merger.merger_stats().failovers, 1u);
  merger.Stop();
}

TEST_P(FetchRobustnessTest, DialFailuresNotCountedAsConnectionsOpened) {
  auto locations = MakeSuppliers(1);
  ASSERT_TRUE(failpoints::Arm("faults.connect", "eagain*100").ok());
  auto options = BaseOptions();
  options.max_fetch_attempts = 2;
  shuffle::NetMerger merger(options);
  EXPECT_FALSE(merger.FetchAndMerge(0, locations).ok());
  // Every dial failed, so no connection was ever opened.
  EXPECT_EQ(merger.merger_stats().connections_opened, 0u);
  merger.Stop();

  // Healed: one real dial, counted once.
  failpoints::Disarm("faults.connect");
  shuffle::NetMerger merger2(BaseOptions());
  auto stream = merger2.FetchAndMerge(0, locations);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_EQ(merger2.merger_stats().connections_opened, 1u);
  merger2.Stop();
}

TEST_P(FetchRobustnessTest, RetryBackoffIsCappedForLargeAttemptCounts) {
  auto locations = MakeSuppliers(1);
  ASSERT_TRUE(failpoints::Arm("faults.connect", "eagain*1000000").ok());
  auto options = BaseOptions();
  // Before the shift cap, attempt 33+ shifted a 32-bit int by >= 32 (UB),
  // and even "defined" results meant multi-hour sleeps.
  options.max_fetch_attempts = 40;
  options.max_retry_backoff_ms = 5;
  shuffle::NetMerger merger(options);
  const auto start = Clock::now();
  auto stream = merger.FetchAndMerge(0, locations);
  ASSERT_FALSE(stream.ok());
  EXPECT_EQ(merger.merger_stats().fetch_retries, 39u);
  EXPECT_EQ(merger.merger_stats().fetch_errors, 1u);
  EXPECT_LT(ElapsedMs(start), 10000);  // 39 capped backoffs, not 2^39 ms
  merger.Stop();
}

TEST_P(FetchRobustnessTest, DrainedNodeQueuesAreErased) {
  auto locations = MakeSuppliers(3);
  shuffle::NetMerger merger(BaseOptions());
  auto stream = merger.FetchAndMerge(0, locations);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_EQ(Drain(**stream), 600u);
  // Queues are erased as they drain, not kept as per-node tombstones.
  EXPECT_EQ(merger.pending_node_count(), 0u);
  merger.Stop();
}

INSTANTIATE_TEST_SUITE_P(Transports, FetchRobustnessTest,
                         ::testing::Values("tcp", "rdma"),
                         [](const auto& p) { return p.param; });

}  // namespace
}  // namespace jbs
