#include "baseline/http_shuffle.h"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <map>
#include <thread>

#include "baseline/http.h"
#include "common/logging.h"
#include "common/thread_pool.h"

namespace jbs::baseline {

namespace {

/// Reads up to and including the blank line terminating an HTTP head.
StatusOr<std::string> ReadHead(int fd) {
  std::string head;
  char c;
  while (head.size() < 64 * 1024) {
    const ssize_t n = ::recv(fd, &c, 1, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError("recv failed reading HTTP head");
    }
    if (n == 0) {
      if (head.empty()) return Unavailable("peer closed");
      return IoError("peer closed mid-head");
    }
    head.push_back(c);
    if (head.size() >= 4 && head.compare(head.size() - 4, 4, "\r\n\r\n") == 0) {
      return head;
    }
  }
  return IoError("HTTP head too large");
}

}  // namespace

HttpShuffleServer::HttpShuffleServer(Options options)
    : options_(options),
      disk_throttle_(options.penalty.disk_stream_bytes_per_sec),
      net_throttle_(options.penalty.net_stream_bytes_per_sec) {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  const MetricLabels base = BaseLabels();
  requests_c_ = metrics_->GetCounter("shuffle_requests_total", base);
  bytes_served_c_ = metrics_->GetCounter("shuffle_bytes_served_total", base);
  errors_c_ = metrics_->GetCounter("shuffle_serve_errors_total", base);
  request_latency_ms_h_ =
      metrics_->GetHistogram("shuffle_request_latency_ms", base);
}

MetricLabels HttpShuffleServer::BaseLabels() const {
  MetricLabels labels{{"server", "httpservlet"}};
  if (!options_.instance.empty()) {
    labels.emplace_back("instance", options_.instance);
  }
  return labels;
}

HttpShuffleServer::~HttpShuffleServer() { Stop(); }

Status HttpShuffleServer::Start() {
  auto listener = net::ListenTcp(0);
  JBS_RETURN_IF_ERROR(listener.status());
  listen_fd_ = std::move(listener->first);
  port_ = listener->second;
  running_.store(true);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  servlets_.reserve(static_cast<size_t>(options_.servlets));
  for (int i = 0; i < options_.servlets; ++i) {
    servlets_.emplace_back([this] { ServletLoop(); });
  }
  return Status::Ok();
}

uint16_t HttpShuffleServer::port() const { return port_; }

Status HttpShuffleServer::PublishMof(const mr::MofHandle& handle) {
  return published_.Publish(handle);
}

void HttpShuffleServer::Stop() {
  if (!running_.exchange(false)) return;
  // shutdown() wakes the blocked accept(); the fd itself must stay alive
  // until the acceptor thread has observed the failure and exited.
  ::shutdown(listen_fd_.get(), SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  listen_fd_.Reset();
  conn_cv_.NotifyAll();
  for (auto& servlet : servlets_) {
    if (servlet.joinable()) servlet.join();
  }
  servlets_.clear();
}

mr::ShuffleServer::Stats HttpShuffleServer::stats() const {
  Stats out;
  out.requests = requests_c_->value();
  out.bytes_served = bytes_served_c_->value();
  return out;
}

void HttpShuffleServer::AcceptLoop() {
  while (running_.load()) {
    const int raw = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (raw < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed
    }
    (void)net::SetNoDelay(raw);
    {
      MutexLock lock(mu_);
      pending_conns_.emplace_back(raw);
    }
    conn_cv_.NotifyOne();
  }
}

void HttpShuffleServer::ServletLoop() {
  for (;;) {
    net::Fd conn;
    {
      MutexLock lock(mu_);
      while (running_.load() && pending_conns_.empty()) conn_cv_.Wait(lock);
      if (!running_.load() && pending_conns_.empty()) return;
      conn = std::move(pending_conns_.front());
      pending_conns_.pop_front();
    }
    HandleConnection(std::move(conn));
  }
}

void HttpShuffleServer::HandleConnection(net::Fd conn) {
  for (;;) {
    auto head = ReadHead(conn.get());
    if (!head.ok()) return;
    // Request clock starts once the head has arrived: measures the
    // serialized read+transmit service time, same span the MofSupplier
    // histogram covers (enqueue -> response handed off).
    const auto request_start = std::chrono::steady_clock::now();
    auto request = ParseRequestHead(*head);
    bool keep_alive = false;
    int status = 500;
    bool segment_compressed = false;
    std::vector<uint8_t> body;
    if (request && request->method == "GET" &&
        request->path == "/mapOutput") {
      auto conn_header = request->headers.find("connection");
      keep_alive = conn_header != request->headers.end() &&
                   conn_header->second == "keep-alive";
      const int map_task = std::atoi(request->query["map"].c_str());
      const int partition = std::atoi(request->query["reduce"].c_str());
      auto mof = published_.Lookup(map_task);
      if (!mof.ok()) {
        status = 404;
      } else {
        // The serialized HttpServlet path (Fig. 4): resolve the index,
        // read the WHOLE segment from disk, and only then transmit.
        auto reader = mr::MofReader::Open(
            {map_task, 0, mof->data_path, mof->index_path});
        if (reader.ok() && partition >= 0 &&
            partition < reader->index().num_partitions()) {
          Status read_status = reader->ReadSegment(partition, body);
          if (read_status.ok()) {
            segment_compressed = reader->index().compressed();
            // Java FileInputStream pace.
            disk_throttle_.Consume(body.size());
            status = 200;
          }
        } else {
          status = 404;
        }
      }
    }
    if (status != 200) body.clear();
    const std::string response_head = BuildResponseHead(
        status, body.size(), keep_alive, segment_compressed);
    if (!net::SendAll(conn.get(),
                      {reinterpret_cast<const uint8_t*>(response_head.data()),
                       response_head.size()})
             .ok()) {
      return;
    }
    // Transmit only after the read finished — and at Java stream pace.
    constexpr size_t kWriteChunk = 64 * 1024;
    for (size_t off = 0; off < body.size(); off += kWriteChunk) {
      const size_t n = std::min(kWriteChunk, body.size() - off);
      net_throttle_.Consume(n);
      if (!net::SendAll(conn.get(), {body.data() + off, n}).ok()) return;
    }
    requests_c_->Increment();
    bytes_served_c_->Increment(body.size());
    if (status != 200) errors_c_->Increment();
    request_latency_ms_h_->Observe(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - request_start)
            .count());
    if (!keep_alive) return;
  }
}

MofCopierClient::MofCopierClient(Options options)
    : options_(options),
      net_throttle_(options.penalty.net_stream_bytes_per_sec),
      rng_(options.backoff_jitter_seed) {
  if (!options_.spill_dir.empty()) {
    std::filesystem::create_directories(options_.spill_dir);
  }
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  const MetricLabels base = BaseLabels();
  fetches_c_ = metrics_->GetCounter("shuffle_fetches_total", base);
  bytes_fetched_c_ = metrics_->GetCounter("shuffle_bytes_fetched_total", base);
  connections_opened_c_ =
      metrics_->GetCounter("shuffle_connections_opened_total", base);
  fetch_errors_c_ = metrics_->GetCounter("shuffle_fetch_errors_total", base);
  spills_c_ = metrics_->GetCounter("baseline_copier_spills_total", base);
  fetch_latency_ms_h_ =
      metrics_->GetHistogram("shuffle_fetch_latency_ms", base);
}

MofCopierClient::~MofCopierClient() = default;

MetricLabels MofCopierClient::BaseLabels() const {
  MetricLabels labels{{"client", "mofcopier"}};
  if (!options_.instance.empty()) {
    labels.emplace_back("instance", options_.instance);
  }
  return labels;
}

mr::ShuffleClient::Stats MofCopierClient::stats() const {
  Stats out;
  out.fetches = fetches_c_->value();
  out.bytes_fetched = bytes_fetched_c_->value();
  out.connections_opened = connections_opened_c_->value();
  return out;
}

StatusOr<MofCopierClient::FetchedBody> MofCopierClient::FetchOne(
    const mr::MofLocation& source, int partition) {
  // A fresh connection per fetch — the pattern whose cost JBS's
  // consolidation removes.
  auto fd = net::ConnectTcp(source.host, source.port);
  JBS_RETURN_IF_ERROR(fd.status());
  connections_opened_c_->Increment();
  const std::string request = BuildGetRequest(
      "/mapOutput",
      {{"map", std::to_string(source.map_task)},
       {"reduce", std::to_string(partition)}},
      /*keep_alive=*/false);
  JBS_RETURN_IF_ERROR(net::SendAll(
      fd->get(),
      {reinterpret_cast<const uint8_t*>(request.data()), request.size()}));
  auto head = ReadHead(fd->get());
  JBS_RETURN_IF_ERROR(head.status());
  auto response = ParseResponseHead(*head);
  if (!response) return IoError("bad HTTP response head");
  if (response->status != 200) {
    return NotFound("server returned " + std::to_string(response->status));
  }
  FetchedBody fetched;
  fetched.compressed = response->compressed;
  std::vector<uint8_t>& body = fetched.bytes;
  body.resize(response->content_length);
  // Java socket-stream pace on the receive side.
  constexpr size_t kReadChunk = 64 * 1024;
  size_t off = 0;
  while (off < body.size()) {
    const size_t n = std::min(kReadChunk, body.size() - off);
    JBS_RETURN_IF_ERROR(net::RecvAll(fd->get(), {body.data() + off, n}));
    net_throttle_.Consume(n);
    off += n;
  }
  fetches_c_->Increment();
  bytes_fetched_c_->Increment(body.size());
  return fetched;
}

StatusOr<std::unique_ptr<mr::RecordStream>> MofCopierClient::FetchAndMerge(
    int partition, const std::vector<mr::MofLocation>& sources) {
  struct Fetched {
    std::vector<uint8_t> in_memory;
    std::filesystem::path spilled;  // non-empty if written to disk
    bool compressed = false;
  };
  std::map<int, Fetched> results;
  Mutex results_mu;
  Status first_error;
  std::atomic<size_t> memory_used{0};

  {
    // MOFCopier thread pool; each copier pulls fetch tasks.
    ThreadPool copiers(static_cast<size_t>(options_.copier_threads),
                       "mof-copiers");
    for (const mr::MofLocation& source : sources) {
      copiers.Submit([&, source] {
        // MOFCopiers retry transient fetch failures with backoff before
        // reporting the map output as lost.
        const auto fetch_start = std::chrono::steady_clock::now();
        StatusOr<FetchedBody> body = Unavailable("not fetched");
        for (int attempt = 0; attempt < options_.max_fetch_attempts;
             ++attempt) {
          if (attempt > 0) {
            // Capped + jittered (common/rng.h): the naive
            // `base << (attempt - 1)` both overflows int and sleeps for
            // days once attempt counts grow.
            int64_t backoff;
            {
              MutexLock lock(rng_mu_);
              backoff = CappedJitteredBackoffMs(
                  options_.retry_backoff_ms, attempt,
                  options_.max_retry_backoff_ms, rng_);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
          }
          body = FetchOne(source, partition);
          if (body.ok() || body.status().code() == StatusCode::kNotFound) {
            break;  // 404 is permanent
          }
        }
        // Same span as NetMerger's fetch-latency series: the whole fetch
        // including retries, so the two clients compare like for like.
        fetch_latency_ms_h_->Observe(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - fetch_start)
                .count());
        MutexLock lock(results_mu);
        if (!body.ok()) {
          fetch_errors_c_->Increment();
          if (first_error.ok()) first_error = body.status();
          return;
        }
        Fetched fetched;
        fetched.compressed = body->compressed;
        const size_t size = body->bytes.size();
        if (memory_used.load() + size > options_.in_memory_budget &&
            !options_.spill_dir.empty()) {
          // Reduce-side spill: write the segment to local disk, to be read
          // back during the merge — the extra disk round trip JBS's
          // network-levitated merge avoids.
          const auto path =
              options_.spill_dir /
              ("copier_spill_" + std::to_string(spill_seq_.fetch_add(1)));
          std::ofstream out(path, std::ios::binary);
          out.write(reinterpret_cast<const char*>(body->bytes.data()),
                    static_cast<std::streamsize>(body->bytes.size()));
          if (!out) {
            if (first_error.ok()) first_error = IoError("spill write failed");
            return;
          }
          fetched.spilled = path;
          spills_c_->Increment();
        } else {
          memory_used.fetch_add(size);
          fetched.in_memory = std::move(body->bytes);
        }
        results[source.map_task] = std::move(fetched);
      });
    }
    copiers.Shutdown();
  }
  JBS_RETURN_IF_ERROR(first_error);

  std::vector<std::unique_ptr<mr::RecordStream>> streams;
  streams.reserve(sources.size());
  for (const mr::MofLocation& source : sources) {
    auto it = results.find(source.map_task);
    if (it == results.end()) {
      return Internal("missing fetch result for map " +
                      std::to_string(source.map_task));
    }
    std::vector<uint8_t> data = std::move(it->second.in_memory);
    if (!it->second.spilled.empty()) {
      // Read the spill back (the disk round trip).
      std::ifstream in(it->second.spilled, std::ios::binary | std::ios::ate);
      if (!in) return IoError("cannot re-open spill");
      data.resize(static_cast<size_t>(in.tellg()));
      in.seekg(0);
      in.read(reinterpret_cast<char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
      std::error_code ec;
      std::filesystem::remove(it->second.spilled, ec);
    }
    auto owned = std::make_shared<const std::vector<uint8_t>>(std::move(data));
    auto stream = mr::OpenSegment(*owned, owned, it->second.compressed);
    JBS_RETURN_IF_ERROR(stream.status());
    streams.push_back(std::move(stream).value());
  }
  return std::unique_ptr<mr::RecordStream>(
      std::make_unique<mr::KWayMerger>(std::move(streams)));
}

}  // namespace jbs::baseline
