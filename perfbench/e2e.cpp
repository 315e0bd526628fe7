// End-to-end shuffle benchmark: real-mode shuffles through the shipped
// ShufflePlugin boundary, over loopback TCP, in one process.
//
//   MOFs on disk -> ShuffleServer::PublishMof -> ShuffleClient::FetchAndMerge
//   -> drain the merged RecordStream
//
// The process is the whole cluster: one server per supplier node and one
// client shared by the workload's reducer threads. Each reducer thread runs
// a closed loop: it calls the next FetchAndMerge only after draining the
// previous stream. A job publishes the MOFs under fresh map-task ids, so
// every (map, partition) segment is fetched exactly once, as in a real job;
// the first job of a run is warm-up and is not measured. Every merged
// stream is checked against an oracle (record count, key order, an
// order-insensitive digest) computed when the inputs were generated, and
// the JBS counters are checked for conservation at the end of the run.
//
// --trace 0 measures the end-to-end metrics. --trace 1 is the separate
// traced run: it records spans around each call this file makes into a
// layer, replays the per-byte and per-record layers over the workload's
// own data, runs the HTTP and local reference shuffles on the same inputs,
// and writes the spans as Chrome trace-event JSON. perfbench/README.md
// defines every metric.
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baseline/plugin.h"
#include "common/bytes.h"
#include "common/compress.h"
#include "common/config.h"
#include "common/framing.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "jbs/plugin.h"
#include "mapred/ifile.h"
#include "mapred/local_shuffle.h"
#include "mapred/merger.h"
#include "mapred/mof.h"
#include "mapred/shuffle.h"

namespace {

using namespace jbs;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

constexpr double kMB = 1e6;

// ---------------------------------------------------------------------------
// Oracle hashing. The digest of a record multiset is the wrapping sum of
// per-record hashes, so it is independent of merge order. The hash runs on
// the reducer thread inside the timed drain, so it reads eight bytes at a
// time over four independent lanes to stay a small share of shuffle time.

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint64_t HashBytes(const void* data, size_t n, uint64_t seed) {
  constexpr uint64_t kMul = 0x9E3779B97F4A7C15ull;
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t lane[4] = {seed, seed ^ 0x243F6A8885A308D3ull,
                      seed ^ 0x13198A2E03707344ull,
                      seed ^ 0xA4093822299F31D0ull};
  const auto step = [](uint64_t h, uint64_t w) {
    h ^= w;
    return ((h << 29) | (h >> 35)) * kMul;
  };
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (int k = 0; k < 4; ++k) {
      uint64_t w = 0;
      std::memcpy(&w, p + i + 8 * static_cast<size_t>(k), 8);
      lane[k] = step(lane[k], w);
    }
  }
  for (; i + 8 <= n; i += 8) {
    uint64_t w = 0;
    std::memcpy(&w, p + i, 8);
    lane[0] = step(lane[0], w);
  }
  uint64_t tail = 0;
  std::memcpy(&tail, p + i, n - i);
  lane[1] = step(lane[1], tail);
  return Mix64(lane[0] ^ Mix64(lane[1] + n) ^ Mix64(lane[2]) * 3 ^
               Mix64(lane[3]) * 5);
}

uint64_t RecordHash(const std::string& key, const std::string& value) {
  return Mix64(HashBytes(key.data(), key.size(), 1) * 31 +
               HashBytes(value.data(), value.size(), 2));
}

// ---------------------------------------------------------------------------
// Workloads. Each one stresses a different set of layers; README.md records
// why each exists and which metrics it should move.

enum class ValueKind { kRandom, kTerasort, kZipf };

struct Workload {
  const char* name;
  int nodes;          // supplier nodes, one ShuffleServer each
  int reducers;       // reducer threads sharing the one ShuffleClient
  int maps_per_node;  // MOFs per node
  int partitions;     // partitions per MOF = shuffles per job
  int records;        // records per segment
  size_t value_len;   // value bytes (zipf: minimum, whole words)
  ValueKind kind;
  bool wire_compress;  // jbs.wire.compress.enabled

  int maps() const { return nodes * maps_per_node; }
};

constexpr size_t kKeyLen = 10;

// bulk_1sup: a 10 B key, a 4082 B value and 4 B of varints make each
// record 4096 B, so a segment is 4 MiB and a partition 32 MiB.
constexpr Workload kWorkloads[] = {
    {"bulk_1sup", 1, 1, 8, 4, 1024, 4082, ValueKind::kRandom, false},
    {"small_4sup", 4, 2, 8, 4, 2600, 90, ValueKind::kTerasort, false},
    {"zipf_compress", 2, 1, 4, 4, 6000, 150, ValueKind::kZipf, true},
};

const char* const kVocab[] = {
    "clickstream", "impression", "session", "checkout", "pageview", "search",
    "basket",      "login",      "logout",  "refund",   "cart",     "banner",
    "referrer",    "campaign",   "mobile",  "desktop"};
constexpr uint64_t kVocabSize = sizeof(kVocab) / sizeof(kVocab[0]);

void FillValue(const Workload& w, Rng& rng, std::string* value) {
  switch (w.kind) {
    case ValueKind::kRandom: {
      value->resize(w.value_len);
      size_t i = 0;
      for (; i + 8 <= value->size(); i += 8) {
        const uint64_t r = rng.Next();
        std::memcpy(value->data() + i, &r, 8);
      }
      for (; i < value->size(); ++i) {
        (*value)[i] = static_cast<char>(rng.Next());
      }
      break;
    }
    case ValueKind::kTerasort: {
      value->resize(w.value_len);
      for (size_t i = 0; i < value->size(); i += 8) {
        uint64_t r = rng.Next();
        for (size_t k = i; k < std::min(i + 8, value->size()); ++k) {
          (*value)[k] = static_cast<char>('A' + (r & 0xFF) % 26);
          r >>= 8;
        }
      }
      break;
    }
    case ValueKind::kZipf:
      value->clear();
      while (value->size() < w.value_len) {
        value->append(kVocab[rng.NextZipf(kVocabSize, 1.2) - 1]);
        value->push_back(' ');
      }
      break;
  }
}

/// One generated IFile segment plus its oracle.
struct Segment {
  std::vector<uint8_t> bytes;
  uint64_t records = 0;
  uint64_t digest = 0;
};

/// Segment `partition` of map `map`: sorted records drawn from a stream
/// that depends only on (seed, workload, map, partition).
Segment GenerateSegment(const Workload& w, uint64_t seed, int map,
                        int partition) {
  const uint64_t salt = HashBytes(w.name, std::strlen(w.name), 7);
  Rng rng(Mix64(seed) ^ Mix64(salt + (static_cast<uint64_t>(map) << 20) +
                               static_cast<uint64_t>(partition)));
  std::vector<mr::Record> records(static_cast<size_t>(w.records));
  for (mr::Record& record : records) {
    record.key.resize(kKeyLen);
    for (char& c : record.key) c = static_cast<char>(' ' + rng.Below(95));
    FillValue(w, rng, &record.value);
  }
  std::sort(records.begin(), records.end(),
            [](const mr::Record& a, const mr::Record& b) {
              return a.key < b.key;
            });
  mr::IFileWriter writer;
  Segment segment;
  for (const mr::Record& record : records) {
    writer.Append(record);
    segment.digest += RecordHash(record.key, record.value);
  }
  segment.records = writer.records();
  segment.bytes = writer.Finish();
  return segment;
}

/// What every merged stream of one partition must deliver.
struct Expected {
  uint64_t records = 0;
  uint64_t digest = 0;
  uint64_t bytes = 0;  // logical IFile bytes, summed over the maps
};

// ---------------------------------------------------------------------------
// Spans recorded around the benchmark's own calls into each layer. Kept in
// memory and written out once, at the end, as Chrome trace-event JSON.

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  struct Span {
    const char* name = "";
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root
    uint64_t trace = 0;   // spans of one shuffle (or one setup) share it
    int tid = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    bool mark = false;  // instant event
  };

  /// Records one span over its lifetime; does nothing when tracing is off.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, uint64_t parent, uint64_t trace)
        : tracer_(tracer), name_(name), parent_(parent), trace_(trace) {
      if (!tracer_.enabled_) return;
      id_ = tracer_.next_id_.fetch_add(1) + 1;
      start_ns_ = tracer_.NowNs();
    }
    ~Scope() {
      if (!tracer_.enabled_) return;
      tracer_.Add({name_, id_, parent_, trace_, ThreadIndex(), start_ns_,
                   tracer_.NowNs(), false});
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    uint64_t id() const { return id_; }

   private:
    Tracer& tracer_;
    const char* name_;
    uint64_t parent_;
    uint64_t trace_;
    uint64_t id_ = 0;
    int64_t start_ns_ = 0;
  };

  uint64_t NewTrace() { return enabled_ ? next_trace_.fetch_add(1) + 1 : 0; }

  void Mark(const char* name, uint64_t parent, uint64_t trace) {
    if (!enabled_) return;
    const int64_t now = NowNs();
    Add({name, next_id_.fetch_add(1) + 1, parent, trace, ThreadIndex(), now,
         now, true});
  }

  struct SelfTime {
    uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  /// Per "parent/name" path: a span's self time is its duration minus the
  /// time its child spans cover (children of one span never overlap here:
  /// each is a sequential call on the parent's thread).
  std::map<std::string, SelfTime> SelfTimes() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    std::map<uint64_t, int64_t> child_ns;
    std::map<uint64_t, const char*> names;
    for (const Span& s : spans_) {
      if (s.mark) continue;
      names[s.id] = s.name;
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, SelfTime> out;
    for (const Span& s : spans_) {
      if (s.mark) continue;
      const auto parent = names.find(s.parent);
      SelfTime& t = out[parent == names.end()
                            ? std::string(s.name)
                            : std::string(parent->second) + "/" + s.name];
      const int64_t dur = s.end_ns - s.start_ns;
      const auto it = child_ns.find(s.id);
      ++t.count;
      t.total_ms += static_cast<double>(dur) * 1e-6;
      t.self_ms += static_cast<double>(
                       dur - (it == child_ns.end() ? 0 : it->second)) *
                   1e-6;
    }
    return out;
  }

  size_t size() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return spans_.size();
  }

  bool WriteChromeJson(const fs::path& path) const EXCLUDES(mu_) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    MutexLock lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      // A span is a complete event ("X"), a mark a thread-scoped instant.
      char shape[64];
      if (s.mark) {
        std::snprintf(shape, sizeof(shape), "\"ph\":\"i\",\"s\":\"t\"");
      } else {
        std::snprintf(shape, sizeof(shape), "\"ph\":\"X\",\"dur\":%.3f",
                      static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
      }
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"perfbench\",%s,\"ts\":%.3f,"
                   "\"pid\":1,\"tid\":%d,\"args\":{\"span\":%llu,"
                   "\"parent\":%llu,\"trace\":%llu}}%s\n",
                   s.name, shape, static_cast<double>(s.start_ns) * 1e-3,
                   s.tid, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.trace),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static int ThreadIndex() {
    static std::atomic<int> next{0};
    thread_local const int index = next.fetch_add(1) + 1;
    return index;
  }
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  void Add(const Span& span) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    spans_.push_back(span);
  }

  const bool enabled_;
  const Clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> next_trace_{0};
  mutable Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------------
// Inputs and the shuffle systems under test.

struct Inputs {
  std::vector<mr::MofHandle> handles;  // index = map; node = map / per node
  std::vector<Expected> expected;      // index = partition
};

/// Generates and writes every MOF of the workload under `dir`.
/// `mof_write_ms` receives the MofWriter time of each MOF.
StatusOr<Inputs> WriteInputs(const Workload& w, uint64_t seed,
                             const fs::path& dir, Tracer& tracer,
                             uint64_t parent, uint64_t trace,
                             std::vector<double>* mof_write_ms) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return IoError("create " + dir.string() + ": " + ec.message());
  Inputs inputs;
  inputs.expected.resize(static_cast<size_t>(w.partitions));
  for (int m = 0; m < w.maps(); ++m) {
    std::vector<Segment> segments;
    for (int p = 0; p < w.partitions; ++p) {
      segments.push_back(GenerateSegment(w, seed, m, p));
      Expected& e = inputs.expected[static_cast<size_t>(p)];
      e.records += segments.back().records;
      e.digest += segments.back().digest;
      e.bytes += segments.back().bytes.size();
    }
    Tracer::Scope span(tracer, "mof_write", parent, trace);
    const auto start = Clock::now();
    mr::MofWriter writer(dir / ("mof_" + std::to_string(m)));
    for (const Segment& segment : segments) {
      JBS_RETURN_IF_ERROR(writer.AppendSegment(segment.bytes, segment.records));
    }
    auto handle = writer.Finish(m, m / w.maps_per_node);
    JBS_RETURN_IF_ERROR(handle.status());
    mof_write_ms->push_back(MsBetween(start, Clock::now()));
    inputs.handles.push_back(*handle);
  }
  return inputs;
}

enum class System { kJbs, kHttp, kLocal };

/// One shuffle system: a server per supplier node and one client, all from
/// one ShufflePlugin, as the engine wires them for a job.
struct Cluster {
  Cluster() = default;
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster() { Stop(); }

  void Stop() {
    if (stopped) return;
    stopped = true;
    if (client) client->Stop();
    for (auto& server : servers) server->Stop();
  }

  std::unique_ptr<mr::ShufflePlugin> plugin;
  shuffle::JbsShufflePlugin* jbs = nullptr;  // plugin, when System::kJbs
  std::vector<std::unique_ptr<mr::ShuffleServer>> servers;
  std::unique_ptr<mr::ShuffleClient> client;
  int next_job = 0;
  bool stopped = false;
};

/// Publishes every MOF under job `job`'s map-task ids. Ids never repeat
/// across jobs, so no supplier memo keyed by (map, partition) can hit.
Status Publish(Cluster& c, const Workload& w, const Inputs& inputs, int job,
               Tracer& tracer, uint64_t parent, uint64_t trace) {
  for (int node = 0; node < w.nodes; ++node) {
    Tracer::Scope span(tracer, "publish", parent, trace);
    for (int m = node * w.maps_per_node; m < (node + 1) * w.maps_per_node;
         ++m) {
      mr::MofHandle handle = inputs.handles[static_cast<size_t>(m)];
      handle.map_task = job * w.maps() + m;
      JBS_RETURN_IF_ERROR(
          c.servers[static_cast<size_t>(node)]->PublishMof(handle));
    }
  }
  return Status::Ok();
}

Status StartCluster(System system, const Workload& w, const Config& conf,
                    const fs::path& dir, const Inputs& inputs, Tracer& tracer,
                    uint64_t parent, uint64_t trace, Cluster* c) {
  switch (system) {
    case System::kJbs: {
      auto plugin = std::make_unique<shuffle::JbsShufflePlugin>(
          shuffle::JbsShufflePlugin::OptionsFromConfig(conf));
      c->jbs = plugin.get();
      c->plugin = std::move(plugin);
      break;
    }
    case System::kHttp: {
      baseline::HadoopShuffleOptions options;  // no JVM penalty
      options.spill_dir = dir / "http_spill";
      c->plugin = std::make_unique<baseline::HadoopShufflePlugin>(options);
      break;
    }
    case System::kLocal:
      c->plugin = std::make_unique<mr::LocalShufflePlugin>();
      break;
  }
  for (int node = 0; node < w.nodes; ++node) {
    c->servers.push_back(c->plugin->CreateServer(node, conf));
    JBS_RETURN_IF_ERROR(c->servers.back()->Start());
  }
  c->client = c->plugin->CreateClient(w.nodes, conf);
  return Publish(*c, w, inputs, 0, tracer, parent, trace);
}

// ---------------------------------------------------------------------------
// The closed-loop shuffle driver.

struct Sample {
  bool ok = false;
  std::string error;
  double shuffle_ms = 0;          // FetchAndMerge call -> last record
  double first_record_ms = 0;     // FetchAndMerge call -> first record
  double fetch_and_merge_ms = 0;  // FetchAndMerge call -> it returns
  double drain_ms = 0;            // FetchAndMerge return -> last record
  double drain_cpu_s = 0;         // reducer-thread CPU inside the drain
  uint64_t records = 0;
};

/// One reduce's shuffle: FetchAndMerge, then drain the stream through the
/// oracle. Times are steady_clock wall time; CPU only in drain_cpu_s.
Sample ShuffleOnce(mr::ShuffleClient& client, int partition,
                   const std::vector<mr::MofLocation>& sources,
                   const Expected& expected, Tracer& tracer,
                   const char* root_name) {
  Sample s;
  const uint64_t trace = tracer.NewTrace();
  Tracer::Scope root(tracer, root_name, 0, trace);
  const auto start = Clock::now();
  auto stream = [&] {
    Tracer::Scope span(tracer, "fetch_and_merge", root.id(), trace);
    return client.FetchAndMerge(partition, sources);
  }();
  const auto merged = Clock::now();
  s.fetch_and_merge_ms = MsBetween(start, merged);
  if (!stream.ok()) {
    s.error = "FetchAndMerge(" + std::to_string(partition) +
              "): " + stream.status().ToString();
    return s;
  }
  mr::RecordStream& records = **stream;
  uint64_t n = 0;
  uint64_t digest = 0;
  bool sorted = true;
  std::string prev_key;
  mr::Record record;
  Clock::time_point first = merged;
  const double cpu0 = ThreadCpuSeconds();
  {
    Tracer::Scope span(tracer, "drain", root.id(), trace);
    while (records.Next(&record)) {
      if (n == 0) {
        first = Clock::now();
        tracer.Mark("first_record", span.id(), trace);
      } else if (record.key < prev_key) {
        sorted = false;
      }
      prev_key.assign(record.key);
      digest += RecordHash(record.key, record.value);
      ++n;
    }
  }
  const auto end = Clock::now();
  s.drain_cpu_s = ThreadCpuSeconds() - cpu0;
  s.shuffle_ms = MsBetween(start, end);
  s.first_record_ms = MsBetween(start, first);
  s.drain_ms = MsBetween(merged, end);
  s.records = n;
  if (!records.status().ok()) {
    s.error = "stream: " + records.status().ToString();
  } else if (n != expected.records) {
    s.error = "oracle: " + std::to_string(n) + " records, expected " +
              std::to_string(expected.records);
  } else if (!sorted) {
    s.error = "oracle: keys out of order";
  } else if (digest != expected.digest) {
    s.error = "oracle: record digest mismatch";
  } else {
    s.ok = true;
  }
  return s;
}

/// CPU time the hypervisor has stolen from this machine so far (the steal
/// column of /proc/stat), in seconds; 0 where the kernel does not say.
double HostStealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t ticks[8] = {};
  in >> cpu;
  for (uint64_t& t : ticks) in >> t;
  return static_cast<double>(ticks[7]) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

// A job during which the host stole more than this share of the machine's
// CPU time measured the host, not the program: on a shared VM, steal comes
// in bursts of seconds that slow every stage of the pipeline at once.
constexpr double kMaxStealShare = 0.05;

/// One job's shuffles and costs.
struct JobRecord {
  std::vector<Sample> samples;  // shuffles that passed the oracle
  uint64_t bytes = 0;           // their logical IFile bytes
  double wall_s = 0;
  double process_cpu_s = 0;
  double reducer_cpu_s = 0;  // reducer threads, whole thread lifetime
  bool disturbed = false;    // host steal above kMaxStealShare
};

/// Accumulated over the jobs run into it.
struct Tally {
  std::vector<JobRecord> jobs;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
  uint64_t verified_bytes = 0;  // every shuffle that passed the oracle
};

/// What the statistics are computed from: the undisturbed jobs of a
/// tally, or all of them when the host disturbed every one.
struct Measured {
  std::vector<Sample> samples;
  // Per job: logical MB per wall second, and process CPU ms per logical
  // MB. Their medians damp the odd stalled job that a whole-run ratio
  // would carry.
  std::vector<double> job_mbs;
  std::vector<double> job_cpu_ms_per_mb;
  double process_cpu_s = 0;
  double reducer_cpu_s = 0;
  uint64_t bytes = 0;
  size_t jobs = 0;
  size_t disturbed = 0;  // jobs left out
};

Measured Summarize(const Tally& tally) {
  const bool all_disturbed =
      std::all_of(tally.jobs.begin(), tally.jobs.end(),
                  [](const JobRecord& j) { return j.disturbed; });
  Measured m;
  for (const JobRecord& j : tally.jobs) {
    if (j.disturbed && !all_disturbed) {
      ++m.disturbed;
      continue;
    }
    ++m.jobs;
    m.samples.insert(m.samples.end(), j.samples.begin(), j.samples.end());
    m.process_cpu_s += j.process_cpu_s;
    m.reducer_cpu_s += j.reducer_cpu_s;
    m.bytes += j.bytes;
    const double mb = static_cast<double>(j.bytes) / kMB;
    if (mb > 0) {
      m.job_mbs.push_back(mb / j.wall_s);
      m.job_cpu_ms_per_mb.push_back(j.process_cpu_s * 1e3 / mb);
    }
  }
  return m;
}

std::vector<double> Of(const std::vector<Sample>& samples,
                       double Sample::*field) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.*field);
  return out;
}

/// Runs one job: publishes fresh map ids (job 0 was published at setup),
/// then the reducer threads shuffle every partition, closed loop.
void RunJob(Cluster& c, const Workload& w, const Inputs& inputs,
            Tracer& tracer, const char* root_name, Tally* tally) {
  const int job = c.next_job++;
  const auto start = Clock::now();
  const double cpu0 = ProcessCpuSeconds();
  const double steal0 = HostStealSeconds();
  if (job > 0) {
    if (Status st = Publish(c, w, inputs, job, tracer, 0, 0); !st.ok()) {
      tally->attempted += static_cast<uint64_t>(w.partitions);
      tally->failed += static_cast<uint64_t>(w.partitions);
      if (tally->first_error.empty()) tally->first_error = st.ToString();
      return;
    }
  }
  std::vector<mr::MofLocation> sources;
  for (int m = 0; m < w.maps(); ++m) {
    const int node = m / w.maps_per_node;
    sources.push_back({job * w.maps() + m, node, "127.0.0.1",
                       c.servers[static_cast<size_t>(node)]->port()});
  }
  const size_t reducers = static_cast<size_t>(w.reducers);
  std::vector<std::vector<Sample>> samples(reducers);
  std::vector<double> thread_cpu(reducers, 0);
  std::vector<std::thread> threads;
  for (size_t r = 0; r < reducers; ++r) {
    threads.emplace_back([&, r] {
      const double t0 = ThreadCpuSeconds();
      for (int p = static_cast<int>(r); p < w.partitions;
           p += static_cast<int>(reducers)) {
        const Expected& expected = inputs.expected[static_cast<size_t>(p)];
        samples[r].push_back(
            ShuffleOnce(*c.client, p, sources, expected, tracer, root_name));
      }
      thread_cpu[r] = ThreadCpuSeconds() - t0;
    });
  }
  for (std::thread& t : threads) t.join();
  JobRecord record;
  record.wall_s = SecondsSince(start);
  record.process_cpu_s = ProcessCpuSeconds() - cpu0;
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  const double capacity_s = record.wall_s * static_cast<double>(cpus);
  record.disturbed = HostStealSeconds() - steal0 > kMaxStealShare * capacity_s;
  for (size_t r = 0; r < reducers; ++r) {
    record.reducer_cpu_s += thread_cpu[r];
    for (size_t i = 0; i < samples[r].size(); ++i) {
      Sample& s = samples[r][i];
      const size_t partition = r + i * reducers;
      ++tally->attempted;
      if (!s.ok) {
        ++tally->failed;
        if (tally->first_error.empty()) tally->first_error = s.error;
        continue;
      }
      record.bytes += inputs.expected[partition].bytes;
      record.samples.push_back(std::move(s));
    }
  }
  tally->verified_bytes += record.bytes;
  tally->jobs.push_back(std::move(record));
}

// ---------------------------------------------------------------------------
// JBS counters, read from the components' public stats after Stop().

struct JbsCounters {
  shuffle::NetMerger::MergerStats merger;
  uint64_t requests = 0;
  uint64_t bytes_served = 0;
  uint64_t bytes_logical = 0;
  uint64_t bytes_wire = 0;
  uint64_t batches = 0;
  uint64_t group_switches = 0;
  uint64_t errors = 0;
  uint64_t shed = 0;
  uint64_t fd_hits = 0;
  uint64_t fd_misses = 0;
  uint64_t index_hits = 0;
  uint64_t index_misses = 0;
  uint64_t crc_memo_hits = 0;
  uint64_t crc_memo_misses = 0;
  uint64_t compress_memo_hits = 0;
};

JbsCounters ReadJbsCounters(const Cluster& c) {
  JbsCounters k;
  if (const auto* merger =
          dynamic_cast<const shuffle::NetMerger*>(c.client.get())) {
    k.merger = merger->merger_stats();
  }
  for (size_t node = 0; node < c.servers.size(); ++node) {
    const auto* supplier =
        dynamic_cast<const shuffle::MofSupplier*>(c.servers[node].get());
    if (supplier == nullptr) continue;
    const auto s = supplier->supplier_stats();
    k.requests += s.requests;
    k.bytes_served += s.bytes_served;
    k.bytes_logical += s.bytes_logical;
    k.bytes_wire += s.bytes_wire;
    k.batches += s.batches;
    k.group_switches += s.group_switches;
    k.errors += s.errors;
    k.shed += s.shed;
    k.fd_hits += s.fd.hits;
    k.fd_misses += s.fd.misses;
    k.index_hits += s.index.hits;
    k.index_misses += s.index.misses;
    // The chunk memos are visible only through the plugin's registry.
    const MetricLabels labels{{"server", "mofsupplier"},
                              {"instance", "node" + std::to_string(node)}};
    const auto counter = [&](const char* name) {
      return c.jbs->metrics().GetCounter(name, labels)->value();
    };
    k.crc_memo_hits += counter("jbs_mofsupplier_crc_cache_hits_total");
    k.crc_memo_misses += counter("jbs_mofsupplier_crc_cache_misses_total");
    k.compress_memo_hits +=
        counter("jbs_mofsupplier_compress_cache_hits_total");
  }
  return k;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Conservation laws over a whole run's JBS traffic. A failure means the
/// benchmark measured a different program than it claims to.
std::vector<std::string> CheckConservation(const Workload& w,
                                           const JbsCounters& k,
                                           uint64_t expected_bytes,
                                           uint64_t copied_bytes) {
  std::vector<std::string> failures;
  const auto check = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };
  check(k.bytes_served == k.merger.bytes_fetched &&
            k.bytes_served == expected_bytes,
        "bytes served " + std::to_string(k.bytes_served) + " / fetched " +
            std::to_string(k.merger.bytes_fetched) + " / expected " +
            std::to_string(expected_bytes) + " disagree");
  check(k.requests == k.merger.chunks + k.shed + k.errors,
        "supplier requests " + std::to_string(k.requests) +
            " != merger chunks " + std::to_string(k.merger.chunks) +
            " + shed " + std::to_string(k.shed) + " + errors " +
            std::to_string(k.errors));
  check(w.wire_compress || copied_bytes == 0,
        "payload bytes copied on a raw workload: " +
            std::to_string(copied_bytes));
  check(k.merger.chunks_corrupt == 0,
        "corrupt chunks: " + std::to_string(k.merger.chunks_corrupt));
  // Fresh map ids and zero retries: a chunk-memo hit means a segment was
  // served twice, which real jobs do not do.
  check(k.crc_memo_hits == 0 && k.compress_memo_hits == 0,
        "chunk memo hits: CRC " + std::to_string(k.crc_memo_hits) +
            ", compress " + std::to_string(k.compress_memo_hits));
  return failures;
}

// ---------------------------------------------------------------------------
// Layer replays over the workload's own data (traced run only).

std::atomic<uint64_t> g_sink{0};

/// Runs `pass` at least three times and until `budget_s` has passed;
/// returns the median of the per-pass values it reports.
template <typename Pass>
double MedianOfPasses(double budget_s, Pass pass) {
  std::vector<double> values;
  const auto start = Clock::now();
  while (values.size() < 3 || SecondsSince(start) < budget_s) {
    values.push_back(pass());
  }
  return Quantile(values, 0.5);
}

struct Replays {
  double crc32_ns_per_byte = 0;
  double compress_ns_per_byte = 0;
  double decompress_ns_per_byte = 0;
  double ifile_decode_ns_per_record = 0;
  double kway_merge_ns_per_record = 0;
  double chunk_roundtrip_us_p50 = 0;
};

constexpr size_t kChunkBytes = 128 * 1024;
constexpr size_t kMaxReplayChunks = 64;  // 8 MiB per replay pass

Status ReplayLayers(const Inputs& inputs, net::Transport& transport,
                    double budget_s, Tracer& tracer, Replays* out) {
  // Partition 0 of every MOF: the segments one reduce merges.
  std::vector<std::vector<uint8_t>> segments;
  for (const mr::MofHandle& handle : inputs.handles) {
    auto reader = mr::MofReader::Open(handle);
    JBS_RETURN_IF_ERROR(reader.status());
    segments.emplace_back();
    JBS_RETURN_IF_ERROR(reader->ReadSegment(0, segments.back()));
  }
  std::vector<std::span<const uint8_t>> chunks;
  for (const auto& segment : segments) {
    for (size_t off = 0;
         off < segment.size() && chunks.size() < kMaxReplayChunks;
         off += kChunkBytes) {
      chunks.emplace_back(segment.data() + off,
                          std::min(kChunkBytes, segment.size() - off));
    }
  }
  uint64_t chunk_bytes = 0;
  for (const auto& chunk : chunks) chunk_bytes += chunk.size();
  const double per_replay_s = budget_s / 6;
  const auto ns_per = [](Clock::time_point start, uint64_t units) {
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
               .count() /
           static_cast<double>(std::max<uint64_t>(units, 1));
  };

  {
    Tracer::Scope span(tracer, "replay.crc32", 0, tracer.NewTrace());
    out->crc32_ns_per_byte = MedianOfPasses(per_replay_s, [&] {
      const auto start = Clock::now();
      uint32_t crc = 0;
      for (const auto& chunk : chunks) crc ^= Crc32(chunk);
      g_sink.fetch_add(crc, std::memory_order_relaxed);
      return ns_per(start, chunk_bytes);
    });
  }
  std::vector<std::vector<uint8_t>> compressed;
  for (const auto& chunk : chunks) compressed.push_back(Compress(chunk));
  {
    Tracer::Scope span(tracer, "replay.compress", 0, tracer.NewTrace());
    out->compress_ns_per_byte = MedianOfPasses(per_replay_s, [&] {
      const auto start = Clock::now();
      for (const auto& chunk : chunks) {
        g_sink.fetch_add(Compress(chunk).size(), std::memory_order_relaxed);
      }
      return ns_per(start, chunk_bytes);
    });
  }
  {
    Tracer::Scope span(tracer, "replay.decompress", 0, tracer.NewTrace());
    Status failed;
    out->decompress_ns_per_byte = MedianOfPasses(per_replay_s, [&] {
      const auto start = Clock::now();
      for (const auto& block : compressed) {
        auto raw = Decompress(block);
        if (!raw.ok()) {
          failed = raw.status();
          continue;
        }
        g_sink.fetch_add(raw->size(), std::memory_order_relaxed);
      }
      return ns_per(start, chunk_bytes);
    });
    JBS_RETURN_IF_ERROR(failed);
  }

  const uint64_t partition_records = inputs.expected[0].records;
  {
    Tracer::Scope span(tracer, "replay.ifile_decode", 0, tracer.NewTrace());
    Status failed;
    out->ifile_decode_ns_per_record = MedianOfPasses(per_replay_s, [&] {
      const auto start = Clock::now();
      mr::Record record;
      for (const auto& segment : segments) {
        mr::IFileReader reader(segment);
        while (reader.Next(&record)) {
        }
        if (!reader.status().ok()) failed = reader.status();
        g_sink.fetch_add(reader.records_read(), std::memory_order_relaxed);
      }
      return ns_per(start, partition_records);
    });
    JBS_RETURN_IF_ERROR(failed);
  }
  {
    Tracer::Scope span(tracer, "replay.kway_merge", 0, tracer.NewTrace());
    Status failed;
    out->kway_merge_ns_per_record = MedianOfPasses(per_replay_s, [&] {
      std::vector<std::unique_ptr<mr::RecordStream>> streams;
      for (const auto& segment : segments) {
        streams.push_back(std::make_unique<mr::SegmentStream>(segment));
      }
      const auto start = Clock::now();
      mr::KWayMerger merger(std::move(streams));
      mr::Record record;
      uint64_t n = 0;
      while (merger.Next(&record)) ++n;
      if (!merger.status().ok()) failed = merger.status();
      g_sink.fetch_add(n, std::memory_order_relaxed);
      return ns_per(start, partition_records);
    });
    JBS_RETURN_IF_ERROR(failed);
  }

  // One request out, one 128 KiB zero-copy reply back, through a bare
  // ServerEndpoint of the shuffle's own transport.
  Tracer::Scope span(tracer, "replay.transport_roundtrip", 0,
                     tracer.NewTrace());
  auto endpoint = transport.CreateServer();
  JBS_RETURN_IF_ERROR(endpoint.status());
  net::ServerEndpoint* server = endpoint->get();
  const auto reply =
      std::make_shared<const std::vector<uint8_t>>(kChunkBytes, 0x5A);
  net::ServerEndpoint::Handlers handlers;
  handlers.on_frame = [server, reply](net::ConnId conn, Frame) {
    Frame frame;
    frame.type = 2;
    frame.ext = {reply->data(), reply->size()};
    (void)server->SendAsync(conn, std::move(frame),
                            std::shared_ptr<const void>(reply, reply->data()));
  };
  JBS_RETURN_IF_ERROR(server->Start(std::move(handlers)));
  auto conn = transport.Connect("127.0.0.1", server->port());
  if (!conn.ok()) {
    server->Stop();
    return conn.status();
  }
  Frame request;
  request.type = 1;
  request.payload.resize(32);
  std::vector<double> rtt_us;
  Status failed;
  const auto start = Clock::now();
  while (rtt_us.size() < 100 || SecondsSince(start) < per_replay_s) {
    const auto t0 = Clock::now();
    failed = (*conn)->Send(request);
    if (!failed.ok()) break;
    auto got = (*conn)->Receive();
    if (!got.ok() || got->payload.size() != kChunkBytes) {
      failed = got.ok() ? Internal("short reply") : got.status();
      break;
    }
    rtt_us.push_back(MsBetween(t0, Clock::now()) * 1e3);
  }
  (*conn)->Close();
  server->Stop();
  JBS_RETURN_IF_ERROR(failed);
  out->chunk_roundtrip_us_p50 = Quantile(rtt_us, 0.5);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Process memory: VmHWM is reset to the current RSS by writing "5" to
// /proc/self/clear_refs, so the peak read at the end covers only what ran
// after the reset.

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

/// A "Vm...:" field of /proc/self/status, in MB.
double ProcStatusMB(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::stod(line.substr(len + 1)) * 1024 / kMB;  // kB field
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-44s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

/// The result line: the last line of standard output.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool input_digest = false;
  fs::path data_dir;
  fs::path trace_out;
};

constexpr int kSetupReps = 5;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_e2e: %s\n"
               "usage: perfbench_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 --data-dir DIR [--trace-out FILE]\n"
               "       (--trace-out is required with --trace 1)\n"
               "       perfbench_e2e --workload NAME --seed N --input-digest\n"
               "workloads: bulk_1sup small_4sup zipf_compress\n",
               why);
  return 2;
}

/// Digest of every generated segment's bytes: depends only on the seed
/// and the workload.
uint64_t InputDigest(const Workload& w, uint64_t seed) {
  uint64_t digest = 0;
  for (int m = 0; m < w.maps(); ++m) {
    for (int p = 0; p < w.partitions; ++p) {
      const Segment segment = GenerateSegment(w, seed, m, p);
      digest = Mix64(digest ^ HashBytes(segment.bytes.data(),
                                        segment.bytes.size(), 3));
    }
  }
  return digest;
}

/// State shared by the set-up and by either measurement.
struct RunContext {
  explicit RunContext(const Args& a)
      : args(a), w(*a.workload), tracer(a.trace) {
    if (w.wire_compress) conf.SetBool(conf::kWireCompressEnabled, true);
  }

  /// Folds a tally into the result line's counts and the failure list.
  void Account(const Tally& t, const char* what) {
    attempted += t.attempted;
    failed += t.failed;
    if (t.failed > 0) {
      failures.push_back(std::string(what) + ": " + std::to_string(t.failed) +
                         " shuffle(s) failed, first: " + t.first_error);
    }
  }

  /// Stops the JBS cluster and checks conservation over its whole traffic.
  JbsCounters StopJbs(uint64_t verified_bytes, uint64_t copied_bytes) {
    jbs->Stop();
    const JbsCounters k = ReadJbsCounters(*jbs);
    for (const std::string& f :
         CheckConservation(w, k, verified_bytes, copied_bytes)) {
      failures.push_back("conservation: " + f);
    }
    return k;
  }

  const Args& args;
  const Workload& w;
  Config conf;
  Tracer tracer;
  Tracer untraced{false};
  std::vector<double> setup_s;
  std::vector<double> mof_write_ms;
  Inputs inputs;
  fs::path data;  // the kept set-up's MOF directory
  std::unique_ptr<Cluster> jbs;
  Tally warmup;
  uint64_t copied_before = 0;  // PayloadCopyBytes() before the first job
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Set-up, repeated kSetupReps times; the last one is kept and measured.
Status SetUp(RunContext& ctx) {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ctx.jbs = std::make_unique<Cluster>();  // stops the previous one
    if (rep > 0) {
      std::error_code ec;
      fs::remove_all(ctx.data, ec);
    }
    ctx.data = ctx.args.data_dir / ("setup" + std::to_string(rep));
    const uint64_t trace = ctx.tracer.NewTrace();
    const auto start = Clock::now();
    Tracer::Scope span(ctx.tracer, "setup", 0, trace);
    auto written = WriteInputs(ctx.w, ctx.args.seed, ctx.data, ctx.tracer,
                               span.id(), trace, &ctx.mof_write_ms);
    JBS_RETURN_IF_ERROR(written.status());
    ctx.inputs = std::move(written).value();
    JBS_RETURN_IF_ERROR(StartCluster(System::kJbs, ctx.w, ctx.conf, ctx.data,
                                     ctx.inputs, ctx.tracer, span.id(), trace,
                                     ctx.jbs.get()));
    ctx.setup_s.push_back(SecondsSince(start));
  }
  return Status::Ok();
}

/// --trace 0: JBS jobs for --seconds with tracing off.
std::vector<Metric> MeasureEndToEnd(RunContext& ctx, bool rss_reset) {
  Tally tally;
  const auto start = Clock::now();
  while (SecondsSince(start) < ctx.args.seconds) {
    RunJob(*ctx.jbs, ctx.w, ctx.inputs, ctx.untraced, "shuffle", &tally);
  }
  const double rss_mb = ProcStatusMB("VmHWM");
  ctx.Account(tally, "jbs");
  ctx.StopJbs(ctx.warmup.verified_bytes + tally.verified_bytes,
              PayloadCopyBytes() - ctx.copied_before);
  const Measured m = Summarize(tally);
  const auto shuffle_ms = Of(m.samples, &Sample::shuffle_ms);
  const size_t beyond_p90 =
      shuffle_ms.size() -
      static_cast<size_t>(
          std::ceil(0.9 * static_cast<double>(shuffle_ms.size())));
  std::printf("end-to-end (tracing off): %zu measured shuffles from %zu "
              "jobs, %zu beyond p90; %zu job(s) left out for host steal; "
              "error_rate %.6f (%llu/%llu)%s\n",
              shuffle_ms.size(), m.jobs, beyond_p90, m.disturbed,
              Ratio(ctx.failed, ctx.attempted),
              static_cast<unsigned long long>(ctx.failed),
              static_cast<unsigned long long>(ctx.attempted),
              rss_reset ? "" : "; no VmHWM reset, RSS includes set-up");
  return {
      {"shuffle_ms.p50", Quantile(shuffle_ms, 0.5), "ms"},
      {"shuffle_ms.p90", Quantile(shuffle_ms, 0.9), "ms"},
      {"first_record_ms.p50",
       Quantile(Of(m.samples, &Sample::first_record_ms), 0.5), "ms"},
      {"goodput_mbs", Quantile(m.job_mbs, 0.5), "MB/s"},
      {"cpu_ms_per_mb", Quantile(m.job_cpu_ms_per_mb, 0.5), "ms/MB"},
      {"rss_peak_mb", rss_mb, "MB"},
      {"setup_s", Quantile(ctx.setup_s, 0.5), "s"},
  };
}

/// Runs a reference shuffle system on the kept inputs for `seconds`;
/// returns its shuffle_ms.p50 (0 if it could not start).
double MeasureReference(RunContext& ctx, System system, const char* name,
                        double seconds) {
  Cluster ref;
  if (Status st = StartCluster(system, ctx.w, ctx.conf, ctx.data, ctx.inputs,
                               ctx.untraced, 0, 0, &ref);
      !st.ok()) {
    ctx.failures.push_back(std::string(name) + " start: " + st.ToString());
    return 0;
  }
  Tally warmup;
  Tally tally;
  RunJob(ref, ctx.w, ctx.inputs, ctx.untraced, name, &warmup);
  const auto start = Clock::now();
  while (SecondsSince(start) < seconds || tally.attempted == 0) {
    RunJob(ref, ctx.w, ctx.inputs, ctx.tracer, name, &tally);
  }
  ref.Stop();
  ctx.Account(warmup, name);
  ctx.Account(tally, name);
  return Quantile(Of(Summarize(tally).samples, &Sample::shuffle_ms), 0.5);
}

/// --trace 1: JBS jobs alternating untraced and traced (so drift over the
/// run falls on both halves alike and their difference is the tracing
/// overhead), then the layer replays, then the reference shuffles.
std::vector<Metric> MeasureLayers(RunContext& ctx) {
  const double seconds = ctx.args.seconds;
  Tally plain;
  Tally traced;
  const auto start = Clock::now();
  for (bool on = false;
       SecondsSince(start) < seconds * 0.5 || traced.attempted == 0; on = !on) {
    RunJob(*ctx.jbs, ctx.w, ctx.inputs, on ? ctx.tracer : ctx.untraced,
           "shuffle", on ? &traced : &plain);
  }
  ctx.Account(plain, "jbs");
  ctx.Account(traced, "jbs traced");
  const uint64_t copied = PayloadCopyBytes() - ctx.copied_before;
  const JbsCounters k =
      ctx.StopJbs(ctx.warmup.verified_bytes + plain.verified_bytes +
                      traced.verified_bytes,
                  copied);

  Replays replays;
  if (Status st = ReplayLayers(ctx.inputs, *ctx.jbs->jbs->transport(),
                               seconds * 0.25, ctx.tracer, &replays);
      !st.ok()) {
    ctx.failures.push_back("replay: " + st.ToString());
  }
  const double http_p50 = MeasureReference(ctx, System::kHttp,
                                           "ref.http_shuffle", seconds * 0.15);
  const double local_p50 = MeasureReference(
      ctx, System::kLocal, "ref.local_shuffle", seconds * 0.1);

  const Measured off = Summarize(plain);
  const Measured on = Summarize(traced);
  std::vector<Sample> all = off.samples;
  all.insert(all.end(), on.samples.begin(), on.samples.end());
  double drain_cpu_s = 0;
  uint64_t drained = 0;
  for (const Sample& s : all) {
    drain_cpu_s += s.drain_cpu_s;
    drained += s.records;
  }
  const double background_cpu_s = off.process_cpu_s + on.process_cpu_s -
                                  off.reducer_cpu_s - on.reducer_cpu_s;
  const double jbs_mb = static_cast<double>(off.bytes + on.bytes) / kMB;
  const double plain_p50 = Quantile(Of(off.samples, &Sample::shuffle_ms), 0.5);
  const double traced_p50 = Quantile(Of(on.samples, &Sample::shuffle_ms), 0.5);
  const auto count = [](uint64_t n) { return static_cast<double>(n); };
  // Counters cover every JBS shuffle of the run, warm-up included.
  const double shuffles =
      count(ctx.warmup.attempted + plain.attempted + traced.attempted);
  const auto per_shuffle = [&](uint64_t n) {
    return count(n) / std::max(shuffles, 1.0);
  };
  std::printf("per-layer (traced run): %zu untraced + %zu traced JBS "
              "shuffles; %zu job(s) left out for host steal\n",
              off.samples.size(), on.samples.size(),
              off.disturbed + on.disturbed);
  return {
      {"common.crc32_ns_per_byte", replays.crc32_ns_per_byte, "ns/B"},
      {"common.compress_ns_per_byte", replays.compress_ns_per_byte, "ns/B"},
      {"common.decompress_ns_per_byte", replays.decompress_ns_per_byte,
       "ns/B"},
      {"mapred.mof_write_ms", Quantile(ctx.mof_write_ms, 0.5), "ms"},
      {"mapred.ifile_decode_ns_per_record",
       replays.ifile_decode_ns_per_record, "ns/record"},
      {"mapred.kway_merge_ns_per_record", replays.kway_merge_ns_per_record,
       "ns/record"},
      {"mapred.drain_ms.p50", Quantile(Of(all, &Sample::drain_ms), 0.5), "ms"},
      {"mapred.drain_cpu_ns_per_record",
       drain_cpu_s * 1e9 / std::max(count(drained), 1.0), "ns/record"},
      {"jbs.merger.fetch_and_merge_ms.p50",
       Quantile(Of(all, &Sample::fetch_and_merge_ms), 0.5), "ms"},
      {"jbs.merger.chunks_per_shuffle", per_shuffle(k.merger.chunks),
       "1/shuffle"},
      {"jbs.merger.connections_opened", count(k.merger.connections_opened),
       "count"},
      {"jbs.merger.node_switches", per_shuffle(k.merger.node_switches),
       "1/shuffle"},
      {"jbs.merger.fetch_retries", count(k.merger.fetch_retries), "count"},
      {"jbs.merger.pushbacks", count(k.merger.pushbacks), "count"},
      {"jbs.merger.chunks_corrupt", count(k.merger.chunks_corrupt), "count"},
      {"jbs.merger.chunks_compressed", per_shuffle(k.merger.chunks_compressed),
       "1/shuffle"},
      {"jbs.supplier.requests_per_shuffle", per_shuffle(k.requests),
       "1/shuffle"},
      {"jbs.supplier.batches", per_shuffle(k.batches), "1/shuffle"},
      {"jbs.supplier.group_switches", per_shuffle(k.group_switches),
       "1/shuffle"},
      {"jbs.supplier.crc_memo_hit_ratio",
       Ratio(k.crc_memo_hits, k.crc_memo_hits + k.crc_memo_misses), "ratio"},
      {"jbs.supplier.fd_cache_hit_ratio",
       Ratio(k.fd_hits, k.fd_hits + k.fd_misses), "ratio"},
      {"jbs.supplier.index_cache_hit_ratio",
       Ratio(k.index_hits, k.index_hits + k.index_misses), "ratio"},
      {"jbs.supplier.shed", count(k.shed), "count"},
      {"jbs.supplier.errors", count(k.errors), "count"},
      {"jbs.supplier.wire_bytes_per_logical_byte",
       Ratio(k.bytes_wire, k.bytes_logical), "B/B"},
      {"jbs.supplier.copied_bytes", count(copied), "B"},
      {"jbs.background_cpu_ms_per_mb", background_cpu_s * 1e3 / jbs_mb,
       "ms/MB"},
      {"transport.chunk_roundtrip_us.p50", replays.chunk_roundtrip_us_p50,
       "us"},
      {"ref.http_shuffle_ms.p50", http_p50, "ms"},
      {"ref.local_shuffle_ms.p50", local_p50, "ms"},
      {"ref.jbs_over_http", http_p50 > 0 ? plain_p50 / http_p50 : 0, "ratio"},
      {"trace.overhead_pct", (traced_p50 - plain_p50) / plain_p50 * 100, "%"},
  };
}

void PrintTrace(const RunContext& ctx) {
  std::printf("self time by span path (%zu spans):\n", ctx.tracer.size());
  for (const auto& [name, t] : ctx.tracer.SelfTimes()) {
    std::printf("  %-34s n=%-6llu total %10.3f ms  self %10.3f ms  "
                "self/span %8.4f ms\n",
                name.c_str(), static_cast<unsigned long long>(t.count),
                t.total_ms, t.self_ms,
                t.self_ms / static_cast<double>(t.count));
  }
}

int Run(const Args& args) {
  RunContext ctx(args);
  const Workload& w = ctx.w;
  std::printf("workload %s seed %llu: %d node(s) x %d MOFs x %d partitions, "
              "%d records/segment, %d reducer thread(s)%s\n",
              w.name, static_cast<unsigned long long>(args.seed), w.nodes,
              w.maps_per_node, w.partitions, w.records, w.reducers,
              w.wire_compress ? ", wire compression on" : "");
  if (Status st = SetUp(ctx); !st.ok()) {
    std::fprintf(stderr, "perfbench_e2e: set-up failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  malloc_trim(0);  // hand set-up's freed heap back before measuring RSS
  const bool rss_reset = ResetPeakRss();
  std::printf("set-up: median %.3f s of %d; partition 0 is %.2f MB in %llu "
              "records; RSS after set-up %.1f MB\n",
              Quantile(ctx.setup_s, 0.5), kSetupReps,
              static_cast<double>(ctx.inputs.expected[0].bytes) / kMB,
              static_cast<unsigned long long>(ctx.inputs.expected[0].records),
              ProcStatusMB("VmRSS"));

  ctx.copied_before = PayloadCopyBytes();
  RunJob(*ctx.jbs, w, ctx.inputs, ctx.untraced, "shuffle", &ctx.warmup);
  ctx.Account(ctx.warmup, "jbs warm-up");

  const std::vector<Metric> metrics =
      args.trace ? MeasureLayers(ctx) : MeasureEndToEnd(ctx, rss_reset);
  PrintMetrics(metrics);
  if (args.trace) {
    PrintTrace(ctx);
    if (ctx.tracer.WriteChromeJson(args.trace_out)) {
      std::printf("chrome trace: %s\n", args.trace_out.c_str());
    } else {
      ctx.failures.push_back("cannot write " + args.trace_out.string());
    }
  }

  for (const std::string& f : ctx.failures) {
    std::fprintf(stderr, "perfbench_e2e: FAILED %s\n", f.c_str());
  }
  const bool correct = ctx.failures.empty();
  PrintResult(correct, ctx.attempted, ctx.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--input-digest") {
      args.input_digest = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        for (const Workload& w : kWorkloads) {
          if (value == w.name) args.workload = &w;
        }
        if (args.workload == nullptr) {
          return Usage(("unknown workload " + value).c_str());
        }
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        have_seconds = args.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
        args.trace = value == "1";
        have_trace = true;
      } else if (flag == "--data-dir") {
        args.data_dir = value;
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else {
        return Usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (args.workload == nullptr || !have_seed) {
    return Usage("--workload and --seed are required");
  }
  if (args.input_digest) {
    std::printf("input_digest %016llx\n",
                static_cast<unsigned long long>(
                    InputDigest(*args.workload, args.seed)));
    return 0;
  }
  if (!have_seconds || !have_trace || args.data_dir.empty()) {
    return Usage("--seconds, --trace and --data-dir are required");
  }
  if (args.trace && args.trace_out.empty()) {
    return Usage("--trace 1 needs --trace-out");
  }
  const int rc = Run(args);
  std::error_code ec;
  fs::remove_all(args.data_dir, ec);
  return rc;
}
