#include "common/metrics.h"

#include <algorithm>
#include <cstdio>

namespace jbs {

namespace {

/// FNV-1a over the canonical key — cheap, stable shard assignment.
size_t HashKey(const std::string& name, const MetricLabels& labels) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<uint8_t>(c);
      h *= 1099511628211ull;
    }
  };
  mix(name);
  for (const auto& [k, v] : labels) {
    mix(k);
    mix(v);
  }
  return static_cast<size_t>(h);
}

std::string EscapeValue(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

/// {label="value",...} suffix, empty string for no labels.
std::string LabelSuffix(const MetricLabels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first + "=\"" + EscapeValue(labels[i].second) + "\"";
  }
  out += "}";
  return out;
}

std::string JsonLabels(const MetricLabels& labels) {
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out.append("\"")
        .append(EscapeValue(labels[i].first))
        .append("\":\"")
        .append(EscapeValue(labels[i].second))
        .append("\"");
  }
  out += "}";
  return out;
}

std::string FmtDouble(double v) {
  char buf[64];
  // %.17g round-trips doubles but prints integers cleanly.
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void MetricGauge::Add(double delta) {
  double current = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

void MetricHistogram::Observe(double value) {
  MutexLock lock(mu_);
  histogram_.Add(value);
  summary_.Add(value);
}

uint64_t MetricHistogram::count() const {
  MutexLock lock(mu_);
  return summary_.count();
}

Histogram MetricHistogram::histogram() const {
  MutexLock lock(mu_);
  return histogram_;
}

Summary MetricHistogram::summary() const {
  MutexLock lock(mu_);
  return summary_;
}

MetricsRegistry::MetricsRegistry() {
  shards_.reserve(kShards);
  for (size_t i = 0; i < kShards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Key MetricsRegistry::MakeKey(std::string_view name,
                                              MetricLabels labels) {
  std::sort(labels.begin(), labels.end());
  return Key{std::string(name), std::move(labels)};
}

MetricsRegistry::Shard& MetricsRegistry::ShardFor(const Key& key) {
  return *shards_[HashKey(key.name, key.labels) % kShards];
}

const MetricsRegistry::Shard& MetricsRegistry::ShardFor(const Key& key) const {
  return *shards_[HashKey(key.name, key.labels) % kShards];
}

MetricCounter* MetricsRegistry::GetCounter(std::string_view name,
                                           MetricLabels labels) {
  Key key = MakeKey(name, std::move(labels));
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto& slot = shard.counters[std::move(key)];
  if (!slot) slot = std::make_unique<MetricCounter>();
  return slot.get();
}

MetricGauge* MetricsRegistry::GetGauge(std::string_view name,
                                       MetricLabels labels) {
  Key key = MakeKey(name, std::move(labels));
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto& slot = shard.gauges[std::move(key)];
  if (!slot) slot = std::make_unique<MetricGauge>();
  return slot.get();
}

MetricHistogram* MetricsRegistry::GetHistogram(std::string_view name,
                                               MetricLabels labels) {
  Key key = MakeKey(name, std::move(labels));
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto& slot = shard.histograms[std::move(key)];
  if (!slot) slot = std::make_unique<MetricHistogram>();
  return slot.get();
}

void MetricsRegistry::RegisterCallbackGauge(const void* owner,
                                            std::string_view name,
                                            MetricLabels labels,
                                            std::function<double()> fn) {
  Key key = MakeKey(name, std::move(labels));
  MutexLock lock(callbacks_mu_);
  callback_gauges_[std::move(key)] = CallbackGauge{owner, std::move(fn)};
}

void MetricsRegistry::UnregisterCallbacks(const void* owner) {
  MutexLock lock(callbacks_mu_);
  for (auto it = callback_gauges_.begin(); it != callback_gauges_.end();) {
    it = it->second.owner == owner ? callback_gauges_.erase(it)
                                   : std::next(it);
  }
}

std::string MetricsRegistry::DumpText() const {
  // Snapshot every metric into sorted maps first: shards are unordered and
  // dump output must be deterministic.
  std::map<Key, uint64_t> counters;
  std::map<Key, double> gauges;
  struct HistSnap {
    Histogram histogram;
    Summary summary;
  };
  std::map<Key, HistSnap> histograms;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    for (const auto& [key, counter] : shard->counters) {
      counters[key] = counter->value();
    }
    for (const auto& [key, gauge] : shard->gauges) {
      gauges[key] = gauge->value();
    }
    for (const auto& [key, histogram] : shard->histograms) {
      histograms[key] = HistSnap{histogram->histogram(),
                                 histogram->summary()};
    }
  }
  {
    // User callbacks run with no shard lock held (lock-order safety: a
    // callback may take its component's lock, and component threads take
    // shard locks while holding component locks).
    MutexLock lock(callbacks_mu_);
    for (const auto& [key, cb] : callback_gauges_) {
      gauges[key] = cb.fn();
    }
  }

  std::string out;
  std::string last_type_name;
  const auto type_line = [&](const std::string& name, const char* type) {
    if (name == last_type_name) return;
    last_type_name = name;
    out += "# TYPE " + name + " " + type + "\n";
  };
  for (const auto& [key, value] : counters) {
    type_line(key.name, "counter");
    out += key.name + LabelSuffix(key.labels) + " " +
           std::to_string(value) + "\n";
  }
  for (const auto& [key, value] : gauges) {
    type_line(key.name, "gauge");
    out += key.name + LabelSuffix(key.labels) + " " + FmtDouble(value) + "\n";
  }
  for (const auto& [key, snap] : histograms) {
    type_line(key.name, "histogram");
    const std::vector<uint64_t>& buckets = snap.histogram.buckets();
    uint64_t cumulative = 0;
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      if (buckets[static_cast<size_t>(i)] == 0) continue;
      cumulative += buckets[static_cast<size_t>(i)];
      MetricLabels with_le = key.labels;
      with_le.emplace_back("le", FmtDouble(Histogram::BucketUpperBound(i)));
      out += key.name + "_bucket" + LabelSuffix(with_le) + " " +
             std::to_string(cumulative) + "\n";
    }
    MetricLabels with_le = key.labels;
    with_le.emplace_back("le", "+Inf");
    out += key.name + "_bucket" + LabelSuffix(with_le) + " " +
           std::to_string(snap.summary.count()) + "\n";
    out += key.name + "_sum" + LabelSuffix(key.labels) + " " +
           FmtDouble(snap.summary.sum()) + "\n";
    out += key.name + "_count" + LabelSuffix(key.labels) + " " +
           std::to_string(snap.summary.count()) + "\n";
  }
  return out;
}

std::string MetricsRegistry::DumpJson() const {
  std::map<Key, uint64_t> counters;
  std::map<Key, double> gauges;
  struct HistSnap {
    Histogram histogram;
    Summary summary;
  };
  std::map<Key, HistSnap> histograms;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    for (const auto& [key, counter] : shard->counters) {
      counters[key] = counter->value();
    }
    for (const auto& [key, gauge] : shard->gauges) {
      gauges[key] = gauge->value();
    }
    for (const auto& [key, histogram] : shard->histograms) {
      histograms[key] = HistSnap{histogram->histogram(),
                                 histogram->summary()};
    }
  }
  {
    // User callbacks run with no shard lock held (lock-order safety: a
    // callback may take its component's lock, and component threads take
    // shard locks while holding component locks).
    MutexLock lock(callbacks_mu_);
    for (const auto& [key, cb] : callback_gauges_) {
      gauges[key] = cb.fn();
    }
  }

  std::string out = "{\"counters\":[";
  bool first = true;
  for (const auto& [key, value] : counters) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + EscapeValue(key.name) +
           "\",\"labels\":" + JsonLabels(key.labels) +
           ",\"value\":" + std::to_string(value) + "}";
  }
  out += "],\"gauges\":[";
  first = true;
  for (const auto& [key, value] : gauges) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + EscapeValue(key.name) +
           "\",\"labels\":" + JsonLabels(key.labels) +
           ",\"value\":" + FmtDouble(value) + "}";
  }
  out += "],\"histograms\":[";
  first = true;
  for (const auto& [key, snap] : histograms) {
    if (!first) out += ",";
    first = false;
    Histogram h = snap.histogram;
    out += "{\"name\":\"" + EscapeValue(key.name) +
           "\",\"labels\":" + JsonLabels(key.labels) +
           ",\"count\":" + std::to_string(snap.summary.count()) +
           ",\"sum\":" + FmtDouble(snap.summary.sum()) +
           ",\"mean\":" + FmtDouble(snap.summary.mean()) +
           ",\"min\":" + FmtDouble(snap.summary.min()) +
           ",\"max\":" + FmtDouble(snap.summary.max()) +
           ",\"p50\":" + FmtDouble(h.Percentile(50)) +
           ",\"p95\":" + FmtDouble(h.Percentile(95)) +
           ",\"p99\":" + FmtDouble(h.Percentile(99)) + "}";
  }
  out += "]}";
  return out;
}

std::string_view TraceEventName(TraceEvent event) {
  switch (event) {
    case TraceEvent::kQueued: return "queued";
    case TraceEvent::kDialed: return "dialed";
    case TraceEvent::kRequestSent: return "request_sent";
    case TraceEvent::kChunkReceived: return "chunk_received";
    case TraceEvent::kCorrupt: return "corrupt";
    case TraceEvent::kRetry: return "retry";
    case TraceEvent::kFailover: return "failover";
    case TraceEvent::kMerged: return "merged";
    case TraceEvent::kFailed: return "failed";
  }
  return "unknown";
}

TraceRecorder::TraceRecorder(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)),
      epoch_(std::chrono::steady_clock::now()) {
  ring_.reserve(capacity_);
}

void TraceRecorder::Record(uint64_t fetch_id, TraceEvent event,
                           int64_t detail) {
  const int64_t t_us = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - epoch_)
                           .count();
  MutexLock lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(TraceEntry{fetch_id, event, t_us, detail});
  } else {
    ring_[head_] = TraceEntry{fetch_id, event, t_us, detail};
    head_ = (head_ + 1) % capacity_;
  }
  ++recorded_;
}

std::vector<TraceEntry> TraceRecorder::Snapshot() const {
  MutexLock lock(mu_);
  std::vector<TraceEntry> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<TraceEntry> TraceRecorder::ForFetch(uint64_t fetch_id) const {
  std::vector<TraceEntry> out;
  for (const TraceEntry& entry : Snapshot()) {
    if (entry.fetch_id == fetch_id) out.push_back(entry);
  }
  return out;
}

std::string TraceRecorder::DumpText() const {
  std::string out;
  for (const TraceEntry& entry : Snapshot()) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%10.3fms fetch=%llu %-14s detail=%lld\n",
                  static_cast<double>(entry.t_us) / 1e3,
                  static_cast<unsigned long long>(entry.fetch_id),
                  std::string(TraceEventName(entry.event)).c_str(),
                  static_cast<long long>(entry.detail));
    out += buf;
  }
  return out;
}

uint64_t TraceRecorder::recorded() const {
  MutexLock lock(mu_);
  return recorded_;
}

uint64_t TraceRecorder::dropped() const {
  MutexLock lock(mu_);
  return recorded_ - ring_.size();
}

}  // namespace jbs
