// Key/value configuration in the style of Hadoop's Configuration/JobConf.
// All JBS tunables (transport buffer size, connection-cache capacity, slot
// counts, ...) are carried through this type so examples and benches can
// sweep them uniformly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace jbs {

class Config {
 public:
  Config() = default;

  void Set(const std::string& key, std::string value);
  void SetInt(const std::string& key, int64_t value);
  void SetDouble(const std::string& key, double value);
  void SetBool(const std::string& key, bool value);

  std::optional<std::string> Get(const std::string& key) const;
  std::string GetOr(const std::string& key, const std::string& def) const;
  int64_t GetInt(const std::string& key, int64_t def) const;
  double GetDouble(const std::string& key, double def) const;
  bool GetBool(const std::string& key, bool def) const;

  /// Parses "64KB", "128MB", "2GB", "512" (bytes) style size strings.
  int64_t GetSize(const std::string& key, int64_t def) const;

  bool Contains(const std::string& key) const;
  size_t size() const { return entries_.size(); }

  /// Merges `other` into this config; keys in `other` win.
  void MergeFrom(const Config& other);

  const std::map<std::string, std::string>& entries() const {
    return entries_;
  }

  static std::optional<int64_t> ParseSize(const std::string& text);

 private:
  std::map<std::string, std::string> entries_;
};

/// Well-known configuration keys, kept in one place.
namespace conf {
inline constexpr const char* kTransportBufferSize = "jbs.transport.buffer.size";
inline constexpr const char* kTransportBufferCount =
    "jbs.transport.buffer.count";
inline constexpr const char* kConnectionCacheCapacity =
    "jbs.connection.cache.capacity";
inline constexpr const char* kDataCacheSize = "jbs.mofsupplier.datacache.size";
inline constexpr const char* kIndexCacheEntries =
    "jbs.mofsupplier.indexcache.entries";
inline constexpr const char* kPrefetchBatch = "jbs.mofsupplier.prefetch.batch";
inline constexpr const char* kPrefetchThreads =
    "jbs.mofsupplier.prefetch.threads";
inline constexpr const char* kFdCacheEntries =
    "jbs.mofsupplier.fdcache.entries";
inline constexpr const char* kNetMergerDataThreads =
    "jbs.netmerger.data.threads";
inline constexpr const char* kFetchWindow = "jbs.netmerger.fetch.window";
// Fetch-path robustness knobs (0 disables the bound).
inline constexpr const char* kFetchDeadlineMs =
    "jbs.netmerger.fetch.deadline_ms";
inline constexpr const char* kConnectTimeoutMs =
    "jbs.netmerger.connect.timeout_ms";
inline constexpr const char* kChunkTimeoutMs =
    "jbs.netmerger.chunk.timeout_ms";
inline constexpr const char* kConnectionIdleMs =
    "jbs.transport.connection.idle_ms";
// Integrity + supplier-failover knobs.
inline constexpr const char* kVerifyCrc = "jbs.fetch.verify_crc";
inline constexpr const char* kHealthSuspectAfter =
    "jbs.netmerger.health.suspect_after";
inline constexpr const char* kHealthPenalizeAfter =
    "jbs.netmerger.health.penalize_after";
inline constexpr const char* kHealthPenaltyMs =
    "jbs.netmerger.health.penalty_ms";
inline constexpr const char* kHealthPenaltyMaxMs =
    "jbs.netmerger.health.penalty_max_ms";
// Negotiated wire-compression knobs (see DESIGN.md §14).
inline constexpr const char* kWireCompressEnabled = "jbs.wire.compress.enabled";
inline constexpr const char* kWireCompressMinBytes =
    "jbs.wire.compress.min_bytes";
inline constexpr const char* kWireCompressMinRatio =
    "jbs.wire.compress.min_ratio";
inline constexpr const char* kMaxFrameBytes = "jbs.transport.max_frame.bytes";
// Overload-control knobs (see DESIGN.md §16). 0 disables the bound.
inline constexpr const char* kAdmissionMaxQueue =
    "jbs.mofsupplier.admission.max_queue";
inline constexpr const char* kAdmissionMaxInflightBytes =
    "jbs.mofsupplier.admission.max_inflight_bytes";
inline constexpr const char* kAdmissionDataCacheWatermark =
    "jbs.mofsupplier.admission.datacache_watermark";
inline constexpr const char* kAdmissionAcquireTimeoutMs =
    "jbs.mofsupplier.admission.acquire_timeout_ms";
inline constexpr const char* kPushbackRetryBudget =
    "jbs.netmerger.pushback.retry_budget";
inline constexpr const char* kMapSlotsPerNode = "mapred.map.slots";
inline constexpr const char* kReduceSlotsPerNode = "mapred.reduce.slots";
inline constexpr const char* kBlockSize = "dfs.block.size";
inline constexpr const char* kSortBufferSize = "mapred.sort.buffer.size";
inline constexpr const char* kCopierThreads = "mapred.reduce.parallel.copies";
inline constexpr const char* kCompressMapOutput = "mapred.compress.map.output";
}  // namespace conf

}  // namespace jbs
