// Key/value configuration in the style of Hadoop's Configuration/JobConf.
// The runtime parameters JBS exposes (transport, buffer size, ablation
// switches) are carried through this type so examples and benches can
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

  /// Byte count of a size string, or nullopt when it is junk or names a
  /// value an int64_t cannot hold (negative, NaN/inf, 2^63 and above).
  static std::optional<int64_t> ParseSize(const std::string& text);

 private:
  std::map<std::string, std::string> entries_;
};

/// The configuration keys JBS and the engine read, kept in one place.
/// Every other JBS value is a component default (MofSupplier::Options,
/// NetMerger::Options); a key earns its place here only with a reader.
namespace conf {
// Transport choice, "tcp" or "rdma" (the paper's portability, §IV).
inline constexpr const char* kTransport = "jbs.transport";
// Transport buffer size (the Fig. 11 sweep variable).
inline constexpr const char* kTransportBufferSize = "jbs.transport.buffer.size";
// The paper's three ablation switches.
inline constexpr const char* kPipelined = "jbs.mofsupplier.pipelined";
inline constexpr const char* kConsolidate = "jbs.netmerger.consolidate";
inline constexpr const char* kRoundRobin = "jbs.netmerger.roundrobin";
// Negotiated wire compression (see DESIGN.md §14): "may compress". The
// merger advertises the codec and the supplier compresses a chunk only
// while its connection's send backlog is non-empty, shipping raw to an
// idle wire.
inline constexpr const char* kWireCompressEnabled = "jbs.wire.compress.enabled";
// Map-output segment compression, read by the engine.
inline constexpr const char* kCompressMapOutput = "mapred.compress.map.output";
}  // namespace conf

}  // namespace jbs
