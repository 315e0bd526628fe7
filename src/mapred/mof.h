// Map Output File (MOF) and its Index file — the on-disk contract between
// the map side and the shuffle (§II-A). One MOF holds one IFile segment per
// reduce partition; the index file records where each segment lives so a
// server can answer "give me partition p of map m" with one lookup
// (optionally through the IndexCache) and one ranged read.
//
// Index file layout:
//   u32 magic 'MOFI' | u32 flags | u32 num_partitions
//   per partition: u64 offset | u64 length | u64 records
//
// flags bit 0 (kMofCompressed): segments are Compress()ed IFile data;
// length is the on-disk (compressed) size.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "mapred/types.h"

namespace jbs::mr {

struct IndexEntry {
  uint64_t offset = 0;
  uint64_t length = 0;
  uint64_t records = 0;

  friend bool operator==(const IndexEntry&, const IndexEntry&) = default;
};

/// Segments are block-compressed (common/compress.h).
inline constexpr uint32_t kMofCompressed = 1u << 0;

class MofIndex {
 public:
  MofIndex() = default;
  explicit MofIndex(std::vector<IndexEntry> entries, uint32_t flags = 0)
      : entries_(std::move(entries)), flags_(flags) {}

  static StatusOr<MofIndex> Parse(std::span<const uint8_t> data);
  static StatusOr<MofIndex> Load(const std::filesystem::path& path);

  std::vector<uint8_t> Serialize() const;
  Status Save(const std::filesystem::path& path) const;

  int num_partitions() const { return static_cast<int>(entries_.size()); }
  const IndexEntry& entry(int partition) const {
    return entries_[static_cast<size_t>(partition)];
  }
  const std::vector<IndexEntry>& entries() const { return entries_; }
  uint64_t total_bytes() const;
  uint32_t flags() const { return flags_; }
  bool compressed() const { return (flags_ & kMofCompressed) != 0; }

 private:
  std::vector<IndexEntry> entries_;
  uint32_t flags_ = 0;
};

/// Identifies a finished MOF on disk.
struct MofHandle {
  int map_task = 0;
  int node = 0;  // logical node that produced it
  std::filesystem::path data_path;
  std::filesystem::path index_path;
};

/// What a shuffle server keeps per published MOF: the paths as plain
/// strings. A std::filesystem::path also keeps its parsed components,
/// which made an entry ~4x larger.
struct PublishedMof {
  std::string data_path;
  std::string index_path;
};

/// map_task -> published MOF, the registry behind every ShuffleServer's
/// PublishMof. Republishing a map task replaces its entry.
class MofRegistry {
 public:
  Status Publish(const MofHandle& handle) EXCLUDES(mu_);
  /// NotFound("unknown MOF") for a map task never published.
  StatusOr<PublishedMof> Lookup(int map_task) const EXCLUDES(mu_);
  size_t size() const EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::map<int, PublishedMof> mofs_ GUARDED_BY(mu_);
};

/// Writes a MOF from per-partition finished IFile segments.
class MofWriter {
 public:
  /// `base` is the path prefix; writes base.data and base.index. `flags`
  /// (e.g. kMofCompressed) describe how the caller encoded the segments.
  explicit MofWriter(std::filesystem::path base, uint32_t flags = 0)
      : base_(std::move(base)), flags_(flags) {}

  /// Appends the next partition's finished segment (order = partition id).
  Status AppendSegment(std::span<const uint8_t> segment, uint64_t records);

  /// Flushes the index; returns the handle. Writer must not be reused.
  StatusOr<MofHandle> Finish(int map_task, int node);

  static std::filesystem::path DataPath(const std::filesystem::path& base) {
    return base.string() + ".data";
  }
  static std::filesystem::path IndexPath(const std::filesystem::path& base) {
    return base.string() + ".index";
  }

 private:
  std::filesystem::path base_;
  uint32_t flags_ = 0;
  std::vector<IndexEntry> entries_;
  uint64_t bytes_written_ = 0;
  bool opened_ = false;
  bool finished_ = false;
};

/// Ranged reads of MOF segments (what a shuffle server does per request).
class MofReader {
 public:
  static StatusOr<MofReader> Open(const MofHandle& handle);

  /// Reads the full segment for `partition` into `out`.
  Status ReadSegment(int partition, std::vector<uint8_t>& out) const;

  /// Reads `length` bytes of `partition`'s segment starting at
  /// `segment_offset` — the unit of transfer-buffer-sized fetches.
  Status ReadSegmentRange(int partition, uint64_t segment_offset,
                          uint64_t length, std::vector<uint8_t>& out) const;

  const MofIndex& index() const { return index_; }
  const MofHandle& handle() const { return handle_; }

 private:
  MofReader(MofHandle handle, MofIndex index)
      : handle_(std::move(handle)), index_(std::move(index)) {}

  MofHandle handle_;
  MofIndex index_;
};

}  // namespace jbs::mr
