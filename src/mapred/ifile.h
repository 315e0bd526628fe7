// IFile-style segment record format (the layout inside one MOF partition
// segment):
//
//   repeat: varint(key_len) varint(value_len) key value
//   end:    varint(-1) varint(-1)
//   trailer: u32 crc32 over everything before the trailer
//
// Matches Hadoop's IFile in spirit: self-delimiting records, an explicit
// EOF marker so a truncated segment is detectable, and a checksum.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "mapred/types.h"

namespace jbs::mr {

/// Serializes records into an in-memory IFile segment.
class IFileWriter {
 public:
  IFileWriter() = default;

  void Append(const Record& record);
  void Append(std::string_view key, std::string_view value);

  /// Writes the EOF marker + checksum and returns the completed segment.
  /// The writer must not be reused afterwards.
  std::vector<uint8_t> Finish();

  uint64_t records() const { return records_; }
  /// Bytes written so far (excluding the trailer-to-come).
  size_t bytes() const { return buffer_.size(); }

 private:
  std::vector<uint8_t> buffer_;
  uint64_t records_ = 0;
  bool finished_ = false;
};

/// Streaming reader over an IFile segment: a complete one, or the prefix
/// of one whose remaining bytes are still arriving. Over a prefix, Next
/// stops with needs_more() where the next record or the EOF marker runs
/// past it; Extend with a longer prefix and call Next again. The records
/// and the verdict are exactly those of a reader over the whole segment.
class IFileReader {
 public:
  explicit IFileReader(std::span<const uint8_t> segment)
      : IFileReader(segment, segment.size()) {}
  /// Reads the first `prefix.size()` bytes of a `total`-byte segment
  /// (`total` >= `prefix.size()`).
  IFileReader(std::span<const uint8_t> prefix, uint64_t total)
      : data_(prefix), total_(total) {}

  /// Reads the next record in place: `view` spans the reader's bytes and
  /// stays valid as long as they do. Returns false at the EOF marker, on
  /// malformed input (status() fails), or at the end of a prefix
  /// (needs_more()).
  bool NextView(RecordView* view);
  /// NextView, copied into `record`.
  bool Next(Record* record) {
    RecordView view;
    if (!NextView(&view)) return false;
    record->key.assign(view.key);
    record->value.assign(view.value);
    return true;
  }

  /// True when the last Next stopped short of bytes the prefix lacks.
  bool needs_more() const { return needs_more_; }
  /// Continues over a longer prefix of the same segment.
  void Extend(std::span<const uint8_t> prefix) { data_ = prefix; }
  /// Bytes of the segment the reader can see.
  size_t available() const { return data_.size(); }

  /// Validates the trailer checksum of the whole segment up front.
  Status VerifyChecksum() const;

  const Status& status() const { return status_; }
  uint64_t records_read() const { return records_read_; }

 private:
  std::span<const uint8_t> data_;
  uint64_t total_;
  size_t offset_ = 0;
  bool done_ = false;
  bool needs_more_ = false;
  Status status_;
  uint64_t records_read_ = 0;
};

}  // namespace jbs::mr
