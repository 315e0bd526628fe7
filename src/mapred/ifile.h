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

#include "common/bytes.h"
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
  /// (needs_more()). Inline: a merge calls it once per record, through
  /// SegmentStream::NextView.
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

inline bool IFileReader::NextView(RecordView* view) {
  needs_more_ = false;
  if (done_ || !status_.ok()) return false;
  // Bytes the prefix lacks but the segment has: stop where the record
  // starts and read it again once they arrive.
  const bool partial = data_.size() < total_;
  size_t offset = offset_;
  const auto key_len = GetVarint64(data_, &offset);
  const auto value_len = GetVarint64(data_, &offset);
  if (!key_len || !value_len) {
    if (partial) {
      needs_more_ = true;
      return false;
    }
    status_ = IoError("truncated IFile segment header");
    return false;
  }
  if (*key_len == -1 && *value_len == -1) {
    offset_ = offset;
    done_ = true;
    return false;
  }
  // Each length is compared with what is left, so no sum can wrap.
  const uint64_t left = total_ - offset;
  if (*key_len < 0 || *value_len < 0 ||
      static_cast<uint64_t>(*key_len) > left ||
      static_cast<uint64_t>(*value_len) >
          left - static_cast<uint64_t>(*key_len)) {
    status_ = IoError("corrupt IFile record lengths");
    return false;
  }
  const size_t key_size = static_cast<size_t>(*key_len);
  const size_t value_size = static_cast<size_t>(*value_len);
  if (key_size + value_size > data_.size() - offset) {
    needs_more_ = true;
    return false;
  }
  const char* bytes = reinterpret_cast<const char*>(data_.data()) + offset;
  view->key = {bytes, key_size};
  view->value = {bytes + key_size, value_size};
  offset_ = offset + key_size + value_size;
  // A merge comes back to this reader only after reading its other
  // sources, and a fetched segment's bytes often sit in the cache of the
  // core that received them: ask for the next record's lines now.
  for (size_t ahead = 64; ahead <= 256 && ahead < data_.size() - offset_;
       ahead += 64) {
    __builtin_prefetch(data_.data() + offset_ + ahead);
  }
  ++records_read_;
  return true;
}

}  // namespace jbs::mr
