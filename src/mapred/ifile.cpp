#include "mapred/ifile.h"

#include <cassert>

#include "common/bytes.h"

namespace jbs::mr {

void IFileWriter::Append(const Record& record) {
  Append(record.key, record.value);
}

void IFileWriter::Append(std::string_view key, std::string_view value) {
  assert(!finished_);
  PutVarint64(buffer_, static_cast<int64_t>(key.size()));
  PutVarint64(buffer_, static_cast<int64_t>(value.size()));
  buffer_.insert(buffer_.end(), key.begin(), key.end());
  buffer_.insert(buffer_.end(), value.begin(), value.end());
  ++records_;
}

std::vector<uint8_t> IFileWriter::Finish() {
  assert(!finished_);
  finished_ = true;
  PutVarint64(buffer_, -1);
  PutVarint64(buffer_, -1);
  const uint32_t crc = Crc32(buffer_);
  PutU32(buffer_, crc);
  return std::move(buffer_);
}

bool IFileReader::NextView(RecordView* view) {
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

Status IFileReader::VerifyChecksum() const {
  if (data_.size() < 4) return IoError("segment shorter than trailer");
  const uint32_t stored = GetU32(data_.data() + data_.size() - 4);
  const uint32_t computed = Crc32(data_.first(data_.size() - 4));
  if (stored != computed) {
    return IoError("IFile checksum mismatch");
  }
  return Status::Ok();
}

}  // namespace jbs::mr
