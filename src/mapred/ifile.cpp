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
