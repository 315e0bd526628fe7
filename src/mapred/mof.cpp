#include "mapred/mof.h"

#include <fstream>

#include "common/bytes.h"

namespace jbs::mr {

namespace {
constexpr uint32_t kIndexMagic = 0x4D4F4649;  // 'MOFI'
}

StatusOr<MofIndex> MofIndex::Parse(std::span<const uint8_t> data) {
  if (data.size() < 12) return IoError("index too short");
  if (GetU32(data.data()) != kIndexMagic) return IoError("bad index magic");
  const uint32_t index_flags = GetU32(data.data() + 4);
  const uint32_t partitions = GetU32(data.data() + 8);
  const size_t expected = 12 + static_cast<size_t>(partitions) * 24;
  if (data.size() != expected) return IoError("index size mismatch");
  std::vector<IndexEntry> entries;
  entries.reserve(partitions);
  const uint8_t* p = data.data() + 12;
  for (uint32_t i = 0; i < partitions; ++i, p += 24) {
    entries.push_back({GetU64(p), GetU64(p + 8), GetU64(p + 16)});
  }
  return MofIndex(std::move(entries), index_flags);
}

StatusOr<MofIndex> MofIndex::Load(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return IoError("cannot open index " + path.string());
  const auto size = static_cast<size_t>(in.tellg());
  std::vector<uint8_t> data(size);
  in.seekg(0);
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(size));
  if (!in) return IoError("short read of index " + path.string());
  return Parse(data);
}

std::vector<uint8_t> MofIndex::Serialize() const {
  std::vector<uint8_t> out;
  out.reserve(12 + entries_.size() * 24);
  PutU32(out, kIndexMagic);
  PutU32(out, flags_);
  PutU32(out, static_cast<uint32_t>(entries_.size()));
  for (const IndexEntry& entry : entries_) {
    PutU64(out, entry.offset);
    PutU64(out, entry.length);
    PutU64(out, entry.records);
  }
  return out;
}

Status MofIndex::Save(const std::filesystem::path& path) const {
  const auto data = Serialize();
  std::ofstream out(path, std::ios::binary);
  if (!out) return IoError("cannot create index " + path.string());
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out) return IoError("short write of index " + path.string());
  return Status::Ok();
}

uint64_t MofIndex::total_bytes() const {
  uint64_t total = 0;
  for (const IndexEntry& entry : entries_) total += entry.length;
  return total;
}

Status MofWriter::AppendSegment(std::span<const uint8_t> segment,
                                uint64_t records) {
  if (finished_) return Internal("append after finish");
  const auto mode = opened_ ? std::ios::binary | std::ios::app
                            : std::ios::binary | std::ios::trunc;
  std::ofstream out(DataPath(base_), mode);
  if (!out) return IoError("cannot open MOF " + DataPath(base_).string());
  opened_ = true;
  out.write(reinterpret_cast<const char*>(segment.data()),
            static_cast<std::streamsize>(segment.size()));
  if (!out) return IoError("short write to MOF");
  entries_.push_back({bytes_written_, segment.size(), records});
  bytes_written_ += segment.size();
  return Status::Ok();
}

StatusOr<MofHandle> MofWriter::Finish(int map_task, int node) {
  if (finished_) return Internal("double finish");
  finished_ = true;
  if (!opened_) {
    // A map task may legitimately emit nothing; still create the file so
    // the server side has something to stat.
    std::ofstream out(DataPath(base_), std::ios::binary | std::ios::trunc);
    if (!out) return IoError("cannot create empty MOF");
  }
  MofIndex index(std::move(entries_), flags_);
  JBS_RETURN_IF_ERROR(index.Save(IndexPath(base_)));
  MofHandle handle;
  handle.map_task = map_task;
  handle.node = node;
  handle.data_path = DataPath(base_);
  handle.index_path = IndexPath(base_);
  return handle;
}

Status MofRegistry::Publish(const MofHandle& handle) {
  PublishedMof mof{handle.data_path.string(), handle.index_path.string()};
  MutexLock lock(mu_);
  mofs_.insert_or_assign(handle.map_task, std::move(mof));
  return Status::Ok();
}

StatusOr<PublishedMof> MofRegistry::Lookup(int map_task) const {
  MutexLock lock(mu_);
  auto it = mofs_.find(map_task);
  if (it == mofs_.end()) return NotFound("unknown MOF");
  return it->second;
}

size_t MofRegistry::size() const {
  MutexLock lock(mu_);
  return mofs_.size();
}

StatusOr<MofReader> MofReader::Open(const MofHandle& handle) {
  auto index = MofIndex::Load(handle.index_path);
  JBS_RETURN_IF_ERROR(index.status());
  return MofReader(handle, std::move(index).value());
}

Status MofReader::ReadSegment(int partition, std::vector<uint8_t>& out) const {
  if (partition < 0 || partition >= index_.num_partitions()) {
    return InvalidArgument("partition out of range");
  }
  const IndexEntry& entry = index_.entry(partition);
  return ReadSegmentRange(partition, 0, entry.length, out);
}

Status MofReader::ReadSegmentRange(int partition, uint64_t segment_offset,
                                   uint64_t length,
                                   std::vector<uint8_t>& out) const {
  if (partition < 0 || partition >= index_.num_partitions()) {
    return InvalidArgument("partition out of range");
  }
  const IndexEntry& entry = index_.entry(partition);
  if (segment_offset + length > entry.length) {
    return InvalidArgument("segment range beyond segment length");
  }
  std::ifstream in(handle_.data_path, std::ios::binary);
  if (!in) return IoError("cannot open MOF " + handle_.data_path.string());
  in.seekg(static_cast<std::streamoff>(entry.offset + segment_offset));
  out.resize(static_cast<size_t>(length));
  in.read(reinterpret_cast<char*>(out.data()),
          static_cast<std::streamsize>(length));
  if (static_cast<uint64_t>(in.gcount()) != length) {
    return IoError("short segment read");
  }
  return Status::Ok();
}

}  // namespace jbs::mr
