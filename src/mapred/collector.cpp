#include "mapred/collector.h"

#include <algorithm>

#include "common/compress.h"
#include "common/logging.h"
#include "mapred/ifile.h"
#include "mapred/merger.h"

namespace jbs::mr {

MapOutputCollector::MapOutputCollector(Options options)
    : options_(std::move(options)) {
  if (!options_.partitioner) {
    options_.partitioner = std::make_shared<HashPartitioner>();
  }
  std::filesystem::create_directories(options_.work_dir);
}

void MapOutputCollector::Emit(std::string_view key, std::string_view value) {
  if (!status_.ok()) return;
  const int partition =
      options_.partitioner->Partition(key, options_.num_partitions);
  buffered_bytes_ += key.size() + value.size() + 16;
  bytes_ += key.size() + value.size();
  ++records_;
  buffer_.push_back(
      Entry{partition, Record{std::string(key), std::string(value)}});
  if (buffered_bytes_ >= options_.sort_buffer_bytes) {
    SpillBuffer();
  }
}

std::vector<Record> MapOutputCollector::CombineRun(
    std::vector<Record> run) const {
  if (!options_.combiner) return run;
  std::vector<Record> combined;
  class VectorEmitter final : public Emitter {
   public:
    explicit VectorEmitter(std::vector<Record>* out) : out_(out) {}
    void Emit(std::string_view key, std::string_view value) override {
      out_->push_back({std::string(key), std::string(value)});
    }

   private:
    std::vector<Record>* out_;
  } emitter(&combined);

  size_t i = 0;
  std::vector<std::string> values;
  while (i < run.size()) {
    const std::string& key = run[i].key;
    values.clear();
    size_t j = i;
    while (j < run.size() && run[j].key == key) {
      values.push_back(std::move(run[j].value));
      ++j;
    }
    options_.combiner(key, values, emitter);
    i = j;
  }
  return combined;
}

void MapOutputCollector::SpillBuffer() {
  if (buffer_.empty()) return;
  std::stable_sort(buffer_.begin(), buffer_.end(),
                   [](const Entry& a, const Entry& b) {
                     if (a.partition != b.partition) {
                       return a.partition < b.partition;
                     }
                     return a.record.key < b.record.key;
                   });
  const auto spill_base =
      options_.work_dir / ("spill_" + std::to_string(spill_count_));
  MofWriter writer(spill_base);
  size_t i = 0;
  for (int partition = 0; partition < options_.num_partitions; ++partition) {
    std::vector<Record> run;
    while (i < buffer_.size() && buffer_[i].partition == partition) {
      run.push_back(std::move(buffer_[i].record));
      ++i;
    }
    run = CombineRun(std::move(run));
    IFileWriter segment;
    for (const Record& record : run) segment.Append(record);
    const uint64_t records = segment.records();
    Status st = writer.AppendSegment(segment.Finish(), records);
    if (!st.ok()) {
      status_ = st;
      return;
    }
  }
  auto handle = writer.Finish(/*map_task=*/spill_count_, /*node=*/0);
  if (!handle.ok()) {
    status_ = handle.status();
    return;
  }
  spill_handles_.push_back(std::move(handle).value());
  ++spill_count_;
  buffer_.clear();
  buffered_bytes_ = 0;
}

StatusOr<MofHandle> MapOutputCollector::Finish(int map_task, int node) {
  if (!status_.ok()) return status_;
  SpillBuffer();
  if (!status_.ok()) return status_;

  const auto final_base =
      options_.work_dir / ("mof_" + std::to_string(map_task));
  const uint32_t mof_flags = options_.compress ? kMofCompressed : 0;
  const auto encode = [&](std::vector<uint8_t> segment) {
    return options_.compress ? jbs::Compress(segment) : std::move(segment);
  };

  if (spill_handles_.empty()) {
    // Emitted nothing: final MOF with empty segments.
    MofWriter writer(final_base, mof_flags);
    for (int p = 0; p < options_.num_partitions; ++p) {
      IFileWriter empty;
      JBS_RETURN_IF_ERROR(writer.AppendSegment(encode(empty.Finish()), 0));
    }
    return writer.Finish(map_task, node);
  }

  if (spill_handles_.size() == 1 && !options_.compress) {
    // Single spill: rename into place (the common case Hadoop optimizes).
    const MofHandle& spill = spill_handles_.front();
    MofHandle handle;
    handle.map_task = map_task;
    handle.node = node;
    handle.data_path = MofWriter::DataPath(final_base);
    handle.index_path = MofWriter::IndexPath(final_base);
    std::error_code ec;
    std::filesystem::rename(spill.data_path, handle.data_path, ec);
    if (ec) return IoError("rename spill data: " + ec.message());
    std::filesystem::rename(spill.index_path, handle.index_path, ec);
    if (ec) return IoError("rename spill index: " + ec.message());
    return handle;
  }

  // Multi-spill (or compressing): per-partition k-way merge of all spills.
  std::vector<MofReader> readers;
  readers.reserve(spill_handles_.size());
  for (const MofHandle& spill : spill_handles_) {
    auto reader = MofReader::Open(spill);
    JBS_RETURN_IF_ERROR(reader.status());
    readers.push_back(std::move(reader).value());
  }
  MofWriter writer(final_base, mof_flags);
  for (int partition = 0; partition < options_.num_partitions; ++partition) {
    std::vector<std::unique_ptr<RecordStream>> streams;
    for (const MofReader& reader : readers) {
      std::vector<uint8_t> segment;
      JBS_RETURN_IF_ERROR(reader.ReadSegment(partition, segment));
      auto owned =
          std::make_shared<const std::vector<uint8_t>>(std::move(segment));
      streams.push_back(std::make_unique<SegmentStream>(*owned, owned));
    }
    KWayMerger merged(std::move(streams));
    // Re-run the combiner across spills so equal keys from different
    // spills collapse (matches Hadoop's merge-time combine).
    IFileWriter segment_out;
    if (options_.combiner) {
      GroupIterator groups(&merged);
      std::string key;
      std::vector<std::string> values;
      class SegmentEmitter final : public Emitter {
       public:
        explicit SegmentEmitter(IFileWriter* out) : out_(out) {}
        void Emit(std::string_view k, std::string_view v) override {
          out_->Append(k, v);
        }

       private:
        IFileWriter* out_;
      } emitter(&segment_out);
      while (groups.NextGroup(&key, &values)) {
        options_.combiner(key, values, emitter);
      }
      JBS_RETURN_IF_ERROR(groups.status());
    } else {
      RecordView record;
      while (merged.NextView(&record)) {
        segment_out.Append(record.key, record.value);
      }
      JBS_RETURN_IF_ERROR(merged.status());
    }
    const uint64_t records = segment_out.records();
    JBS_RETURN_IF_ERROR(
        writer.AppendSegment(encode(segment_out.Finish()), records));
  }
  // Clean up spills.
  for (const MofHandle& spill : spill_handles_) {
    std::error_code ec;
    std::filesystem::remove(spill.data_path, ec);
    std::filesystem::remove(spill.index_path, ec);
  }
  return writer.Finish(map_task, node);
}

}  // namespace jbs::mr
