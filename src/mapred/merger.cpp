#include "mapred/merger.h"

#include "common/compress.h"

namespace jbs::mr {

std::unique_ptr<RecordStream> HierarchicalMerge(
    std::vector<std::unique_ptr<RecordStream>> inputs, size_t fan_in) {
  if (fan_in < 2) fan_in = 2;
  while (inputs.size() > fan_in) {
    std::vector<std::unique_ptr<RecordStream>> next_level;
    next_level.reserve(inputs.size() / fan_in + 1);
    for (size_t begin = 0; begin < inputs.size(); begin += fan_in) {
      const size_t end = std::min(begin + fan_in, inputs.size());
      std::vector<std::unique_ptr<RecordStream>> group;
      group.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        group.push_back(std::move(inputs[i]));
      }
      // Materialize the intermediate run (in memory — the levitated
      // property is preserved; only the stream count shrinks).
      KWayMerger merger(std::move(group));
      std::vector<Record> run;
      Record record;
      while (merger.Next(&record)) run.push_back(std::move(record));
      if (!merger.status().ok()) {
        // Surface the error through a stream that reports it.
        class ErrorStream final : public RecordStream {
         public:
          explicit ErrorStream(Status status) : status_(std::move(status)) {}
          bool Next(Record*) override { return false; }
          const Status& status() const override { return status_; }

         private:
          Status status_;
        };
        std::vector<std::unique_ptr<RecordStream>> error_only;
        error_only.push_back(
            std::make_unique<ErrorStream>(merger.status()));
        return std::make_unique<KWayMerger>(std::move(error_only));
      }
      next_level.push_back(std::make_unique<VectorStream>(std::move(run)));
    }
    inputs = std::move(next_level);
  }
  return std::make_unique<KWayMerger>(std::move(inputs));
}

StatusOr<std::unique_ptr<RecordStream>> OpenSegment(
    std::span<const uint8_t> segment, std::shared_ptr<const void> owner,
    bool compressed) {
  if (compressed) {
    // Flag/payload cross-check: a segment flagged compressed that doesn't
    // even start with the codec header means the flag and the bytes
    // disagree — a supplier-side mixup or header corruption, which
    // deserves a distinct verdict rather than Decompress's generic "not a
    // compressed stream".
    if (!LooksCompressed(segment)) {
      return IoError(
          "segment flagged compressed but payload has no codec header "
          "(kSegmentCompressed flag/payload mismatch)");
    }
    auto raw = Decompress(segment);
    JBS_RETURN_IF_ERROR(raw.status());
    auto owned =
        std::make_shared<const std::vector<uint8_t>>(std::move(raw).value());
    return std::unique_ptr<RecordStream>(
        std::make_unique<SegmentStream>(*owned, owned));
  }
  if (LooksCompressed(segment)) {
    // The inverse mismatch: an unflagged segment that *looks* compressed.
    // A legitimate raw IFile can start with the codec magic by chance, so
    // disambiguate with the IFile trailer CRC — real record data passes,
    // while mislabeled compressed bytes fail essentially always. Without
    // this check the compressed bytes would be merged as records.
    if (!IFileReader(segment).VerifyChecksum().ok()) {
      return IoError(
          "segment not flagged compressed but payload is a codec stream, "
          "not a valid IFile (kSegmentCompressed flag/payload mismatch)");
    }
  }
  return std::unique_ptr<RecordStream>(
      std::make_unique<SegmentStream>(segment, std::move(owner)));
}

KWayMerger::KWayMerger(std::vector<std::unique_ptr<RecordStream>> inputs)
    : inputs_(std::move(inputs)) {}

bool KWayMerger::Refill(size_t source) {
  Record record;
  if (inputs_[source]->Next(&record)) {
    heap_.push({std::move(record), source});
    return true;
  }
  if (!inputs_[source]->status().ok()) {
    status_ = inputs_[source]->status();
  }
  return false;
}

bool KWayMerger::Next(Record* record) {
  if (!status_.ok()) return false;
  if (!primed_) {
    primed_ = true;
    for (size_t i = 0; i < inputs_.size(); ++i) {
      Refill(i);
      if (!status_.ok()) return false;
    }
  }
  if (heap_.empty()) return false;
  const HeapItem& top = heap_.top();
  *record = top.record;
  const size_t source = top.source;
  heap_.pop();
  Refill(source);
  return status_.ok();
}

bool GroupIterator::NextGroup(std::string* key,
                              std::vector<std::string>* values) {
  values->clear();
  if (exhausted_) return false;
  if (!have_lookahead_) {
    if (!stream_->Next(&lookahead_)) {
      exhausted_ = true;
      return false;
    }
    have_lookahead_ = true;
  }
  *key = lookahead_.key;
  values->push_back(std::move(lookahead_.value));
  have_lookahead_ = false;
  Record record;
  while (stream_->Next(&record)) {
    if (record.key != *key) {
      lookahead_ = std::move(record);
      have_lookahead_ = true;
      return true;
    }
    values->push_back(std::move(record.value));
  }
  exhausted_ = true;
  return true;
}

}  // namespace jbs::mr
