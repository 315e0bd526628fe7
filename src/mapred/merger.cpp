#include "mapred/merger.h"

#include "common/compress.h"

namespace jbs::mr {

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
