#include "mapred/merger.h"

#include <algorithm>
#include <cstring>

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

bool SegmentStream::Next(Record* record) {
  while (!reader_.Next(record)) {
    if (finished_) return false;
    if (!reader_.needs_more()) {
      finished_ = true;
      if (arriving_ != nullptr && reader_.status().ok()) {
        ended_ = arriving_->AwaitEnd();
      }
      return false;
    }
    std::span<const uint8_t> bytes = arriving_->arrived();
    if (bytes.size() == reader_.available()) {
      ended_ = arriving_->AwaitMore(bytes.size());
      if (!ended_.ok()) {
        finished_ = true;
        return false;
      }
      bytes = arriving_->arrived();
    }
    reader_.Extend(bytes);
  }
  return true;
}

namespace {

uint64_t KeyPrefix(const std::string& key) {
  uint8_t bytes[8] = {};
  std::memcpy(bytes, key.data(), std::min<size_t>(key.size(), 8));
  uint64_t prefix = 0;
  for (uint8_t byte : bytes) prefix = (prefix << 8) | byte;
  return prefix;
}

}  // namespace

KWayMerger::KWayMerger(std::vector<std::unique_ptr<RecordStream>> inputs)
    : inputs_(std::move(inputs)),
      heads_(inputs_.size()),
      prefixes_(inputs_.size()),
      live_(inputs_.size()),
      losers_(inputs_.size(), kNobody) {}

bool KWayMerger::Before(size_t a, size_t b) const {
  if (prefixes_[a] != prefixes_[b]) return prefixes_[a] < prefixes_[b];
  if (live_[a] != live_[b]) return live_[a] != 0;
  if (live_[a]) {
    const int cmp = heads_[a].key.compare(heads_[b].key);
    if (cmp != 0) return cmp < 0;
  }
  return a < b;
}

void KWayMerger::Refill(size_t source) {
  live_[source] = inputs_[source]->Next(&heads_[source]);
  if (live_[source]) {
    prefixes_[source] = KeyPrefix(heads_[source].key);
    return;
  }
  prefixes_[source] = UINT64_MAX;
  if (!inputs_[source]->status().ok()) status_ = inputs_[source]->status();
}

void KWayMerger::Replay(size_t source) {
  // Climbs from the source's leaf, playing the stored loser at each node.
  // While priming, the first climber to reach a node parks there and
  // waits for the winner of the node's other subtree.
  size_t winner = source;
  for (size_t n = (inputs_.size() + source) / 2; n >= 1; n /= 2) {
    if (losers_[n] == kNobody) {
      losers_[n] = winner;
      return;
    }
    if (Before(losers_[n], winner)) std::swap(losers_[n], winner);
  }
  losers_[0] = winner;
}

bool KWayMerger::Next(Record* record) {
  if (!status_.ok() || inputs_.empty()) return false;
  if (!primed_) {
    primed_ = true;
    for (size_t i = 0; i < inputs_.size(); ++i) {
      Refill(i);
      if (!status_.ok()) return false;
      Replay(i);
    }
  }
  const size_t winner = losers_[0];
  if (!live_[winner]) return false;
  std::swap(*record, heads_[winner]);
  Refill(winner);
  Replay(winner);
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
