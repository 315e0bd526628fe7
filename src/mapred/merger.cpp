#include "mapred/merger.h"

#include <algorithm>
#include <bit>
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

bool SegmentStream::NextView(RecordView* view) {
  while (!reader_.NextView(view)) {
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

/// The key's first 8 bytes as a big-endian number, zero-padded: one load
/// and a byte swap for keys of 8 bytes or more.
uint64_t KeyPrefix(std::string_view key) {
  uint64_t prefix = 0;
  if (key.size() >= sizeof(prefix)) [[likely]] {
    std::memcpy(&prefix, key.data(), sizeof(prefix));
  } else if (!key.empty()) {
    std::memcpy(&prefix, key.data(), key.size());
  }
  if constexpr (std::endian::native == std::endian::little) {
    prefix = __builtin_bswap64(prefix);
  }
  return prefix;
}

}  // namespace

KWayMerger::KWayMerger(std::vector<std::unique_ptr<RecordStream>> inputs)
    : inputs_(std::move(inputs)),
      heads_(inputs_.size()),
      live_(inputs_.size()),
      tree_(inputs_.size(), Entry{0, kNobody}) {}

bool KWayMerger::Before(const Entry& a, const Entry& b) const {
  if (a.prefix != b.prefix) [[likely]] return a.prefix < b.prefix;
  if (live_[a.source] != live_[b.source]) return live_[a.source] != 0;
  if (live_[a.source]) {
    const int cmp = heads_[a.source].key.compare(heads_[b.source].key);
    if (cmp != 0) return cmp < 0;
  }
  return a.source < b.source;
}

KWayMerger::Entry KWayMerger::Refill(size_t source) {
  live_[source] = inputs_[source]->NextView(&heads_[source]);
  if (live_[source]) return {KeyPrefix(heads_[source].key), source};
  if (!inputs_[source]->status().ok()) status_ = inputs_[source]->status();
  return {UINT64_MAX, source};
}

void KWayMerger::Replay(Entry winner) {
  // Climbs from the source's leaf, playing the stored loser at each node.
  // Random keys make each match a coin toss, so the swap is done with
  // masks rather than a branch the CPU would mispredict half the time.
  for (size_t n = (tree_.size() + winner.source) / 2; n >= 1; n /= 2) {
    const Entry loser = tree_[n];
    const uint64_t mask = 0 - static_cast<uint64_t>(Before(loser, winner));
    const uint64_t prefix = (loser.prefix ^ winner.prefix) & mask;
    const size_t source = (loser.source ^ winner.source) & mask;
    tree_[n] = {loser.prefix ^ prefix, loser.source ^ source};
    winner = {winner.prefix ^ prefix, winner.source ^ source};
  }
  tree_[0] = winner;
}

void KWayMerger::Prime() {
  // Every source climbs in turn. The first climber to reach a node parks
  // there and waits for the winner of the node's other subtree.
  for (size_t source = 0; source < inputs_.size() && status_.ok(); ++source) {
    Entry winner = Refill(source);
    size_t n = (tree_.size() + source) / 2;
    for (; n >= 1; n /= 2) {
      if (tree_[n].source == kNobody) {
        tree_[n] = winner;
        break;
      }
      if (Before(tree_[n], winner)) std::swap(tree_[n], winner);
    }
    if (n == 0) tree_[0] = winner;
  }
}

bool KWayMerger::NextView(RecordView* view) {
  if (!status_.ok() || inputs_.empty()) return false;
  if (!primed_) {
    primed_ = true;
    Prime();
    if (!status_.ok()) return false;
  } else if (handed_out_ != kNobody) {
    // The caller is done with the last view: only now may its source move.
    Replay(Refill(handed_out_));
    handed_out_ = kNobody;
    if (!status_.ok()) return false;
  }
  const size_t winner = tree_[0].source;
  if (!live_[winner]) return false;
  *view = heads_[winner];
  handed_out_ = winner;
  return true;
}

bool GroupIterator::NextGroup(std::string* key,
                              std::vector<std::string>* values) {
  values->clear();
  if (exhausted_) return false;
  if (!have_next_ && !stream_->NextView(&next_)) {
    exhausted_ = true;
    return false;
  }
  key->assign(next_.key);
  values->emplace_back(next_.value);
  while (stream_->NextView(&next_)) {
    if (next_.key != *key) {
      have_next_ = true;
      return true;
    }
    values->emplace_back(next_.value);
  }
  have_next_ = false;
  exhausted_ = true;
  return true;
}

}  // namespace jbs::mr
