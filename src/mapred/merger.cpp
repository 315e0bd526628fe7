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
      prefix_(inputs_.size()),
      source_(inputs_.size(), kNobody) {}

inline bool KWayMerger::Before(uint64_t a_prefix, size_t a, uint64_t b_prefix,
                               size_t b) const {
  if (a_prefix != b_prefix) [[likely]] return a_prefix < b_prefix;
  return TieBefore(a, b);
}

bool KWayMerger::TieBefore(size_t a, size_t b) const {
  if (live_[a] != live_[b]) return live_[a] != 0;
  if (live_[a]) {
    const int cmp = heads_[a].key.compare(heads_[b].key);
    if (cmp != 0) return cmp < 0;
  }
  return a < b;
}

// Refill and Replay are forced inline: with them, NextView is one
// function around one loop, and the winner never leaves registers.
[[gnu::always_inline]] inline uint64_t KWayMerger::Refill(size_t source) {
  live_[source] = inputs_[source]->NextView(&heads_[source]);
  if (live_[source]) return KeyPrefix(heads_[source].key);
  if (!inputs_[source]->status().ok()) status_ = inputs_[source]->status();
  return UINT64_MAX;
}

[[gnu::always_inline]] inline void KWayMerger::Replay(uint64_t prefix,
                                                     size_t source) {
  // Climbs from the source's leaf, playing the stored loser at each node.
  // Random keys make each match a coin toss, so the swap is done with
  // masks rather than a branch the CPU would mispredict half the time.
  // The winner stays in two registers all the way up.
  for (size_t n = (source_.size() + source) / 2; n >= 1; n /= 2) {
    const uint64_t loser_prefix = prefix_[n];
    const size_t loser = source_[n];
    const uint64_t mask =
        0 - static_cast<uint64_t>(Before(loser_prefix, loser, prefix, source));
    const uint64_t prefix_flip = (loser_prefix ^ prefix) & mask;
    const size_t source_flip = (loser ^ source) & mask;
    prefix_[n] = loser_prefix ^ prefix_flip;
    source_[n] = loser ^ source_flip;
    prefix ^= prefix_flip;
    source ^= source_flip;
  }
  prefix_[0] = prefix;
  source_[0] = source;
}

void KWayMerger::Prime() {
  // Every source climbs in turn. The first climber to reach a node parks
  // there and waits for the winner of the node's other subtree.
  for (size_t source = 0; source < inputs_.size() && status_.ok(); ++source) {
    uint64_t prefix = Refill(source);
    size_t winner = source;
    size_t n = (source_.size() + source) / 2;
    for (; n >= 1; n /= 2) {
      if (source_[n] == kNobody) {
        prefix_[n] = prefix;
        source_[n] = winner;
        break;
      }
      if (Before(prefix_[n], source_[n], prefix, winner)) {
        std::swap(prefix_[n], prefix);
        std::swap(source_[n], winner);
      }
    }
    if (n == 0) {
      prefix_[0] = prefix;
      source_[0] = winner;
    }
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
    Replay(Refill(handed_out_), handed_out_);
    handed_out_ = kNobody;
    if (!status_.ok()) return false;
  }
  const size_t winner = source_[0];
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
