// K-way merge machinery shared by the map-side spill merge, the baseline
// reduce merge, and the JBS NetMerger's network-levitated merge. A
// RecordStream is any sorted (key,value) iterator; KWayMerger merges many
// of them with a tree of losers; GroupIterator turns the merged stream into
// (key, values...) groups for the reduce function.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "mapred/ifile.h"
#include "mapred/types.h"

namespace jbs::mr {

/// Abstract sorted record stream.
class RecordStream {
 public:
  virtual ~RecordStream() = default;
  /// Advances to the next record; false at end-of-stream or on error
  /// (check status()).
  virtual bool Next(Record* record) = 0;
  virtual const Status& status() const = 0;
};

/// A segment whose bytes are still arriving: a prefix that only grows, up
/// to a final size known from the start. A network shuffle hands these to
/// the merge so it can start before the last byte lands.
class ArrivingSegment {
 public:
  virtual ~ArrivingSegment() = default;
  /// The segment's final size.
  virtual uint64_t total() const = 0;
  /// The bytes that have arrived: a prefix of the segment, safe to read
  /// while more arrive. Takes no lock.
  virtual std::span<const uint8_t> arrived() const = 0;
  /// Blocks until more than `have` bytes have arrived; fails with the
  /// error that ended the segment short.
  virtual Status AwaitMore(uint64_t have) = 0;
  /// Blocks until the segment has ended; its verdict.
  virtual Status AwaitEnd() = 0;
};

/// RecordStream over an in-memory IFile segment, read in place. The same
/// lease idiom as Frame::ext: `owner` keeps `segment` alive for the
/// stream's lifetime. A null owner means the caller guarantees that.
class SegmentStream final : public RecordStream {
 public:
  explicit SegmentStream(std::span<const uint8_t> segment,
                         std::shared_ptr<const void> owner = nullptr)
      : owner_(std::move(owner)), reader_(segment) {}
  /// A temporary vector would dangle: pass it as its own owner instead.
  SegmentStream(std::vector<uint8_t>&&, std::shared_ptr<const void> = {}) =
      delete;
  /// Reads `segment` while it arrives. The arrived end is reloaded only
  /// when the next record runs past it, and the stream blocks only when
  /// nothing new has arrived. It ends with the segment: after the EOF
  /// marker it waits for the segment's verdict, so a failure anywhere in
  /// the segment ends the stream with that failure.
  explicit SegmentStream(std::shared_ptr<ArrivingSegment> segment)
      : arriving_(std::move(segment)),
        reader_(arriving_->arrived(), arriving_->total()) {}

  bool Next(Record* record) override;
  const Status& status() const override {
    return ended_.ok() ? reader_.status() : ended_;
  }

 private:
  std::shared_ptr<const void> owner_;
  std::shared_ptr<ArrivingSegment> arriving_;  // null for a whole segment
  IFileReader reader_;
  Status ended_;  // the arriving segment's failure
  bool finished_ = false;
};

/// RecordStream over a vector of records (test helper / combiner output).
class VectorStream final : public RecordStream {
 public:
  explicit VectorStream(std::vector<Record> records)
      : records_(std::move(records)) {}

  bool Next(Record* record) override {
    if (index_ >= records_.size()) return false;
    *record = records_[index_++];
    return true;
  }
  const Status& status() const override { return ok_; }

 private:
  std::vector<Record> records_;
  size_t index_ = 0;
  Status ok_;
};

/// Merges N sorted streams into one sorted stream. Stable across inputs:
/// ties are broken by input index, so records from earlier streams come
/// first within equal keys. A tournament tree of losers (Knuth, TAOCP
/// Vol. 3 §5.4.1) picks the winner in ceil(log2 N) compares per record,
/// most of them on a cached 8-byte key prefix. Each source keeps one head
/// Record; Next swaps it out to the caller and refills the source into the
/// caller's old strings, so a drain that reuses its Record allocates
/// nothing per record. The first source error ends the stream.
class KWayMerger final : public RecordStream {
 public:
  explicit KWayMerger(std::vector<std::unique_ptr<RecordStream>> inputs);

  bool Next(Record* record) override;
  const Status& status() const override { return status_; }

 private:
  /// True if `a`'s head sorts before `b`'s; exhausted sources sort last.
  bool Before(size_t a, size_t b) const;
  /// Reads the source's next head into heads_[source], reusing its strings.
  void Refill(size_t source);
  /// Replays the source's leaf-to-root path; the winner lands in losers_[0].
  void Replay(size_t source);

  static constexpr size_t kNobody = SIZE_MAX;

  std::vector<std::unique_ptr<RecordStream>> inputs_;
  std::vector<Record> heads_;
  // Big-endian first 8 key bytes, zero-padded, all ones once exhausted:
  // orders like the key unless equal, then Before compares in full.
  std::vector<uint64_t> prefixes_;
  std::vector<char> live_;
  // Source i is leaf k + i; internal node n (1 <= n < k) holds the loser
  // of the match played there (kNobody before priming reaches it), and
  // losers_[0] the overall winner.
  std::vector<size_t> losers_;
  Status status_;
  bool primed_ = false;
};

/// Wraps fetched segment bytes into a sorted record stream, decompressing
/// first when the MOF was written with kMofCompressed. The one entry point
/// every shuffle client (local, HTTP, JBS) uses to interpret segments.
/// `owner` keeps `segment` alive (see SegmentStream); a compressed
/// segment is released as soon as it is decompressed.
StatusOr<std::unique_ptr<RecordStream>> OpenSegment(
    std::span<const uint8_t> segment, std::shared_ptr<const void> owner,
    bool compressed);

/// Groups a sorted stream by key: NextGroup() yields one key plus all its
/// values. The reduce-function driver.
class GroupIterator {
 public:
  explicit GroupIterator(RecordStream* stream) : stream_(stream) {}

  /// Fills key/values with the next group; false when exhausted.
  bool NextGroup(std::string* key, std::vector<std::string>* values);

  const Status& status() const { return stream_->status(); }

 private:
  RecordStream* stream_;
  Record lookahead_;
  bool have_lookahead_ = false;
  bool exhausted_ = false;
};

}  // namespace jbs::mr
