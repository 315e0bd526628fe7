// K-way merge machinery shared by the map-side spill merge, the baseline
// reduce merge, and the JBS NetMerger's network-levitated merge. A
// RecordStream is any sorted (key,value) iterator; KWayMerger merges many
// of them with a tree of losers; GroupIterator turns the merged stream into
// (key, values...) groups for the reduce function.
//
// Records travel as views, not copies. A RecordView that a stream hands
// out spans bytes the stream owns or leases, and it stays valid until the
// next NextView call on that same stream (or the stream's destruction);
// the caller copies what it must keep longer. Next(Record*) is that copy.
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
  /// Advances to the next record, read in place; false at end-of-stream
  /// or on error (check status()). `view` is valid until the next call.
  virtual bool NextView(RecordView* view) = 0;
  virtual const Status& status() const = 0;

  /// NextView, copied into `record`: for callers that keep records.
  /// Reusing one `record` reuses its strings' capacity.
  bool Next(Record* record) {
    RecordView view;
    if (!NextView(&view)) return false;
    record->key.assign(view.key);
    record->value.assign(view.value);
    return true;
  }
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

/// RecordStream over an in-memory IFile segment, read in place: its views
/// span the segment's bytes. The same lease idiom as Frame::ext: `owner`
/// keeps `segment` alive for the stream's lifetime. A null owner means the
/// caller guarantees that.
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

  bool NextView(RecordView* view) override;
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

/// RecordStream over a vector of records (test helper / combiner output);
/// its views span the vector's strings.
class VectorStream final : public RecordStream {
 public:
  explicit VectorStream(std::vector<Record> records)
      : records_(std::move(records)) {}

  bool NextView(RecordView* view) override {
    if (index_ >= records_.size()) return false;
    const Record& record = records_[index_++];
    *view = {record.key, record.value};
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
/// most of them on a cached 8-byte key prefix. Each source's head is the
/// view its stream last handed out, so no record is copied: the winner's
/// view goes to the caller as is, and the winner's source is advanced
/// (which ends that view) only on the next call. The first source error
/// ends the stream.
///
/// The per-record path is NextView → Refill (the source's NextView, then
/// its head's prefix) → Replay, and every shuffle's merge runs it. A tree
/// node is two words, the prefix and the source, kept in two parallel
/// arrays and carried through Replay as two scalars, never as a pair: a
/// 16-byte pair passed in two registers is spilled as two 8-byte stores
/// and may be reloaded (once vectorised) as one 16-byte load, which the
/// CPU cannot forward from two stores, so it stalls on every record
/// (DESIGN.md §9).
class KWayMerger final : public RecordStream {
 public:
  explicit KWayMerger(std::vector<std::unique_ptr<RecordStream>> inputs);

  bool NextView(RecordView* view) override;
  const Status& status() const override { return status_; }

 private:
  static constexpr size_t kNobody = SIZE_MAX;

  /// True if source `a`'s head (prefix `a_prefix`) sorts before source
  /// `b`'s: by prefix, then exhausted sources last, then by full key,
  /// then by source index.
  bool Before(uint64_t a_prefix, size_t a, uint64_t b_prefix,
              size_t b) const;
  /// Before, for heads whose prefixes are equal.
  bool TieBefore(size_t a, size_t b) const;
  /// Reads the source's next head view into heads_[source]; its prefix:
  /// the head key's first 8 bytes as a big-endian number (zero-padded,
  /// all ones once exhausted), which orders like the key unless equal.
  uint64_t Refill(size_t source);
  /// Replays the source's leaf-to-root path; the winner lands in node 0.
  void Replay(uint64_t prefix, size_t source);
  /// Builds the tree from every source's first head.
  void Prime();

  std::vector<std::unique_ptr<RecordStream>> inputs_;
  std::vector<RecordView> heads_;
  std::vector<char> live_;
  // Source i is leaf k + i; internal node n (1 <= n < k) holds the loser
  // of the match played there (source kNobody before priming reaches it),
  // and node 0 the overall winner. Node n is prefix_[n] and source_[n].
  std::vector<uint64_t> prefix_;
  std::vector<size_t> source_;
  // The source whose head the last call handed out: advanced on the next.
  size_t handed_out_ = kNobody;
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
/// values, the reduce function's input. It reads views and copies each
/// key and value once, into the group it returns; the first record of
/// the next group stays a view until the next call.
class GroupIterator {
 public:
  explicit GroupIterator(RecordStream* stream) : stream_(stream) {}

  /// Fills key/values with the next group; false when exhausted.
  bool NextGroup(std::string* key, std::vector<std::string>* values);

  const Status& status() const { return stream_->status(); }

 private:
  RecordStream* stream_;
  RecordView next_;  // the next group's first record, when have_next_
  bool have_next_ = false;
  bool exhausted_ = false;
};

}  // namespace jbs::mr
