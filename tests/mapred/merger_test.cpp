#include "mapred/merger.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/compress.h"
#include "common/rng.h"

namespace jbs::mr {
namespace {

std::unique_ptr<RecordStream> Stream(std::vector<Record> records) {
  return std::make_unique<VectorStream>(std::move(records));
}

std::vector<Record> Drain(RecordStream& stream) {
  std::vector<Record> out;
  Record record;
  while (stream.Next(&record)) out.push_back(record);
  return out;
}

/// A segment that arrives `piece` bytes per AwaitMore, on the caller's
/// thread. `fail_at` bytes in, it stops growing and ends with `failure`;
/// otherwise it ends with `verdict` once every byte is in.
class PiecewiseSegment final : public ArrivingSegment {
 public:
  PiecewiseSegment(std::vector<uint8_t> bytes, size_t piece)
      : bytes_(std::move(bytes)),
        piece_(piece),
        arrived_(std::min(piece, bytes_.size())) {}

  uint64_t total() const override { return bytes_.size(); }
  std::span<const uint8_t> arrived() const override {
    return std::span<const uint8_t>(bytes_).first(arrived_);
  }
  Status AwaitMore(uint64_t have) override {
    ++waits;
    if (have != arrived_) return Internal("reader lost track of the prefix");
    if (arrived_ >= fail_at) return failure;
    arrived_ = std::min({arrived_ + piece_, bytes_.size(), fail_at});
    return Status::Ok();
  }
  /// The wait lets the rest arrive, up to `fail_at`.
  Status AwaitEnd() override {
    ++end_waits;
    if (fail_at < bytes_.size()) return failure;
    arrived_ = bytes_.size();
    return verdict;
  }

  size_t fail_at = SIZE_MAX;
  Status failure = IoError("fetch failed");
  Status verdict;
  int waits = 0;
  int end_waits = 0;

 private:
  std::vector<uint8_t> bytes_;
  size_t piece_;
  size_t arrived_;
};

/// Records of every length class the varints have: empty, one byte,
/// past 127 (multi-byte varint) and past 64 KiB.
std::vector<uint8_t> MixedSegment(std::vector<Record>* records) {
  IFileWriter writer;
  Rng rng(7);
  const size_t sizes[] = {0, 1, 5, 127, 128, 300, 70000};
  for (int i = 0; i < 40; ++i) {
    Record record;
    record.key = "key" + std::to_string(1000 + i);
    record.key.append(sizes[rng.Below(4)], 'k');
    record.value.assign(sizes[rng.Below(7)], static_cast<char>('a' + i % 26));
    writer.Append(record);
    records->push_back(std::move(record));
  }
  return writer.Finish();
}

TEST(KWayMergerTest, MergesTwoSortedStreams) {
  std::vector<std::unique_ptr<RecordStream>> inputs;
  inputs.push_back(Stream({{"a", "1"}, {"c", "3"}, {"e", "5"}}));
  inputs.push_back(Stream({{"b", "2"}, {"d", "4"}}));
  KWayMerger merger(std::move(inputs));
  auto merged = Drain(merger);
  ASSERT_EQ(merged.size(), 5u);
  for (size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].key, merged[i].key);
  }
  EXPECT_EQ(merged[0].key, "a");
  EXPECT_EQ(merged[4].key, "e");
}

TEST(KWayMergerTest, EmptyInputs) {
  std::vector<std::unique_ptr<RecordStream>> inputs;
  inputs.push_back(Stream({}));
  inputs.push_back(Stream({}));
  KWayMerger merger(std::move(inputs));
  EXPECT_TRUE(Drain(merger).empty());
  EXPECT_TRUE(merger.status().ok());
}

TEST(KWayMergerTest, NoInputs) {
  KWayMerger merger({});
  EXPECT_TRUE(Drain(merger).empty());
}

TEST(KWayMergerTest, DuplicateKeysStableAcrossStreams) {
  std::vector<std::unique_ptr<RecordStream>> inputs;
  inputs.push_back(Stream({{"k", "from0a"}, {"k", "from0b"}}));
  inputs.push_back(Stream({{"k", "from1"}}));
  KWayMerger merger(std::move(inputs));
  auto merged = Drain(merger);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].value, "from0a");
  EXPECT_EQ(merged[1].value, "from0b");
  EXPECT_EQ(merged[2].value, "from1");
}

TEST(KWayMergerTest, ManyStreamsPropertySweep) {
  // Property: merging K sorted random streams == sorting the union.
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::unique_ptr<RecordStream>> inputs;
    std::vector<Record> all;
    const int k = 1 + static_cast<int>(rng.Below(12));
    for (int s = 0; s < k; ++s) {
      std::vector<Record> records;
      const int n = static_cast<int>(rng.Below(50));
      for (int i = 0; i < n; ++i) {
        records.push_back({std::to_string(rng.Below(1000)), "v"});
      }
      std::sort(records.begin(), records.end(),
                [](const Record& a, const Record& b) { return a.key < b.key; });
      all.insert(all.end(), records.begin(), records.end());
      inputs.push_back(Stream(std::move(records)));
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const Record& a, const Record& b) {
                       return a.key < b.key;
                     });
    KWayMerger merger(std::move(inputs));
    auto merged = Drain(merger);
    ASSERT_EQ(merged.size(), all.size());
    for (size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(merged[i].key, all[i].key) << "trial " << trial;
    }
  }
}

TEST(KWayMergerTest, PropagatesStreamError) {
  class BrokenStream final : public RecordStream {
   public:
    bool NextView(RecordView* view) override {
      if (emitted_) return false;
      emitted_ = true;
      view->key = "x";
      return true;
    }
    const Status& status() const override { return status_; }
    bool emitted_ = false;
    Status status_ = IoError("segment corrupted");
  };
  std::vector<std::unique_ptr<RecordStream>> inputs;
  inputs.push_back(std::make_unique<BrokenStream>());
  KWayMerger merger(std::move(inputs));
  Record record;
  while (merger.Next(&record)) {
  }
  EXPECT_FALSE(merger.status().ok());
}

// Emits `records`, then ends with `error` (Ok for a clean end).
class ScriptedStream final : public RecordStream {
 public:
  ScriptedStream(std::vector<Record> records, Status error)
      : records_(std::move(records)), status_(std::move(error)) {}

  bool NextView(RecordView* view) override {
    if (index_ >= records_.size()) return false;
    const Record& record = records_[index_++];
    *view = {record.key, record.value};
    return true;
  }
  const Status& status() const override {
    return index_ >= records_.size() ? status_ : ok_;
  }

 private:
  std::vector<Record> records_;
  size_t index_ = 0;
  Status status_;
  Status ok_;
};

// The oracle: std::stable_sort of the sources' concatenation. Values
// name their source and position, so equality also checks tie order.
std::vector<Record> StableSorted(
    const std::vector<std::vector<Record>>& sources) {
  std::vector<Record> all;
  for (const auto& source : sources) {
    all.insert(all.end(), source.begin(), source.end());
  }
  std::stable_sort(
      all.begin(), all.end(),
      [](const Record& a, const Record& b) { return a.key < b.key; });
  return all;
}

std::vector<Record> Merge(const std::vector<std::vector<Record>>& sources) {
  std::vector<std::unique_ptr<RecordStream>> inputs;
  for (const auto& source : sources) inputs.push_back(Stream(source));
  KWayMerger merger(std::move(inputs));
  auto merged = Drain(merger);
  EXPECT_TRUE(merger.status().ok()) << merger.status().ToString();
  return merged;
}

// Sorts each source by key and tags every value with its position.
std::vector<std::vector<Record>> Sources(
    std::vector<std::vector<std::string>> keys) {
  std::vector<std::vector<Record>> sources;
  for (size_t s = 0; s < keys.size(); ++s) {
    std::sort(keys[s].begin(), keys[s].end());
    sources.emplace_back();
    for (size_t i = 0; i < keys[s].size(); ++i) {
      sources.back().push_back(
          {keys[s][i], std::to_string(s) + "#" + std::to_string(i)});
    }
  }
  return sources;
}

TEST(KWayMergerTest, FanInsThatAreNotPowersOfTwo) {
  Rng rng(11);
  for (size_t k : {1, 2, 3, 5, 32, 33}) {
    std::vector<std::vector<std::string>> keys(k);
    for (auto& source : keys) {
      const int n = static_cast<int>(rng.Below(40));
      for (int i = 0; i < n; ++i) {
        // Short keys over a 3-letter alphabet: plenty of ties and prefixes.
        std::string key(rng.Below(12), 'a');
        for (char& c : key) c = static_cast<char>('a' + rng.Below(3));
        source.push_back(std::move(key));
      }
    }
    const auto sources = Sources(std::move(keys));
    EXPECT_EQ(Merge(sources), StableSorted(sources)) << "k=" << k;
  }
}

TEST(KWayMergerTest, KeysSharingEightBytePrefixDifferAfterIt) {
  const auto sources = Sources({
      {"prefix00b", "prefix00", "prefix00a\xff", "prefix01"},
      {"prefix00a", "prefix00\x01", "prefix00ab", "prefix00"},
      {"prefix00\xff", "prefix00aa", "prefix00\x80z"},
  });
  EXPECT_EQ(Merge(sources), StableSorted(sources));
}

TEST(KWayMergerTest, ShortKeysAndTrailingZeroBytesDoNotTie) {
  using namespace std::string_literals;
  // Zero-padding gives "a", "a\0" and "a\0\0" the same 8-byte prefix; the
  // full compare must still order them by length.
  const auto sources = Sources({
      {"a\0"s, ""s, "b"s},
      {"a"s, "a\0\0"s, "\0"s},
      {"a\0"s, "a"s, "\xff"s, "a\0\1"s},
  });
  const auto merged = Merge(sources);
  EXPECT_EQ(merged, StableSorted(sources));
  ASSERT_GE(merged.size(), 5u);
  EXPECT_EQ(merged[0].key, ""s);
  EXPECT_EQ(merged[1].key, "\0"s);
  EXPECT_EQ(merged[2].key, "a"s);
  EXPECT_EQ(merged[3].key, "a"s);
  EXPECT_EQ(merged[4].key, "a\0"s);
}

TEST(KWayMergerTest, EmptySourcesMixedWithNonEmpty) {
  const auto sources = Sources({
      {}, {"m", "c"}, {}, {}, {"a", "z", "c"}, {}, {"c"}, {},
  });
  EXPECT_EQ(Merge(sources), StableSorted(sources));
}

TEST(KWayMergerTest, ErrorAfterOtherSourcesEmittedStopsTheStream) {
  const auto sources = Sources({{"a", "c", "e"}, {"b", "d"}, {"a", "f"}});
  std::vector<std::unique_ptr<RecordStream>> inputs;
  inputs.push_back(Stream(sources[0]));
  // Source 1 fails when asked for the record after "b".
  inputs.push_back(std::make_unique<ScriptedStream>(
      std::vector<Record>{sources[1][0]}, IoError("segment corrupted")));
  inputs.push_back(Stream(sources[2]));
  KWayMerger merger(std::move(inputs));
  const auto merged = Drain(merger);
  EXPECT_FALSE(merger.status().ok());
  Record record;
  EXPECT_FALSE(merger.Next(&record));  // stays stopped
  // Every record before the failed refill came out in order: "a" twice,
  // then "b". A source is advanced only on the call after its record was
  // handed out, so the failure ends the call after "b".
  const auto expected = StableSorted(sources);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged,
            std::vector<Record>(expected.begin(), expected.begin() + 3));
}

TEST(KWayMergerTest, TiesStayInSourceOrderAcrossThirtyTwoSources) {
  std::vector<std::vector<std::string>> keys(32, {"k", "k", "tie", "z"});
  const auto sources = Sources(std::move(keys));
  const auto merged = Merge(sources);
  EXPECT_EQ(merged, StableSorted(sources));
  ASSERT_EQ(merged.size(), 128u);
  EXPECT_EQ(merged[0].value, "0#0");
  EXPECT_EQ(merged[1].value, "0#1");
  EXPECT_EQ(merged[2].value, "1#0");
  EXPECT_EQ(merged[63].value, "31#1");
}

TEST(GroupIteratorTest, GroupsConsecutiveKeys) {
  VectorStream stream(
      {{"a", "1"}, {"a", "2"}, {"b", "3"}, {"c", "4"}, {"c", "5"}});
  GroupIterator groups(&stream);
  std::string key;
  std::vector<std::string> values;
  ASSERT_TRUE(groups.NextGroup(&key, &values));
  EXPECT_EQ(key, "a");
  EXPECT_EQ(values, (std::vector<std::string>{"1", "2"}));
  ASSERT_TRUE(groups.NextGroup(&key, &values));
  EXPECT_EQ(key, "b");
  EXPECT_EQ(values, (std::vector<std::string>{"3"}));
  ASSERT_TRUE(groups.NextGroup(&key, &values));
  EXPECT_EQ(key, "c");
  EXPECT_EQ(values.size(), 2u);
  EXPECT_FALSE(groups.NextGroup(&key, &values));
  EXPECT_FALSE(groups.NextGroup(&key, &values));  // stable after end
}

TEST(GroupIteratorTest, EmptyStream) {
  VectorStream stream({});
  GroupIterator groups(&stream);
  std::string key;
  std::vector<std::string> values;
  EXPECT_FALSE(groups.NextGroup(&key, &values));
}

TEST(GroupIteratorTest, SingleGroup) {
  VectorStream stream({{"only", "v1"}, {"only", "v2"}, {"only", "v3"}});
  GroupIterator groups(&stream);
  std::string key;
  std::vector<std::string> values;
  ASSERT_TRUE(groups.NextGroup(&key, &values));
  EXPECT_EQ(values.size(), 3u);
  EXPECT_FALSE(groups.NextGroup(&key, &values));
}

TEST(SegmentStreamTest, ReadsIFileSegment) {
  IFileWriter writer;
  writer.Append("x", "1");
  writer.Append("y", "2");
  const std::vector<uint8_t> bytes = writer.Finish();
  SegmentStream stream(bytes);
  auto records = Drain(stream);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(stream.status().ok());
}

TEST(SegmentStreamTest, OwnerLivesAsLongAsTheStream) {
  IFileWriter writer;
  writer.Append("x", "1");
  writer.Append("y", "2");
  auto owned = std::make_shared<const std::vector<uint8_t>>(writer.Finish());
  const std::weak_ptr<const std::vector<uint8_t>> watch = owned;
  auto stream = std::make_unique<SegmentStream>(*owned, owned);
  owned.reset();
  ASSERT_FALSE(watch.expired());  // the stream holds the lease
  EXPECT_EQ(Drain(*stream).size(), 2u);
  EXPECT_TRUE(stream->status().ok());
  stream.reset();
  EXPECT_TRUE(watch.expired());
}

TEST(SegmentStreamTest, ArrivingSegmentYieldsWhatTheWholeSegmentDoes) {
  // One byte at a time puts a piece boundary inside every varint, key,
  // value, the EOF marker and the trailer; the larger pieces are chunk
  // sized.
  std::vector<Record> expected;
  const std::vector<uint8_t> bytes = MixedSegment(&expected);
  SegmentStream whole(bytes);
  ASSERT_EQ(Drain(whole), expected);
  for (const size_t piece : {size_t{1}, size_t{2}, size_t{3}, size_t{1500},
                             size_t{4096}, bytes.size()}) {
    SCOPED_TRACE(piece);
    auto arriving = std::make_shared<PiecewiseSegment>(bytes, piece);
    SegmentStream stream(arriving);
    EXPECT_EQ(Drain(stream), expected);
    EXPECT_TRUE(stream.status().ok()) << stream.status().ToString();
    EXPECT_EQ(arriving->end_waits, 1);
    // The stream waits only when a record runs past what has arrived.
    EXPECT_LE(arriving->waits,
              static_cast<int>((bytes.size() + piece - 1) / piece));
  }
}

TEST(SegmentStreamTest, CompleteSegmentCutMidRecordFailsWithoutWaiting) {
  std::vector<Record> expected;
  std::vector<uint8_t> bytes = MixedSegment(&expected);
  for (const size_t cut : {size_t{1}, size_t{9}, bytes.size() / 2,
                           bytes.size() - 7}) {
    SCOPED_TRACE(cut);
    std::vector<uint8_t> shortened(bytes.begin(), bytes.begin() + cut);
    IFileReader whole(shortened);
    Record record;
    while (whole.Next(&record)) {
    }
    ASSERT_EQ(whole.status().code(), StatusCode::kIoError);
    // Arrived in pieces, the cut segment is the whole segment: once its
    // last byte is in, the reader fails as over the whole span.
    auto arriving = std::make_shared<PiecewiseSegment>(shortened, 64);
    SegmentStream stream(arriving);
    Drain(stream);
    EXPECT_EQ(stream.status().code(), StatusCode::kIoError);
    EXPECT_EQ(stream.status().message(), whole.status().message());
    EXPECT_EQ(arriving->end_waits, 0);
  }
}

TEST(SegmentStreamTest, FailureWhileWaitingEndsTheStream) {
  std::vector<Record> expected;
  const std::vector<uint8_t> bytes = MixedSegment(&expected);
  auto arriving = std::make_shared<PiecewiseSegment>(bytes, 1000);
  arriving->fail_at = bytes.size() / 2;
  SegmentStream stream(arriving);
  const std::vector<Record> got = Drain(stream);
  EXPECT_LT(got.size(), expected.size());
  EXPECT_EQ(stream.status().message(), "fetch failed");
  Record record;
  EXPECT_FALSE(stream.Next(&record));  // stays failed
  EXPECT_EQ(stream.status().message(), "fetch failed");
}

TEST(SegmentStreamTest, EndOfRecordsWaitsForTheSegmentsVerdict) {
  // The EOF marker is not the end: a fetch that fails on the trailer
  // still fails the stream.
  std::vector<Record> expected;
  const std::vector<uint8_t> bytes = MixedSegment(&expected);
  auto arriving = std::make_shared<PiecewiseSegment>(bytes, bytes.size());
  arriving->verdict = IoError("trailer chunk lost");
  SegmentStream stream(arriving);
  EXPECT_EQ(Drain(stream), expected);
  EXPECT_EQ(stream.status().message(), "trailer chunk lost");
  EXPECT_EQ(arriving->end_waits, 1);
}

TEST(SegmentStreamTest, MergesArrivingSegments) {
  std::vector<std::unique_ptr<RecordStream>> inputs;
  std::vector<Record> expected;
  for (int s = 0; s < 3; ++s) {
    IFileWriter writer;
    for (int i = 0; i < 50; ++i) {
      Record record{"k" + std::to_string(1000 + 3 * i + s), std::string(90, 'v')};
      writer.Append(record);
      expected.push_back(std::move(record));
    }
    inputs.push_back(std::make_unique<SegmentStream>(
        std::make_shared<PiecewiseSegment>(writer.Finish(), 333)));
  }
  std::sort(expected.begin(), expected.end(),
            [](const Record& a, const Record& b) { return a.key < b.key; });
  KWayMerger merger(std::move(inputs));
  EXPECT_EQ(Drain(merger), expected);
  EXPECT_TRUE(merger.status().ok());
}

TEST(KWayMergerTest, MixedStreamKindsKeepBytesAndTieOrder) {
  // The same sources as vectors, as whole segments and as segments still
  // arriving: views into a vector, a segment and a growing prefix must
  // merge to the same bytes in the same tie order as the oracle.
  Rng rng(23);
  std::vector<std::vector<std::string>> keys(7);
  for (auto& source : keys) {
    const int n = static_cast<int>(rng.Below(60));
    for (int i = 0; i < n; ++i) {
      // Ties, shared 8-byte prefixes, embedded zero bytes and empty keys.
      std::string key = rng.Below(2) == 0 ? "prefix00" : "";
      key.append(rng.Below(3), static_cast<char>(rng.Below(3)));
      source.push_back(std::move(key));
    }
  }
  const auto sources = Sources(std::move(keys));
  std::vector<std::vector<uint8_t>> segments;
  for (const auto& source : sources) {
    IFileWriter writer;
    for (const Record& record : source) writer.Append(record);
    segments.push_back(writer.Finish());
  }
  const auto expected = StableSorted(sources);
  for (int layout = 0; layout < 3; ++layout) {
    SCOPED_TRACE(layout);
    std::vector<std::unique_ptr<RecordStream>> inputs;
    for (size_t s = 0; s < sources.size(); ++s) {
      switch ((s + static_cast<size_t>(layout)) % 3) {
        case 0:
          inputs.push_back(Stream(sources[s]));
          break;
        case 1:
          inputs.push_back(std::make_unique<SegmentStream>(segments[s]));
          break;
        default:
          inputs.push_back(std::make_unique<SegmentStream>(
              std::make_shared<PiecewiseSegment>(segments[s], 5)));
          break;
      }
    }
    KWayMerger merger(std::move(inputs));
    EXPECT_EQ(Drain(merger), expected);
    EXPECT_TRUE(merger.status().ok()) << merger.status().ToString();
  }
}

TEST(KWayMergerTest, SegmentStreamsMatchAStableSortAtEveryFanIn) {
  // The shuffle's own input type at fan-ins 1 to 64, whole and arriving
  // in random cuts, against a stable sort by (key, source index).
  using namespace std::string_literals;
  // Bases shorter than 8 bytes, and bases sharing their first 8 bytes;
  // tails of zero bytes and a small alphabet, so keys repeat within and
  // across sources.
  const std::string bases[] = {""s, "a"s, "prefix0"s, "prefix00"s,
                               "prefix00a"s};
  const char tails[] = {'\0', '\1', 'a', '\xff'};
  Rng rng(29);
  for (size_t k = 1; k <= 64; ++k) {
    SCOPED_TRACE("k=" + std::to_string(k));
    std::vector<std::vector<std::string>> keys(k);
    for (auto& source : keys) {
      const size_t n = rng.Below(4) == 0 ? 0 : rng.Below(40);  // some empty
      for (size_t i = 0; i < n; ++i) {
        std::string key = bases[rng.Below(std::size(bases))];
        for (size_t t = rng.Below(4); t > 0; --t) {
          key.push_back(tails[rng.Below(std::size(tails))]);
        }
        source.push_back(std::move(key));
      }
    }
    const auto sources = Sources(std::move(keys));
    std::vector<std::vector<uint8_t>> segments;
    for (const auto& source : sources) {
      IFileWriter writer;
      for (const Record& record : source) writer.Append(record);
      segments.push_back(writer.Finish());
    }
    const auto expected = StableSorted(sources);
    for (const bool arriving : {false, true}) {
      SCOPED_TRACE(arriving ? "arriving" : "whole");
      std::vector<std::unique_ptr<RecordStream>> inputs;
      for (const auto& segment : segments) {
        if (arriving) {
          auto cuts =
              std::make_shared<PiecewiseSegment>(segment, 1 + rng.Below(200));
          inputs.push_back(std::make_unique<SegmentStream>(std::move(cuts)));
        } else {
          inputs.push_back(std::make_unique<SegmentStream>(segment));
        }
      }
      KWayMerger merger(std::move(inputs));
      EXPECT_EQ(Drain(merger), expected);
      EXPECT_TRUE(merger.status().ok()) << merger.status().ToString();
    }
  }
}

TEST(GroupIteratorTest, GroupsAMergeOfSegmentsByView) {
  // The next group's first record stays a view into a segment between
  // NextGroup calls: the merge must not move its source until then.
  std::vector<std::vector<uint8_t>> segments(3);
  std::map<std::string, std::vector<std::string>> expected;
  for (int s = 0; s < 3; ++s) {
    IFileWriter writer;
    for (int k = 0; k < 20; k += 1 + s) {
      const std::string key = "key" + std::to_string(100 + k);
      const std::string value = std::to_string(s) + ":" + std::to_string(k);
      writer.Append(key, value);
      expected[key].push_back(value);
    }
    segments[static_cast<size_t>(s)] = writer.Finish();
  }
  std::vector<std::unique_ptr<RecordStream>> inputs;
  for (const auto& segment : segments) {
    inputs.push_back(std::make_unique<SegmentStream>(segment));
  }
  KWayMerger merger(std::move(inputs));
  GroupIterator groups(&merger);
  std::map<std::string, std::vector<std::string>> got;
  std::string key;
  std::vector<std::string> values;
  while (groups.NextGroup(&key, &values)) {
    EXPECT_FALSE(got.contains(key)) << key;
    got[key] = values;
  }
  EXPECT_TRUE(groups.status().ok());
  EXPECT_EQ(got, expected);
}

TEST(OpenSegmentTest, CompressedSegmentReleasesItsOwnerOnOpen) {
  IFileWriter writer;
  writer.Append("x", "1");
  auto owned =
      std::make_shared<const std::vector<uint8_t>>(Compress(writer.Finish()));
  const std::weak_ptr<const std::vector<uint8_t>> watch = owned;
  auto stream = OpenSegment(*owned, owned, /*compressed=*/true);
  owned.reset();
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  // The stream reads the decompressed copy; the wire bytes are gone.
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(Drain(**stream).size(), 1u);
}

}  // namespace
}  // namespace jbs::mr
