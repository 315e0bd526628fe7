#include "mapred/ifile.h"

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"

namespace jbs::mr {
namespace {

TEST(IFileTest, RoundTrip) {
  IFileWriter writer;
  writer.Append("apple", "1");
  writer.Append("banana", "22");
  writer.Append("cherry", "333");
  EXPECT_EQ(writer.records(), 3u);
  auto segment = writer.Finish();

  IFileReader reader(segment);
  ASSERT_TRUE(reader.VerifyChecksum().ok());
  Record record;
  ASSERT_TRUE(reader.Next(&record));
  EXPECT_EQ(record, (Record{"apple", "1"}));
  ASSERT_TRUE(reader.Next(&record));
  EXPECT_EQ(record, (Record{"banana", "22"}));
  ASSERT_TRUE(reader.Next(&record));
  EXPECT_EQ(record, (Record{"cherry", "333"}));
  EXPECT_FALSE(reader.Next(&record));
  EXPECT_TRUE(reader.status().ok());
  EXPECT_EQ(reader.records_read(), 3u);
}

TEST(IFileTest, EmptySegment) {
  IFileWriter writer;
  auto segment = writer.Finish();
  EXPECT_EQ(segment.size(), 2u + 4u);  // two varint(-1) markers + crc
  IFileReader reader(segment);
  ASSERT_TRUE(reader.VerifyChecksum().ok());
  Record record;
  EXPECT_FALSE(reader.Next(&record));
  EXPECT_TRUE(reader.status().ok());
}

TEST(IFileTest, BinaryKeysAndValues) {
  IFileWriter writer;
  std::string key("\x00\x01\xff\n\t", 5);
  std::string value(1000, '\0');
  writer.Append(key, value);
  auto segment = writer.Finish();
  IFileReader reader(segment);
  Record record;
  ASSERT_TRUE(reader.Next(&record));
  EXPECT_EQ(record.key, key);
  EXPECT_EQ(record.value, value);
}

TEST(IFileTest, EmptyKeyAndValueAllowed) {
  IFileWriter writer;
  writer.Append("", "");
  auto segment = writer.Finish();
  IFileReader reader(segment);
  Record record;
  ASSERT_TRUE(reader.Next(&record));
  EXPECT_TRUE(record.key.empty());
  EXPECT_TRUE(record.value.empty());
  EXPECT_FALSE(reader.Next(&record));
  EXPECT_TRUE(reader.status().ok());
}

TEST(IFileTest, TruncationDetected) {
  IFileWriter writer;
  writer.Append("key", "value");
  auto segment = writer.Finish();
  // Chop the EOF marker + trailer off: reader must report an error, not a
  // clean end.
  segment.resize(segment.size() - 6);
  IFileReader reader(segment);
  Record record;
  while (reader.Next(&record)) {
  }
  EXPECT_FALSE(reader.status().ok());
}

TEST(IFileTest, CorruptionDetectedByChecksum) {
  IFileWriter writer;
  writer.Append("key", "value");
  auto segment = writer.Finish();
  segment[5] ^= 0x40;
  IFileReader reader(segment);
  EXPECT_FALSE(reader.VerifyChecksum().ok());
}

TEST(IFileTest, EveryPossibleBitFlipCaughtByChecksum) {
  // CRC32 detects any single-bit error: exhaustively flip each bit of a
  // small segment — record bytes, EOF marker, and trailer alike — and
  // require a mismatch with a clear status every time.
  IFileWriter writer;
  writer.Append("key", "value");
  const auto clean = writer.Finish();
  for (size_t byte = 0; byte < clean.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto flipped = clean;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      IFileReader reader(flipped);
      const Status status = reader.VerifyChecksum();
      ASSERT_FALSE(status.ok()) << "byte " << byte << " bit " << bit;
      EXPECT_EQ(status.code(), StatusCode::kIoError);
      EXPECT_FALSE(status.message().empty());
    }
  }
}

TEST(IFileTest, TruncatedTrailerRejectedWithClearStatus) {
  IFileWriter writer;
  writer.Append("key", "value");
  auto segment = writer.Finish();
  // Cut into (but not past) the 4-byte trailer: the checksum no longer
  // matches the bytes that remain.
  segment.resize(segment.size() - 2);
  EXPECT_FALSE(IFileReader(segment).VerifyChecksum().ok());
  // Shorter than the trailer itself: structurally invalid, and the status
  // must say so rather than crash or pass.
  segment.resize(3);
  const Status status = IFileReader(segment).VerifyChecksum();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("trailer"), std::string::npos);
}

TEST(IFileTest, ValueRegionBitFlipCaughtBeforeMerge) {
  // A flipped bit inside a value doesn't break the record framing — Next()
  // happily returns the altered bytes — so VerifyChecksum() is the only
  // line of defense for payload integrity. This is the reduce-side half of
  // the end-to-end story: the wire CRC guards the transfer, this trailer
  // guards the stored segment.
  IFileWriter writer;
  writer.Append("key", "payload-value");
  auto segment = writer.Finish();
  const size_t value_byte = segment.size() - 4 /*crc*/ - 2 /*eof*/ - 5;
  segment[value_byte] ^= 0x01;
  IFileReader reader(segment);
  EXPECT_FALSE(reader.VerifyChecksum().ok());
  // Framing alone does NOT notice — which is exactly why callers must
  // verify the trailer first.
  Record record;
  ASSERT_TRUE(reader.Next(&record));
  EXPECT_NE(record.value, "payload-value");
}

TEST(IFileTest, CorruptLengthRejected) {
  IFileWriter writer;
  writer.Append("key", "value");
  auto segment = writer.Finish();
  // Overwrite the first varint (key length 3) with a huge length.
  segment[0] = 0x7f;  // 127 > remaining bytes
  IFileReader reader(segment);
  Record record;
  EXPECT_FALSE(reader.Next(&record));
  EXPECT_FALSE(reader.status().ok());
}

TEST(IFileTest, LengthsWhoseSumWrapsAreRejected) {
  // Two lengths of 2^63 - 1 sum past 2^64 back to a small number; each
  // must be checked against the bytes left on its own.
  std::vector<uint8_t> segment;
  PutVarint64(segment, INT64_MAX);
  PutVarint64(segment, INT64_MAX);
  segment.resize(64, 0);
  IFileReader reader(segment);
  Record record;
  EXPECT_FALSE(reader.Next(&record));
  EXPECT_EQ(reader.status().message(), "corrupt IFile record lengths");
}

TEST(IFileTest, PrefixReaderStopsWhereTheBytesEnd) {
  IFileWriter writer;
  writer.Append("key", "value");
  writer.Append("k2", "v2");
  const std::vector<uint8_t> segment = writer.Finish();
  const std::span<const uint8_t> bytes(segment);
  // The first record's lengths and key, but not all of its value.
  IFileReader reader(bytes.first(6), segment.size());
  Record record;
  EXPECT_FALSE(reader.Next(&record));
  EXPECT_TRUE(reader.needs_more());
  EXPECT_TRUE(reader.status().ok());
  reader.Extend(bytes.first(10));
  ASSERT_TRUE(reader.Next(&record));
  EXPECT_EQ(record, (Record{"key", "value"}));
  EXPECT_FALSE(reader.Next(&record));
  EXPECT_TRUE(reader.needs_more());
  reader.Extend(bytes);
  ASSERT_TRUE(reader.Next(&record));
  EXPECT_EQ(record, (Record{"k2", "v2"}));
  EXPECT_FALSE(reader.Next(&record));
  EXPECT_FALSE(reader.needs_more());
  EXPECT_TRUE(reader.status().ok());
  EXPECT_EQ(reader.records_read(), 2u);
}

TEST(IFileTest, PrefixReaderRejectsLengthsPastTheWholeSegmentAtOnce) {
  // A length that overruns the segment's final size is corrupt now; the
  // reader does not wait for bytes that will never come.
  IFileWriter writer;
  writer.Append("key", "value");
  std::vector<uint8_t> segment = writer.Finish();
  segment[0] = 0x7f;
  IFileReader reader(std::span<const uint8_t>(segment).first(4),
                     segment.size());
  Record record;
  EXPECT_FALSE(reader.Next(&record));
  EXPECT_FALSE(reader.needs_more());
  EXPECT_EQ(reader.status().message(), "corrupt IFile record lengths");
}

TEST(IFileTest, LargeSegmentRoundTrip) {
  IFileWriter writer;
  Rng rng(99);
  std::vector<Record> expected;
  for (int i = 0; i < 5000; ++i) {
    Record r;
    r.key = "key_" + std::to_string(rng.Below(100000));
    r.value.assign(rng.Below(64), 'v');
    writer.Append(r);
    expected.push_back(std::move(r));
  }
  auto segment = writer.Finish();
  IFileReader reader(segment);
  ASSERT_TRUE(reader.VerifyChecksum().ok());
  Record record;
  for (const Record& want : expected) {
    ASSERT_TRUE(reader.Next(&record));
    EXPECT_EQ(record, want);
  }
  EXPECT_FALSE(reader.Next(&record));
  EXPECT_TRUE(reader.status().ok());
}

}  // namespace
}  // namespace jbs::mr
