#include "jbs/protocol.h"

#include <gtest/gtest.h>

#include "common/bytes.h"

namespace jbs::shuffle {
namespace {

TEST(ProtocolTest, RequestRoundTrip) {
  FetchRequest request;
  request.map_task = 42;
  request.partition = 7;
  request.offset = 1ull << 40;
  request.max_len = 128 * 1024;
  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->map_task, 42);
  EXPECT_EQ(decoded->partition, 7);
  EXPECT_EQ(decoded->offset, 1ull << 40);
  EXPECT_EQ(decoded->max_len, 128u * 1024);
}

TEST(ProtocolTest, DataRoundTrip) {
  FetchDataHeader header;
  header.map_task = 3;
  header.partition = 1;
  header.offset = 4096;
  header.segment_total = 999999;
  std::vector<uint8_t> data = {1, 2, 3, 4, 5};
  Frame frame = EncodeData(header, data);
  EXPECT_EQ(frame.payload.size(), kDataHeaderSize + data.size());
  std::span<const uint8_t> out;
  auto decoded = DecodeData(frame, &out);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->map_task, 3);
  EXPECT_EQ(decoded->offset, 4096u);
  EXPECT_EQ(decoded->segment_total, 999999u);
  EXPECT_EQ(std::vector<uint8_t>(out.begin(), out.end()), data);
}

TEST(ProtocolTest, EmptyDataPayloadAllowed) {
  FetchDataHeader header;
  header.segment_total = 0;
  Frame frame = EncodeData(header, {});
  std::span<const uint8_t> out;
  auto decoded = DecodeData(frame, &out);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(out.empty());
}

TEST(ProtocolTest, ErrorRoundTrip) {
  FetchError error;
  error.map_task = 9;
  error.partition = 2;
  error.message = "unknown MOF";
  auto decoded = DecodeError(EncodeError(error));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->map_task, 9);
  EXPECT_EQ(decoded->message, "unknown MOF");
}

TEST(ProtocolTest, ChunkCrcRoundTrip) {
  FetchDataHeader header;
  header.map_task = 3;
  header.partition = 1;
  header.offset = 4096;
  header.segment_total = 999999;
  header.flags |= kChunkHasCrc;
  std::vector<uint8_t> data = {1, 2, 3, 4, 5};
  header.crc32 = ChunkWireCrc(header, Crc32(data));
  std::span<const uint8_t> out;
  const Frame frame = EncodeData(header, data);  // `out` views its payload
  auto decoded = DecodeData(frame, &out);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->flags & kChunkHasCrc);
  EXPECT_EQ(decoded->crc32, header.crc32);
  // The receiver's recomputation over the decoded header + payload matches.
  EXPECT_EQ(ChunkWireCrc(*decoded, Crc32(out)), decoded->crc32);
}

TEST(ProtocolTest, WireCrcCoversHeaderFields) {
  // The wire CRC folds the header prefix over the payload CRC, so a
  // flipped header field (e.g. a truncating segment_total) mismatches even
  // when the payload arrives intact.
  FetchDataHeader header;
  header.map_task = 3;
  header.offset = 4096;
  header.segment_total = 999999;
  header.flags |= kChunkHasCrc;
  std::vector<uint8_t> data = {1, 2, 3, 4, 5};
  const uint32_t data_crc = Crc32(data);
  header.crc32 = ChunkWireCrc(header, data_crc);

  FetchDataHeader tampered = header;
  tampered.segment_total = 5;  // pretend the segment ends at this chunk
  EXPECT_NE(ChunkWireCrc(tampered, data_crc), header.crc32);
  tampered = header;
  tampered.offset = 0;
  EXPECT_NE(ChunkWireCrc(tampered, data_crc), header.crc32);
  tampered = header;
  tampered.map_task = 4;
  EXPECT_NE(ChunkWireCrc(tampered, data_crc), header.crc32);
}

TEST(ProtocolTest, WireCrcIsPinned) {
  // Known-answer vectors: the chunk CRC is part of the wire format, so any
  // change to how the header is folded must fail here, not in the field.
  FetchDataHeader header;
  header.map_task = 7;
  header.partition = 3;
  header.offset = 0x0102030405060708ull;
  header.segment_total = 0x1122334455667788ull;
  header.flags = kChunkHasCrc | kSegmentCompressed;
  header.crc32 = 0xFFFFFFFFu;  // excluded from the fold
  std::vector<uint8_t> data(100);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  EXPECT_EQ(ChunkWireCrc(header, Crc32(data)), 0xEBAC4234u);

  FetchDataHeader negative;
  negative.map_task = -1;
  negative.partition = -2;
  negative.flags = kChunkHasCrc | kChunkCompressed;
  EXPECT_EQ(ChunkWireCrc(negative, Crc32({})), 0xD578EC8Bu);
}

TEST(ProtocolTest, LegacyHeaderWithoutCrcStillDecodes) {
  // A header without a CRC (flag clear, field zero) still decodes:
  // rejecting it is the NetMerger's integrity check, not the codec's.
  FetchDataHeader header;
  header.map_task = 1;
  header.segment_total = 10;
  std::vector<uint8_t> data = {9, 9};
  std::span<const uint8_t> out;
  const Frame frame = EncodeData(header, data);
  auto decoded = DecodeData(frame, &out);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->flags & kChunkHasCrc);
  EXPECT_EQ(decoded->crc32, 0u);
}

TEST(ProtocolTest, HelloRoundTrip) {
  Hello hello;
  hello.caps = kCapWireCompression;
  auto decoded = DecodeHello(EncodeHello(hello));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->version, kProtocolVersion);
  EXPECT_EQ(decoded->caps, kCapWireCompression);
}

TEST(ProtocolTest, HelloRejectsWrongTypeAndShortPayload) {
  EXPECT_FALSE(DecodeHello(EncodeRequest({})).has_value());
  Frame truncated = EncodeHello({});
  truncated.payload.resize(7);  // hello is two u32s; anything less is junk
  EXPECT_FALSE(DecodeHello(truncated).has_value());
}

TEST(ProtocolTest, HelloFromNewerPeerStillDecodes) {
  // Forward compatibility: a v3 peer may append fields after the caps
  // word; a v2 reader takes the prefix it understands and ignores the
  // rest, keying every behavior decision off capability bits, not the
  // version number.
  Hello future;
  future.version = kProtocolVersion + 1;
  future.caps = kCapWireCompression | (1u << 9);  // unknown future cap
  Frame frame = EncodeHello(future);
  frame.payload.push_back(0xEE);  // trailing bytes from a newer encoder
  auto decoded = DecodeHello(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->version, kProtocolVersion + 1);
  EXPECT_TRUE(decoded->caps & kCapWireCompression);
}

TEST(ProtocolTest, BusyRoundTrip) {
  BusyReply busy;
  busy.map_task = 11;
  busy.partition = 3;
  busy.retry_after_ms = 250;
  auto decoded = DecodeBusy(EncodeBusy(busy));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->map_task, 11);
  EXPECT_EQ(decoded->partition, 3);
  EXPECT_EQ(decoded->retry_after_ms, 250u);
}

TEST(ProtocolTest, BusyRejectsWrongTypeAndShortPayload) {
  EXPECT_FALSE(DecodeBusy(EncodeRequest({})).has_value());
  Frame truncated = EncodeBusy({});
  truncated.payload.resize(11);
  EXPECT_FALSE(DecodeBusy(truncated).has_value());
}

TEST(ProtocolTest, BusyFromNewerPeerStillDecodes) {
  Frame frame = EncodeBusy({1, 2, 30});
  frame.payload.push_back(0xEE);  // trailing bytes from a newer encoder
  auto decoded = DecodeBusy(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->retry_after_ms, 30u);
}

TEST(ProtocolTest, BusyIsNotDataAndCannotReachCrcPath) {
  // Classification guard: a kErrorBusy frame must never decode as fetch
  // data (and so can never be mistaken for a corrupt chunk by the CRC
  // verifier) nor as a permanent kFetchError verdict.
  const Frame frame = EncodeBusy({7, 0, 100});
  std::span<const uint8_t> data;
  EXPECT_FALSE(DecodeData(frame, &data).has_value());
  EXPECT_FALSE(DecodeError(frame).has_value());
  EXPECT_FALSE(DecodeRequest(frame).has_value());
}

TEST(ProtocolTest, WrongTypeRejected) {
  Frame frame = EncodeRequest({});
  EXPECT_FALSE(DecodeError(frame).has_value());
  std::span<const uint8_t> data;
  EXPECT_FALSE(DecodeData(frame, &data).has_value());
  Frame short_frame;
  short_frame.type = kFetchRequest;
  short_frame.payload.resize(3);
  EXPECT_FALSE(DecodeRequest(short_frame).has_value());
}

}  // namespace
}  // namespace jbs::shuffle
