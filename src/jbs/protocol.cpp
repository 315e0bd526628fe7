#include "jbs/protocol.h"

#include "common/bytes.h"

namespace jbs::shuffle {

Frame EncodeRequest(const FetchRequest& request) {
  Frame frame;
  frame.type = kFetchRequest;
  PutU32(frame.payload, static_cast<uint32_t>(request.map_task));
  PutU32(frame.payload, static_cast<uint32_t>(request.partition));
  PutU64(frame.payload, request.offset);
  PutU32(frame.payload, request.max_len);
  return frame;
}

std::optional<FetchRequest> DecodeRequest(const Frame& frame) {
  if (frame.type != kFetchRequest || frame.payload.size() != 20) {
    return std::nullopt;
  }
  const uint8_t* p = frame.payload.data();
  FetchRequest request;
  request.map_task = static_cast<int32_t>(GetU32(p));
  request.partition = static_cast<int32_t>(GetU32(p + 4));
  request.offset = GetU64(p + 8);
  request.max_len = GetU32(p + 16);
  return request;
}

Frame EncodeHello(const Hello& hello) {
  Frame frame;
  frame.type = kHello;
  PutU32(frame.payload, hello.version);
  PutU32(frame.payload, hello.caps);
  return frame;
}

std::optional<Hello> DecodeHello(const Frame& frame) {
  // Accept >= 8 bytes: a future version may append fields, and a v2 server
  // must still read the leading version/caps pair.
  if (frame.type != kHello || frame.payload.size() < 8) {
    return std::nullopt;
  }
  const uint8_t* p = frame.payload.data();
  Hello hello;
  hello.version = GetU32(p);
  hello.caps = GetU32(p + 4);
  return hello;
}

namespace {
Frame EncodeDataHeaderOnly(const FetchDataHeader& header) {
  Frame frame;
  frame.type = kFetchData;
  frame.payload.reserve(kDataHeaderSize);
  PutU32(frame.payload, static_cast<uint32_t>(header.map_task));
  PutU32(frame.payload, static_cast<uint32_t>(header.partition));
  PutU64(frame.payload, header.offset);
  PutU64(frame.payload, header.segment_total);
  PutU32(frame.payload, header.flags);
  PutU32(frame.payload, header.crc32);
  return frame;
}
}  // namespace

Frame EncodeData(const FetchDataHeader& header,
                 std::span<const uint8_t> data) {
  Frame frame = EncodeDataHeaderOnly(header);
  frame.payload.reserve(kDataHeaderSize + data.size());
  frame.payload.insert(frame.payload.end(), data.begin(), data.end());
  AddPayloadCopyBytes(data.size());
  return frame;
}

Frame EncodeDataZeroCopy(const FetchDataHeader& header,
                         std::span<const uint8_t> data,
                         std::shared_ptr<const void> lease) {
  Frame frame = EncodeDataHeaderOnly(header);
  frame.ext = data;
  frame.lease = std::move(lease);
  return frame;
}

std::optional<FetchDataHeader> DecodeDataHeader(
    std::span<const uint8_t> head) {
  if (head.size() < kDataHeaderSize) return std::nullopt;
  const uint8_t* p = head.data();
  FetchDataHeader header;
  header.map_task = static_cast<int32_t>(GetU32(p));
  header.partition = static_cast<int32_t>(GetU32(p + 4));
  header.offset = GetU64(p + 8);
  header.segment_total = GetU64(p + 16);
  header.flags = GetU32(p + 24);
  header.crc32 = GetU32(p + 28);
  return header;
}

std::optional<FetchDataHeader> DecodeData(const Frame& frame,
                                          std::span<const uint8_t>* data) {
  if (frame.type != kFetchData) return std::nullopt;
  auto header = DecodeDataHeader(frame.payload);
  if (!header) return std::nullopt;
  // Contiguous frames carry the chunk bytes after the header; a locally
  // built zero-copy frame, or one received in place, keeps them in `ext`.
  if (frame.payload.size() == kDataHeaderSize && !frame.ext.empty()) {
    *data = frame.ext;
  } else {
    *data = std::span<const uint8_t>(frame.payload).subspan(kDataHeaderSize);
  }
  return header;
}

uint32_t ChunkWireCrc(const FetchDataHeader& header, uint32_t data_crc) {
  // Fold the header fields (in wire order, crc field excluded) into the
  // payload CRC. Crc32's seed threading makes this equal to one CRC over
  // payload ++ header-prefix, so both sides compute it the same way
  // whichever part they hash first. Runs once per chunk on both sides, so
  // the prefix is built on the stack.
  uint8_t prefix[kDataHeaderSize - 4];
  uint8_t* p = prefix;
  const auto put = [&p](uint64_t v, int bytes) {
    for (int shift = 8 * (bytes - 1); shift >= 0; shift -= 8) {
      *p++ = static_cast<uint8_t>(v >> shift);
    }
  };
  put(static_cast<uint32_t>(header.map_task), 4);
  put(static_cast<uint32_t>(header.partition), 4);
  put(header.offset, 8);
  put(header.segment_total, 8);
  put(header.flags, 4);
  return Crc32(prefix, data_crc);
}

Frame EncodeError(const FetchError& error) {
  Frame frame;
  frame.type = kFetchError;
  PutU32(frame.payload, static_cast<uint32_t>(error.map_task));
  PutU32(frame.payload, static_cast<uint32_t>(error.partition));
  frame.payload.insert(frame.payload.end(), error.message.begin(),
                       error.message.end());
  return frame;
}

std::optional<FetchError> DecodeError(const Frame& frame) {
  if (frame.type != kFetchError || frame.payload.size() < 8) {
    return std::nullopt;
  }
  const uint8_t* p = frame.payload.data();
  FetchError error;
  error.map_task = static_cast<int32_t>(GetU32(p));
  error.partition = static_cast<int32_t>(GetU32(p + 4));
  error.message.assign(frame.payload.begin() + 8, frame.payload.end());
  return error;
}

Frame EncodeBusy(const BusyReply& busy) {
  Frame frame;
  frame.type = kErrorBusy;
  PutU32(frame.payload, static_cast<uint32_t>(busy.map_task));
  PutU32(frame.payload, static_cast<uint32_t>(busy.partition));
  PutU32(frame.payload, busy.retry_after_ms);
  return frame;
}

std::optional<BusyReply> DecodeBusy(const Frame& frame) {
  // Accept >= 12 bytes so a future version may append fields, matching the
  // hello frame's forward-compatibility posture.
  if (frame.type != kErrorBusy || frame.payload.size() < 12) {
    return std::nullopt;
  }
  const uint8_t* p = frame.payload.data();
  BusyReply busy;
  busy.map_task = static_cast<int32_t>(GetU32(p));
  busy.partition = static_cast<int32_t>(GetU32(p + 4));
  busy.retry_after_ms = GetU32(p + 8);
  return busy;
}

}  // namespace jbs::shuffle
