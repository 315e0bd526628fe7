// Seed-corpus generator: emits the checked-in seeds under
// tests/fuzz/corpus/ using the repo's own encoders, so the corpus can never
// drift from the wire formats. Run after changing an encoding:
//
//   ./fuzz_make_corpus ../tests/fuzz/corpus
//
// Each seed is a small, *valid* artifact (plus a few deliberately broken
// ones) — the fuzzer mutates from there, and corpus_test sweeps
// deterministic corruptions of every seed in regular builds.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/compress.h"
#include "common/framing.h"
#include "jbs/protocol.h"
#include "mapred/ifile.h"

namespace fs = std::filesystem;

namespace {

void WriteSeed(const fs::path& dir, const std::string& name,
               const std::vector<uint8_t>& bytes) {
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  std::printf("wrote %s (%zu bytes)\n", (dir / name).c_str(), bytes.size());
}

jbs::Frame RequestFrame() {
  jbs::shuffle::FetchRequest request;
  request.map_task = 7;
  request.partition = 3;
  request.offset = 4096;
  request.max_len = 1 << 16;
  return jbs::shuffle::EncodeRequest(request);
}

jbs::Frame DataFrame() {
  const std::vector<uint8_t> body = {'s', 'e', 'g', 'm', 'e', 'n', 't'};
  jbs::shuffle::FetchDataHeader header;
  header.map_task = 7;
  header.partition = 3;
  header.offset = 4096;
  header.segment_total = 1 << 20;
  header.flags = jbs::shuffle::kChunkHasCrc;
  header.crc32 = jbs::shuffle::ChunkWireCrc(header, jbs::Crc32(body));
  return jbs::shuffle::EncodeData(header, body);
}

jbs::Frame ErrorFrame() {
  jbs::shuffle::FetchError error;
  error.map_task = 7;
  error.partition = 3;
  error.message = "mof not published";
  return jbs::shuffle::EncodeError(error);
}

std::vector<uint8_t> Framed(const jbs::Frame& frame) {
  std::vector<uint8_t> wire;
  jbs::EncodeFrame(frame, wire);
  return wire;
}

void EmitFraming(const fs::path& dir) {
  // Harness format: first byte picks the feed-chunk stride, rest is wire.
  auto with_stride = [](uint8_t stride, std::vector<uint8_t> wire) {
    wire.insert(wire.begin(), stride);
    return wire;
  };

  WriteSeed(dir, "request_frame", with_stride(1, Framed(RequestFrame())));
  WriteSeed(dir, "data_frame", with_stride(64, Framed(DataFrame())));

  std::vector<uint8_t> two = Framed(RequestFrame());
  const std::vector<uint8_t> second = Framed(ErrorFrame());
  two.insert(two.end(), second.begin(), second.end());
  WriteSeed(dir, "two_frames", with_stride(7, two));

  std::vector<uint8_t> truncated = Framed(DataFrame());
  truncated.resize(truncated.size() / 2);
  WriteSeed(dir, "truncated_frame", with_stride(3, truncated));

  std::vector<uint8_t> oversized;
  jbs::PutU32(oversized, 0x7FFFFFFF);  // length far above the 1 MB cap
  oversized.push_back(jbs::shuffle::kFetchData);
  WriteSeed(dir, "oversized_length", with_stride(5, oversized));

  jbs::Frame empty;
  empty.type = jbs::shuffle::kFetchRequest;
  WriteSeed(dir, "empty_payload", with_stride(2, Framed(empty)));
}

void EmitProtocol(const fs::path& dir) {
  // Harness format: first byte is the frame type, rest is the payload.
  auto typed = [](const jbs::Frame& frame) {
    std::vector<uint8_t> bytes;
    bytes.push_back(frame.type);
    bytes.insert(bytes.end(), frame.payload.begin(), frame.payload.end());
    return bytes;
  };

  WriteSeed(dir, "fetch_request", typed(RequestFrame()));
  WriteSeed(dir, "fetch_data", typed(DataFrame()));
  WriteSeed(dir, "fetch_error", typed(ErrorFrame()));

  // A full wire conversation for the composed framing+protocol path.
  std::vector<uint8_t> stream = Framed(RequestFrame());
  for (const jbs::Frame& frame : {DataFrame(), ErrorFrame()}) {
    const std::vector<uint8_t> wire = Framed(frame);
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  WriteSeed(dir, "wire_conversation", stream);
}

void EmitIfile(const fs::path& dir) {
  {
    jbs::mr::IFileWriter writer;
    writer.Append("apple", "1");
    writer.Append("banana", "22");
    writer.Append("", "");  // empty key and value are legal records
    WriteSeed(dir, "three_records", writer.Finish());
  }
  {
    jbs::mr::IFileWriter writer;
    WriteSeed(dir, "empty_segment", writer.Finish());
  }
  {
    jbs::mr::IFileWriter writer;
    writer.Append(std::string(3, 'k'), std::string(300, 'v'));
    WriteSeed(dir, "multibyte_varint", writer.Finish());
  }
  {
    jbs::mr::IFileWriter writer;
    writer.Append("key", "value");
    std::vector<uint8_t> truncated = writer.Finish();
    truncated.resize(truncated.size() - 6);  // cut into the EOF + trailer
    WriteSeed(dir, "truncated_segment", truncated);
  }
  {
    jbs::mr::IFileWriter writer;
    writer.Append("key", "value");
    std::vector<uint8_t> corrupt = writer.Finish();
    corrupt.back() ^= 0xFF;  // break the checksum trailer
    WriteSeed(dir, "bad_checksum", corrupt);
  }
}

void EmitCompress(const fs::path& dir) {
  auto packed = [](const std::vector<uint8_t>& raw) {
    return jbs::Compress(raw);
  };

  // Compressible text: literal runs plus real matches.
  {
    std::string text;
    for (int i = 0; i < 40; ++i) text += "the quick brown fox ";
    WriteSeed(dir, "compressed_text",
              packed({text.begin(), text.end()}));
  }
  // RLE-style overlapping matches (distance 1).
  WriteSeed(dir, "compressed_rle", packed(std::vector<uint8_t>(512, 0xAB)));
  // Incompressible bytes: mostly literal tokens.
  {
    std::vector<uint8_t> noise(256);
    uint32_t state = 0x1234567u;
    for (auto& byte : noise) {
      state = state * 1664525u + 1013904223u;
      byte = static_cast<uint8_t>(state >> 24);
    }
    WriteSeed(dir, "compressed_noise", packed(noise));
  }
  WriteSeed(dir, "compressed_empty", packed({}));
  // Truncated mid-token.
  {
    std::vector<uint8_t> cut = packed(std::vector<uint8_t>(300, 'x'));
    cut.resize(cut.size() / 2);
    WriteSeed(dir, "truncated_stream", cut);
  }
  // Forged header claiming a huge raw size with almost no tokens behind
  // it — the allocation-bomb reject path.
  {
    std::vector<uint8_t> forged = {'J', 0x01};
    jbs::PutVarint64(forged, int64_t{1} << 40);
    forged.push_back(0x00);  // one literal byte
    forged.push_back('x');
    WriteSeed(dir, "forged_raw_size", forged);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-dir>\n", argv[0]);
    return 2;
  }
  const fs::path root = argv[1];
  EmitFraming(root / "framing");
  EmitProtocol(root / "protocol");
  EmitIfile(root / "ifile");
  EmitCompress(root / "compress");
  return 0;
}
