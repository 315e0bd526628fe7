// Byte-level encoding helpers shared by the MOF/IFile formats and the
// shuffle wire protocol: fixed-width big-endian integers, Hadoop-style
// zig-zag varints (WritableUtils.writeVLong compatible in spirit), and the
// CRC32 behind every segment and chunk checksum.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace jbs {

/// Appends big-endian fixed-width encodings to `out`.
void PutU16(std::vector<uint8_t>& out, uint16_t v);
void PutU32(std::vector<uint8_t>& out, uint32_t v);
void PutU64(std::vector<uint8_t>& out, uint64_t v);

uint16_t GetU16(const uint8_t* p);
uint32_t GetU32(const uint8_t* p);
uint64_t GetU64(const uint8_t* p);

/// Variable-length signed integer, ~Hadoop WritableUtils layout: one byte
/// for [-112, 127], otherwise a length marker byte followed by magnitude
/// bytes. Round-trips all int64 values.
void PutVarint64(std::vector<uint8_t>& out, int64_t v);

/// Decodes a varint starting at `data[*offset]`; advances *offset past
/// it. Returns nullopt on truncated input, leaving *offset unchanged.
/// Inline: the IFile reader decodes two per record.
inline std::optional<int64_t> GetVarint64(std::span<const uint8_t> data,
                                          size_t* offset) {
  size_t at = *offset;
  if (at >= data.size()) return std::nullopt;
  const auto first = static_cast<int8_t>(data[at++]);
  if (first >= -112) [[likely]] {
    *offset = at;
    return first;
  }
  const bool negative = first >= -120;
  const auto length =
      static_cast<size_t>(negative ? -112 - first : -120 - first);
  if (length > data.size() - at) return std::nullopt;
  uint64_t magnitude = 0;
  for (size_t i = 0; i < length; ++i) {
    magnitude = (magnitude << 8) | data[at + i];
  }
  *offset = at + length;
  return static_cast<int64_t>(negative ? ~magnitude : magnitude);
}

/// Number of bytes PutVarint64 would emit.
size_t VarintSize(int64_t v);

/// CRC32 (IEEE 802.3 polynomial; zlib crc32() values, including how
/// `seed` chains: Crc32(b, Crc32(a)) == Crc32(a||b)). On x86-64 CPUs with
/// PCLMULQDQ, spans of 64 bytes and more are folded with carry-less
/// multiplies, chosen once at run time; everything else runs a
/// slicing-by-8 table loop. Both give the same value.
uint32_t Crc32(std::span<const uint8_t> data, uint32_t seed = 0);

namespace internal {
/// The slicing-by-8 path alone, whatever the CPU. For equivalence tests.
uint32_t Crc32Portable(std::span<const uint8_t> data, uint32_t seed = 0);
}  // namespace internal

inline std::span<const uint8_t> AsBytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

/// Pretty-prints byte counts: "128KB", "1.5MB", ...
std::string HumanBytes(uint64_t bytes);

}  // namespace jbs
