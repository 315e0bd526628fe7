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

/// Decodes a varint starting at `data[*offset]`; advances *offset.
/// Returns nullopt on truncated input.
std::optional<int64_t> GetVarint64(std::span<const uint8_t> data,
                                   size_t* offset);

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
