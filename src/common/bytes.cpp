#include "common/bytes.h"

#include <array>
#include <cstdio>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace jbs {

void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v));
}

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v >> 24));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v));
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v >> 32));
  PutU32(out, static_cast<uint32_t>(v));
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>((p[0] << 8) | p[1]);
}

uint32_t GetU32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

uint64_t GetU64(const uint8_t* p) {
  return (static_cast<uint64_t>(GetU32(p)) << 32) | GetU32(p + 4);
}

void PutVarint64(std::vector<uint8_t>& out, int64_t v) {
  if (v >= -112 && v <= 127) {
    out.push_back(static_cast<uint8_t>(v));
    return;
  }
  int base = -113;  // negative numbers
  uint64_t magnitude = ~static_cast<uint64_t>(v);
  if (v >= 0) {
    base = -121;  // positive numbers beyond one byte
    magnitude = static_cast<uint64_t>(v);
  }
  int length = 0;
  for (uint64_t tmp = magnitude; tmp != 0; tmp >>= 8) ++length;
  if (length == 0) length = 1;
  out.push_back(static_cast<uint8_t>(base - (length - 1)));
  for (int shift = (length - 1) * 8; shift >= 0; shift -= 8) {
    out.push_back(static_cast<uint8_t>(magnitude >> shift));
  }
}

size_t VarintSize(int64_t v) {
  if (v >= -112 && v <= 127) return 1;
  uint64_t magnitude =
      v >= 0 ? static_cast<uint64_t>(v) : ~static_cast<uint64_t>(v);
  size_t length = 0;
  for (uint64_t tmp = magnitude; tmp != 0; tmp >>= 8) ++length;
  if (length == 0) length = 1;
  return 1 + length;
}

namespace {

// Reflected IEEE 802.3 polynomial. Every path below runs on the inverted
// register (~seed in, ~result out), so chained seeds compose exactly as
// in zlib's crc32().
constexpr uint32_t kCrcPoly = 0xEDB88320u;

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

// Slicing-by-8: tables[0] is the classic byte table; tables[k][b] is the
// CRC of byte b followed by k zero bytes, so eight table lookups advance
// the register by eight input bytes.
constexpr CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) != 0 ? (crc >> 1) ^ kCrcPoly : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint32_t CrcSlicing8(const uint8_t* p, size_t n, uint32_t crc) {
  const auto& t = kCrcTables;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
          t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][hi & 0xFF] ^
          t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  return crc;
}

#if defined(__x86_64__)

// Spans shorter than this go to the table loop: the fold needs four
// 16-byte lanes to start.
constexpr size_t kClmulMinBytes = 64;

// PCLMULQDQ folding (Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction", Intel 2009). The constants
// are the paper's bit-reflected forms, for the IEEE polynomial P, of:
//   kFold4  = {x^(4*128+32), x^(4*128-32)} mod P  — four lanes, 64 B/step
//   kFold1  = {x^(128+32),   x^(128-32)}   mod P  — one lane, 16 B/step
//   kFold64 = x^64 mod P                           — 64 -> 32+32 bits
//   kBarrett = {P, floor(x^64 / P)}                — final reduction
// Folding multiplies each lane's two 64-bit halves by the pair of
// constants that shift them forward by the lane stride, then xors in the
// next input block; the remainder mod P is unchanged throughout.
#define JBS_TARGET_CLMUL __attribute__((target("pclmul,sse4.1")))

__m128i LoadBlock(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// One fold step: both halves of `lane` times their stride constant in
// `k`, xored with the next input block.
JBS_TARGET_CLMUL __m128i Fold(__m128i lane, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(lane, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(lane, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

// `n` must be >= kClmulMinBytes and a multiple of 16.
JBS_TARGET_CLMUL uint32_t CrcFoldClmul(const uint8_t* p, size_t n,
                                       uint32_t crc) {
  const __m128i kFold4 = _mm_set_epi64x(0x01C6E41596, 0x0154442BD4);
  const __m128i kFold1 = _mm_set_epi64x(0x00CCAA009E, 0x01751997D0);
  const __m128i kFold64 = _mm_set_epi64x(0, 0x0163CD6124);
  const __m128i kBarrett = _mm_set_epi64x(0x01F7011641, 0x01DB710641);
  const __m128i kLow32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x0 = _mm_xor_si128(LoadBlock(p),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = LoadBlock(p + 16);
  __m128i x2 = LoadBlock(p + 32);
  __m128i x3 = LoadBlock(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = Fold(x0, kFold4, LoadBlock(p));
    x1 = Fold(x1, kFold4, LoadBlock(p + 16));
    x2 = Fold(x2, kFold4, LoadBlock(p + 32));
    x3 = Fold(x3, kFold4, LoadBlock(p + 48));
  }
  // Four lanes into one, then the remaining 16-byte blocks.
  x0 = Fold(x0, kFold1, x1);
  x0 = Fold(x0, kFold1, x2);
  x0 = Fold(x0, kFold1, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = Fold(x0, kFold1, LoadBlock(p));

  // 128 -> 64 bits: the low half times x^(128-32) folds into the high.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, kFold1, 0x10));
  // 64 -> 32 bits.
  x0 = _mm_xor_si128(
      _mm_srli_si128(x0, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x0, kLow32), kFold64, 0x00));
  // Barrett reduction: q = floor(r / P) via mu, then r ^= q * P.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, kLow32), kBarrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, kLow32), kBarrett, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

#undef JBS_TARGET_CLMUL

bool CpuHasClmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#endif  // __x86_64__

}  // namespace

uint32_t Crc32(std::span<const uint8_t> data, uint32_t seed) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint32_t crc = ~seed;
#if defined(__x86_64__)
  static const bool clmul = CpuHasClmul();
  if (clmul && n >= kClmulMinBytes) {
    const size_t folded = n & ~size_t{15};
    crc = CrcFoldClmul(p, folded, crc);
    p += folded;
    n -= folded;
  }
#endif
  return ~CrcSlicing8(p, n, crc);
}

namespace internal {

uint32_t Crc32Portable(std::span<const uint8_t> data, uint32_t seed) {
  return ~CrcSlicing8(data.data(), data.size(), ~seed);
}

}  // namespace internal

std::string HumanBytes(uint64_t bytes) {
  static constexpr const char* kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  double value = static_cast<double>(bytes);
  size_t unit = 0;
  while (value >= 1024.0 && unit + 1 < std::size(kUnits)) {
    value /= 1024.0;
    ++unit;
  }
  char buf[32];
  if (value == static_cast<uint64_t>(value)) {
    std::snprintf(buf, sizeof(buf), "%llu%s",
                  static_cast<unsigned long long>(value), kUnits[unit]);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f%s", value, kUnits[unit]);
  }
  return buf;
}

}  // namespace jbs
