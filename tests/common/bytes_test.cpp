#include "common/bytes.h"

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <vector>

namespace jbs {
namespace {

TEST(BytesTest, FixedWidthRoundTrip) {
  std::vector<uint8_t> buf;
  PutU16(buf, 0xBEEF);
  PutU32(buf, 0xDEADBEEF);
  PutU64(buf, 0x0123456789ABCDEFull);
  ASSERT_EQ(buf.size(), 2u + 4u + 8u);
  EXPECT_EQ(GetU16(buf.data()), 0xBEEF);
  EXPECT_EQ(GetU32(buf.data() + 2), 0xDEADBEEFu);
  EXPECT_EQ(GetU64(buf.data() + 6), 0x0123456789ABCDEFull);
}

TEST(BytesTest, FixedWidthIsBigEndian) {
  std::vector<uint8_t> buf;
  PutU32(buf, 0x01020304);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[3], 0x04);
}

class VarintRoundTrip : public ::testing::TestWithParam<int64_t> {};

TEST_P(VarintRoundTrip, RoundTrips) {
  const int64_t v = GetParam();
  std::vector<uint8_t> buf;
  PutVarint64(buf, v);
  EXPECT_EQ(buf.size(), VarintSize(v));
  size_t offset = 0;
  auto decoded = GetVarint64(buf, &offset);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, v);
  EXPECT_EQ(offset, buf.size());
}

INSTANTIATE_TEST_SUITE_P(
    Values, VarintRoundTrip,
    ::testing::Values(0, 1, -1, 127, 128, -112, -113, 255, 256, 1 << 20,
                      -(1 << 20), int64_t{1} << 40, -(int64_t{1} << 40),
                      std::numeric_limits<int64_t>::max(),
                      std::numeric_limits<int64_t>::min()));

TEST(BytesTest, VarintSingleByteRange) {
  for (int64_t v = -112; v <= 127; ++v) {
    EXPECT_EQ(VarintSize(v), 1u) << v;
  }
  EXPECT_GT(VarintSize(128), 1u);
  EXPECT_GT(VarintSize(-113), 1u);
}

TEST(BytesTest, VarintTruncatedInputReturnsNullopt) {
  std::vector<uint8_t> buf;
  PutVarint64(buf, int64_t{1} << 40);
  ASSERT_GT(buf.size(), 2u);
  std::vector<uint8_t> truncated(buf.begin(), buf.end() - 1);
  size_t offset = 0;
  EXPECT_FALSE(GetVarint64(truncated, &offset).has_value());
}

TEST(BytesTest, VarintEmptyInput) {
  size_t offset = 0;
  EXPECT_FALSE(GetVarint64({}, &offset).has_value());
}

TEST(BytesTest, VarintSequenceDecodes) {
  std::vector<uint8_t> buf;
  const int64_t values[] = {5, 70000, -3, 1 << 30};
  for (int64_t v : values) PutVarint64(buf, v);
  size_t offset = 0;
  for (int64_t v : values) {
    auto d = GetVarint64(buf, &offset);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(*d, v);
  }
  EXPECT_EQ(offset, buf.size());
}

TEST(BytesTest, Crc32KnownVector) {
  // CRC32("123456789") = 0xCBF43926 for the IEEE polynomial.
  const std::string data = "123456789";
  EXPECT_EQ(Crc32(AsBytes(data)), 0xCBF43926u);
}

TEST(BytesTest, Crc32EmptyIsZero) { EXPECT_EQ(Crc32({}), 0u); }

TEST(BytesTest, Crc32Incremental) {
  const std::string whole = "hello world";
  const std::string a = "hello ";
  const std::string b = "world";
  const uint32_t one_shot = Crc32(AsBytes(whole));
  const uint32_t chained = Crc32(AsBytes(b), Crc32(AsBytes(a)));
  EXPECT_EQ(one_shot, chained);
}

// Bit-at-a-time CRC32 register update: the definition the table and
// carry-less-multiply paths must reproduce. Works on the inverted
// register, so a whole CRC is ~BitwiseStep(~seed, ...).
uint32_t BitwiseStep(uint32_t reg, std::span<const uint8_t> data) {
  for (uint8_t byte : data) {
    reg ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      reg = (reg >> 1) ^ (0xEDB88320u & (0u - (reg & 1u)));
    }
  }
  return reg;
}

uint32_t BitwiseCrc32(std::span<const uint8_t> data, uint32_t seed) {
  return ~BitwiseStep(~seed, data);
}

std::vector<uint8_t> RandomBytes(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng());
  return out;
}

TEST(BytesTest, Crc32MatchesBitwiseAtEveryLengthAlignmentAndSeed) {
  // Covers the table tail (< 64 B), every 16-byte fold remainder, and the
  // four-lane loop, from every start alignment within a 16-byte block.
  const std::vector<uint8_t> buf = RandomBytes(1024 + 16, 7);
  const uint32_t random_seed = std::mt19937(11)();
  for (const uint32_t seed : {0u, 0xFFFFFFFFu, random_seed}) {
    for (size_t align = 0; align < 16; ++align) {
      const uint8_t* base = buf.data() + align;
      uint32_t reg = ~seed;  // bitwise reference, extended byte by byte
      for (size_t len = 0; len <= 1024; ++len) {
        if (len > 0) reg = BitwiseStep(reg, {base + len - 1, 1});
        const std::span<const uint8_t> span(base, len);
        ASSERT_EQ(Crc32(span, seed), ~reg)
            << "len " << len << " align " << align << " seed " << seed;
        ASSERT_EQ(internal::Crc32Portable(span, seed), ~reg)
            << "len " << len << " align " << align << " seed " << seed;
      }
    }
  }
}

TEST(BytesTest, Crc32MatchesBitwiseOnLargeBuffers) {
  for (const size_t n : {size_t{128} * 1024, size_t{1024} * 1024 + 7}) {
    const std::vector<uint8_t> buf = RandomBytes(n, static_cast<uint32_t>(n));
    const uint32_t expected = BitwiseCrc32(buf, 0);
    EXPECT_EQ(Crc32(buf), expected) << n;
    EXPECT_EQ(internal::Crc32Portable(buf), expected) << n;
    EXPECT_EQ(Crc32(buf, 0x12345678u), BitwiseCrc32(buf, 0x12345678u)) << n;
  }
}

TEST(BytesTest, Crc32ChainsSeedsAtEverySplitPoint) {
  // 300 B crosses the 16- and 64-byte fold edges on both sides of a split.
  const std::vector<uint8_t> buf = RandomBytes(300, 3);
  const uint32_t whole = Crc32(buf);
  ASSERT_EQ(whole, BitwiseCrc32(buf, 0));
  const std::span<const uint8_t> all(buf);
  for (size_t split = 0; split <= buf.size(); ++split) {
    const auto a = all.first(split);
    const auto b = all.subspan(split);
    EXPECT_EQ(Crc32(b, Crc32(a)), whole) << "split " << split;
    EXPECT_EQ(internal::Crc32Portable(b, internal::Crc32Portable(a)), whole)
        << "split " << split;
  }
}

TEST(BytesTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(0), "0B");
  EXPECT_EQ(HumanBytes(512), "512B");
  EXPECT_EQ(HumanBytes(128 * 1024), "128KB");
  EXPECT_EQ(HumanBytes(3 * 1024 * 1024), "3MB");
  EXPECT_EQ(HumanBytes(uint64_t{256} * 1024 * 1024 * 1024), "256GB");
  EXPECT_EQ(HumanBytes(1536), "1.5KB");
}

}  // namespace
}  // namespace jbs
