#include "common/compress.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "common/bytes.h"
#include "common/compress_internal.h"
#include "common/rng.h"

namespace jbs {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// The plaintexts behind the checked-in streams of the byte-at-a-time
/// encoder (testdata/compress_v1/README.md).
const char* const kV1Cases[] = {"text", "rle", "noise", "zipf"};

std::vector<uint8_t> V1File(const std::string& name, const char* ext) {
  return ReadFile(std::string(JBS_COMPRESS_V1_DIR) + "/" + name + ext);
}

/// The byte-at-a-time decode loop of the codec's first decoder, kept as
/// the reference an un-upgraded peer runs. Returns nullopt on any
/// malformed stream.
std::optional<std::vector<uint8_t>> ReferenceDecode(
    std::span<const uint8_t> input) {
  if (input.size() < 2 || input[0] != 'J' || input[1] != 1) {
    return std::nullopt;
  }
  size_t offset = 2;
  auto raw_size = GetVarint64(input, &offset);
  if (!raw_size || *raw_size < 0) return std::nullopt;
  const auto claimed = static_cast<size_t>(*raw_size);
  std::vector<uint8_t> out;
  while (offset < input.size()) {
    const uint8_t control = input[offset++];
    if ((control & 0x80) == 0) {
      const size_t run = static_cast<size_t>(control) + 1;
      if (offset + run > input.size()) return std::nullopt;
      if (out.size() + run > claimed) return std::nullopt;
      out.insert(out.end(), input.begin() + static_cast<ptrdiff_t>(offset),
                 input.begin() + static_cast<ptrdiff_t>(offset + run));
      offset += run;
    } else {
      if (offset + 2 > input.size()) return std::nullopt;
      const size_t length = static_cast<size_t>(control & 0x7F) + 4;
      const size_t distance = static_cast<size_t>(input[offset]) |
                              (static_cast<size_t>(input[offset + 1]) << 8);
      offset += 2;
      if (distance == 0 || distance > out.size()) return std::nullopt;
      if (out.size() + length > claimed) return std::nullopt;
      const size_t from = out.size() - distance;
      for (size_t i = 0; i < length; ++i) out.push_back(out[from + i]);
    }
  }
  if (out.size() != claimed) return std::nullopt;
  return out;
}

/// A stream header (magic, version, varint raw size) for hand-built
/// token streams.
std::vector<uint8_t> Header(size_t raw_size) {
  std::vector<uint8_t> stream = {'J', 0x01};
  PutVarint64(stream, static_cast<int64_t>(raw_size));
  return stream;
}

/// Compresses `input` on a thread of its own, whose match table starts
/// empty: what any thread's Compress must return for it.
std::vector<uint8_t> CompressOnFreshThread(std::span<const uint8_t> input) {
  std::vector<uint8_t> out;
  std::thread([&] { out = Compress(input); }).join();
  return out;
}

/// perfbench's zipf_compress shape: sorted 10-byte random keys, values of
/// zipf-drawn words.
std::vector<uint8_t> ZipfText(uint64_t seed, size_t bytes) {
  static const char* const kWords[] = {"clickstream", "impression", "session",
                                       "checkout",    "pageview",   "search",
                                       "basket",      "login"};
  Rng rng(seed);
  std::vector<uint8_t> out;
  while (out.size() < bytes) {
    for (int i = 0; i < 10; ++i) {
      out.push_back(static_cast<uint8_t>(' ' + rng.Below(95)));
    }
    for (int w = 0; w < 12; ++w) {
      const std::string word = kWords[rng.NextZipf(8, 1.2) - 1];
      out.insert(out.end(), word.begin(), word.end());
      out.push_back(' ');
    }
  }
  out.resize(bytes);
  return out;
}

TEST(CompressTest, EmptyInput) {
  auto compressed = Compress({});
  auto restored = Decompress(compressed);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->empty());
}

TEST(CompressTest, RoundTripText) {
  const auto input = Bytes(
      "the quick brown fox jumps over the lazy dog; "
      "the quick brown fox jumps over the lazy dog; "
      "the quick brown fox jumps again and again and again");
  auto compressed = Compress(input);
  EXPECT_LT(compressed.size(), input.size());  // repetitive -> shrinks
  auto restored = Decompress(compressed);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, input);
}

TEST(CompressTest, HighlyRepetitiveCompressesHard) {
  std::vector<uint8_t> input(100000, 'A');
  auto compressed = Compress(input);
  EXPECT_LT(compressed.size(), input.size() / 20);
  auto restored = Decompress(compressed);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, input);
}

TEST(CompressTest, OverlappingMatchRleStyle) {
  // "abcabcabc..." exercises matches whose source overlaps the output
  // being produced (distance < length).
  std::vector<uint8_t> input;
  for (int i = 0; i < 1000; ++i) input.push_back(static_cast<uint8_t>("abc"[i % 3]));
  auto restored = Decompress(Compress(input));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, input);
}

TEST(CompressTest, IncompressibleExpandsBoundedly) {
  Rng rng(17);
  std::vector<uint8_t> input(50000);
  for (auto& b : input) b = static_cast<uint8_t>(rng.Next());
  auto compressed = Compress(input);
  // Worst case: 1 control byte per 128 literals + header.
  EXPECT_LE(compressed.size(), input.size() + input.size() / 128 + 16);
  auto restored = Decompress(compressed);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, input);
}

class CompressFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompressFuzz, RandomStructuredRoundTrip) {
  // Property: decompress(compress(x)) == x on mixed random/repetitive data.
  Rng rng(GetParam());
  std::vector<uint8_t> input;
  const int sections = 1 + static_cast<int>(rng.Below(20));
  for (int s = 0; s < sections; ++s) {
    const size_t len = rng.Below(5000);
    if (rng.Below(2) == 0) {
      const auto fill = static_cast<uint8_t>(rng.Next());
      input.insert(input.end(), len, fill);
    } else {
      for (size_t i = 0; i < len; ++i) {
        input.push_back(static_cast<uint8_t>(rng.Below(8) * 31));
      }
    }
  }
  auto restored = Decompress(Compress(input));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, input);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(CompressTest, RejectsGarbageHeader) {
  EXPECT_FALSE(Decompress({}).ok());
  EXPECT_FALSE(Decompress(Bytes("XY")).ok());
  EXPECT_FALSE(Decompress(Bytes("not compressed at all")).ok());
}

TEST(CompressTest, RejectsTruncatedStream) {
  auto compressed = Compress(Bytes("hello hello hello hello hello"));
  compressed.resize(compressed.size() - 3);
  EXPECT_FALSE(Decompress(compressed).ok());
}

TEST(CompressTest, RejectsCorruptDistance) {
  std::vector<uint8_t> input(2000, 'z');
  auto compressed = Compress(input);
  // Find a match token (high bit set) and blow up its distance.
  for (size_t i = 4; i + 2 < compressed.size(); ++i) {
    if ((compressed[i] & 0x80) != 0) {
      compressed[i + 1] = 0xFF;
      compressed[i + 2] = 0xFF;
      break;
    }
  }
  EXPECT_FALSE(Decompress(compressed).ok());
}

TEST(CompressTest, LooksCompressedDetection) {
  auto compressed = Compress(Bytes("payload"));
  EXPECT_TRUE(LooksCompressed(compressed));
  EXPECT_FALSE(LooksCompressed(Bytes("plainly not")));
  EXPECT_FALSE(LooksCompressed({}));
}

TEST(CompressTest, RejectsForgedHugeRawSize) {
  // Regression: a forged header claiming a terabyte behind two token bytes
  // used to hit std::vector::reserve before any validation — an untrusted
  // length driving an allocation. It must be a clean Status, and fast.
  std::vector<uint8_t> forged = {'J', 0x01};
  PutVarint64(forged, int64_t{1} << 40);
  forged.push_back(0x00);  // literal run of 1
  forged.push_back('x');
  auto result = Decompress(forged);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("implausible"), std::string::npos)
      << result.status().ToString();
}

TEST(CompressTest, RawSizeAtExpansionBoundAccepted) {
  // MaxDecompressedSize is the exact reachable ceiling: a stream of
  // max-length matches decodes to it, so claims at the bound must pass
  // validation while the codec still enforces the real decoded size.
  std::vector<uint8_t> input(4096, 'm');
  auto compressed = Compress(input);
  auto restored = Decompress(compressed);
  ASSERT_TRUE(restored.ok());
  // Header is magic + version + varint; the rest is tokens.
  const size_t token_bytes =
      compressed.size() - 2 - VarintSize(static_cast<int64_t>(input.size()));
  EXPECT_LE(input.size(), MaxDecompressedSize(token_bytes));
}

TEST(CompressTest, MatchAtFullWindowDistanceRoundTrips) {
  // A repeat exactly 64 KB - 1 back sits on the window edge (distance
  // 65535, the largest encodable); one byte farther is out of window and
  // must be re-emitted without a match. Both must round-trip exactly.
  const std::string phrase = "window-boundary-probe-phrase";
  Rng rng(99);
  for (const size_t gap :
       {size_t{65535} - phrase.size(), size_t{65536} - phrase.size() + 1}) {
    std::vector<uint8_t> input(phrase.begin(), phrase.end());
    for (size_t i = 0; i < gap; ++i) {
      input.push_back(static_cast<uint8_t>(rng.Next()));
    }
    input.insert(input.end(), phrase.begin(), phrase.end());
    auto restored = Decompress(Compress(input));
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(*restored, input);
  }
}

TEST(CompressTest, MaxLengthMatchTokensRoundTrip) {
  // 131 bytes (kMinMatch + 0x7F) is the longest single match token. A long
  // constant run forces the encoder to chain max-length matches; verify a
  // 0xFF control byte (length 131) actually appears and the stream decodes.
  std::vector<uint8_t> input(131 * 5 + 7, 'q');
  auto compressed = Compress(input);
  bool saw_max_match = false;
  // Walk the token stream to find a control byte 0xFF (match, length 131).
  size_t i = 2;
  while (i < compressed.size() && (compressed[i - 1] & 0x80) != 0) ++i;  // skip varint
  for (; i < compressed.size();) {
    const uint8_t control = compressed[i];
    if ((control & 0x80) == 0) {
      i += 1 + static_cast<size_t>(control) + 1;
    } else {
      saw_max_match |= control == 0xFF;
      i += 3;
    }
  }
  EXPECT_TRUE(saw_max_match);
  auto restored = Decompress(compressed);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, input);
}

TEST(CompressTest, EveryTruncationPointRejected) {
  // A Compress stream has no legal proper prefix: cutting mid-token is a
  // parse error and cutting at a token boundary leaves the decoded size
  // short of the declared raw_size. Check every cut point of a small
  // stream that mixes literal and match tokens.
  const auto input = Bytes("abcabcabc unique tail abcabc");
  const auto compressed = Compress(input);
  for (size_t len = 0; len < compressed.size(); ++len) {
    EXPECT_FALSE(
        Decompress(std::span<const uint8_t>(compressed.data(), len)).ok())
        << "prefix of " << len << " bytes decoded successfully";
  }
  EXPECT_TRUE(Decompress(compressed).ok());
}

TEST(CompressTest, SortedShuffleSegmentShrinks) {
  // The motivating case: sorted keys share long prefixes.
  std::vector<uint8_t> input;
  for (int i = 0; i < 2000; ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "user_event_%08d\tcount=1\n", i);
    const auto* p = reinterpret_cast<const uint8_t*>(buf);
    input.insert(input.end(), p, p + std::strlen(buf));
  }
  auto compressed = Compress(input);
  EXPECT_LT(compressed.size(), input.size() / 2);
}

TEST(CompressTest, DecodesStreamsOfTheByteAtATimeEncoder) {
  // The token format is unchanged, so streams the first encoder made (an
  // un-upgraded supplier's chunks, MOFs written before the rewrite) must
  // decode byte for byte through both entry points.
  for (const char* name : kV1Cases) {
    SCOPED_TRACE(name);
    const auto raw = V1File(name, ".raw");
    const auto stream = V1File(name, ".jz");
    ASSERT_FALSE(raw.empty());
    auto restored = Decompress(stream);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(*restored, raw);
    std::vector<uint8_t> dst(raw.size());
    auto size = DecompressInto(stream, dst);
    ASSERT_TRUE(size.ok()) << size.status().ToString();
    EXPECT_EQ(*size, raw.size());
    EXPECT_EQ(dst, raw);
  }
}

TEST(CompressTest, ReferenceDecoderReadsNewStreams) {
  // The other direction: an un-upgraded peer decodes with the first
  // decoder's loop, which must accept every stream the new encoder makes.
  std::vector<std::vector<uint8_t>> inputs;
  for (const char* name : kV1Cases) inputs.push_back(V1File(name, ".raw"));
  inputs.push_back({});
  inputs.push_back(Bytes("abcd"));
  inputs.push_back(Bytes("aaaaa"));
  inputs.push_back(std::vector<uint8_t>(100000, 'A'));
  inputs.push_back(ZipfText(3, 300000));
  for (size_t i = 0; i < inputs.size(); ++i) {
    SCOPED_TRACE(i);
    const auto stream = Compress(inputs[i]);
    const auto decoded = ReferenceDecode(stream);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, inputs[i]);
  }
}

TEST(CompressTest, ZipfChunkShrinksAsMuchAsWithTheFirstEncoder) {
  // The rewrite trades no ratio for speed: within 5% of the first
  // encoder's stream on the workload the wire codec is for.
  const auto raw = V1File("zipf", ".raw");
  const auto v1 = V1File("zipf", ".jz");
  EXPECT_LE(static_cast<double>(Compress(raw).size()),
            1.05 * static_cast<double>(v1.size()));
}

TEST(CompressTest, StaleTableEntriesNeverBecomeMatches) {
  // One thread's table outlives its calls. A long A, then a shorter B
  // made of A's bytes, then a longer C: whatever A and B left in the
  // table, each call must produce exactly what a fresh table does.
  const std::vector<uint8_t> a = ZipfText(11, 40000);
  const std::vector<uint8_t> b(a.begin() + 1000, a.begin() + 9000);
  const std::vector<uint8_t> c = [&] {
    auto longer = ZipfText(12, 70000);
    longer.insert(longer.begin() + 500, a.begin(), a.begin() + 20000);
    return longer;
  }();
  for (const auto* input : {&a, &b, &c}) {
    const auto stream = Compress(*input);
    EXPECT_EQ(stream, CompressOnFreshThread(*input));
    auto restored = Decompress(stream);
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(*restored, *input);
  }
}

TEST(CompressTest, FourThreadsCompressAtOnce) {
  // Each thread owns its table; run under TSan this checks they share
  // nothing.
  std::vector<std::vector<uint8_t>> inputs;
  std::vector<std::vector<uint8_t>> expected;
  for (uint64_t t = 0; t < 4; ++t) {
    inputs.push_back(ZipfText(100 + t, 50000 + 7000 * t));
    expected.push_back(CompressOnFreshThread(inputs.back()));
  }
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        // Alternate inputs so every call follows a different one.
        const size_t i = (t + static_cast<size_t>(round)) % 4;
        const auto stream = Compress(inputs[i]);
        auto restored = Decompress(stream);
        if (stream != expected[i] || !restored.ok() ||
            *restored != inputs[i]) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
}

TEST(CompressTest, GenerationBaseWrapZeroesTheTable) {
  // A compresses with small bases. Jumping the base to just below 2^32
  // stands in for 4 GiB of later calls that left A's entries in place;
  // B (A's bytes again) must wrap the base, zero the table and match
  // nothing of A's.
  std::thread([] {
    const auto a = ZipfText(21, 30000);
    const auto first = Compress(a);
    const uint32_t after_a = internal::MatchTableBase();
    EXPECT_LT(after_a, uint32_t{1} << 20);
    internal::SetMatchTableBase(std::numeric_limits<uint32_t>::max() - 10);
    const auto again = Compress(a);
    EXPECT_EQ(internal::MatchTableBase(), after_a)
        << "the base did not start over";
    EXPECT_EQ(again, first);
    auto restored = Decompress(again);
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(*restored, a);
    // Without a wrap, a later base moves on and the table stays valid.
    const auto third = Compress(a);
    EXPECT_EQ(third, first);
    EXPECT_GT(internal::MatchTableBase(), after_a);
  }).join();
}

TEST(CompressTest, CompressWithinStopsAtTheCap) {
  const auto input = ZipfText(31, 128 * 1024);
  const auto stream = Compress(input);
  auto exact = CompressWithin(input, stream.size());
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(*exact, stream);
  EXPECT_EQ(exact->capacity(), stream.size()) << "not an exact-size vector";
  EXPECT_FALSE(CompressWithin(input, stream.size() - 1).has_value());
  EXPECT_FALSE(CompressWithin(input, 0).has_value());
  // A stream that ends in literals the search never reaches.
  auto tail = input;
  tail.insert(tail.end(), {0x01, 0x02, 0x03});
  const auto tail_stream = Compress(tail);
  EXPECT_FALSE(CompressWithin(tail, tail_stream.size() - 1).has_value());
  EXPECT_EQ(CompressWithin(tail, tail_stream.size()), tail_stream);
  // Noise never shrinks to 90%: the cap gives it up.
  Rng rng(5);
  std::vector<uint8_t> noise(128 * 1024);
  for (auto& b : noise) b = static_cast<uint8_t>(rng.Next());
  EXPECT_FALSE(CompressWithin(noise, noise.size() * 9 / 10).has_value());
  auto uncapped = CompressWithin(noise, noise.size() * 2);
  ASSERT_TRUE(uncapped.has_value());
  EXPECT_EQ(*uncapped, Compress(noise));
}

TEST(CompressTest, DecompressIntoExactSizeDestination) {
  const auto input = ZipfText(41, 20000);
  const auto stream = Compress(input);
  // Heap-allocated to the byte, so ASan sees any write past the end.
  std::unique_ptr<uint8_t[]> dst(new uint8_t[input.size()]);
  auto size = DecompressInto(stream, {dst.get(), input.size()});
  ASSERT_TRUE(size.ok()) << size.status().ToString();
  ASSERT_EQ(*size, input.size());
  EXPECT_EQ(std::memcmp(dst.get(), input.data(), input.size()), 0);
}

TEST(CompressTest, DecompressIntoShortDestinationWritesNothing) {
  const auto input = ZipfText(42, 20000);
  const auto stream = Compress(input);
  std::unique_ptr<uint8_t[]> exact_short(new uint8_t[input.size() - 1]);
  auto size = DecompressInto(stream, {exact_short.get(), input.size() - 1});
  ASSERT_FALSE(size.ok());
  EXPECT_EQ(size.status().code(), StatusCode::kResourceExhausted)
      << size.status().ToString();
  // The same call inside a larger buffer: not one byte changes.
  std::vector<uint8_t> buffer(input.size() + 64, 0xEE);
  size = DecompressInto(stream, std::span(buffer).first(input.size() - 1));
  ASSERT_FALSE(size.ok());
  EXPECT_EQ(buffer, std::vector<uint8_t>(input.size() + 64, 0xEE));
}

TEST(CompressTest, OverlappingMatchesAtEveryShortDistance) {
  // A literal run of `distance` bytes, then matches that reach back into
  // their own output. Decoded exactly, with and without room for wild
  // copies after the end, they must equal the reference decoder's bytes.
  for (size_t distance = 1; distance <= 17; ++distance) {
    for (const size_t length : {size_t{4}, size_t{15}, size_t{16},
                                size_t{17}, size_t{100}, size_t{131}}) {
      SCOPED_TRACE(::testing::Message() << "distance " << distance
                                        << " length " << length);
      std::vector<uint8_t> tokens;
      tokens.push_back(static_cast<uint8_t>(distance - 1));
      for (size_t i = 0; i < distance; ++i) {
        tokens.push_back(static_cast<uint8_t>('a' + i));
      }
      for (int repeat = 0; repeat < 3; ++repeat) {
        tokens.push_back(static_cast<uint8_t>(0x80 | (length - 4)));
        tokens.push_back(static_cast<uint8_t>(distance));
        tokens.push_back(0);
      }
      const size_t raw_size = distance + 3 * length;
      auto stream = Header(raw_size);
      stream.insert(stream.end(), tokens.begin(), tokens.end());
      const auto expected = ReferenceDecode(stream);
      ASSERT_TRUE(expected.has_value());
      std::vector<uint8_t> exact(raw_size);
      auto size = DecompressInto(stream, exact);
      ASSERT_TRUE(size.ok()) << size.status().ToString();
      EXPECT_EQ(exact, *expected);
      std::vector<uint8_t> roomy(raw_size + 256);
      size = DecompressInto(stream, roomy);
      ASSERT_TRUE(size.ok()) << size.status().ToString();
      EXPECT_EQ(*size, raw_size);
      roomy.resize(raw_size);
      EXPECT_EQ(roomy, *expected);
      auto restored = Decompress(stream);
      ASSERT_TRUE(restored.ok());
      EXPECT_EQ(*restored, *expected);
    }
  }
}

TEST(CompressTest, DecompressIntoRejectsForgedRawSizes) {
  const auto input = Bytes("forged forged forged forged forged size");
  const auto stream = Compress(input);
  size_t offset = 2;
  ASSERT_TRUE(GetVarint64(stream, &offset).has_value());
  const std::span<const uint8_t> tokens =
      std::span(stream).subspan(offset);
  for (const size_t claim : {input.size() - 1, input.size() + 1,
                             input.size() + 200}) {
    SCOPED_TRACE(claim);
    auto forged = Header(claim);
    forged.insert(forged.end(), tokens.begin(), tokens.end());
    std::vector<uint8_t> dst(1024);
    auto size = DecompressInto(forged, dst);
    ASSERT_FALSE(size.ok());
    EXPECT_EQ(size.status().code(), StatusCode::kIoError)
        << size.status().ToString();
    EXPECT_FALSE(Decompress(forged).ok());
  }
  // A claim no token stream of this length can back is refused before
  // the destination is even considered.
  auto huge = Header(size_t{1} << 40);
  huge.insert(huge.end(), tokens.begin(), tokens.end());
  std::vector<uint8_t> dst(1024);
  auto size = DecompressInto(huge, dst);
  ASSERT_FALSE(size.ok());
  EXPECT_NE(size.status().message().find("implausible"), std::string::npos)
      << size.status().ToString();
}

}  // namespace
}  // namespace jbs
