#include "common/config.h"

#include <gtest/gtest.h>

namespace jbs {
namespace {

TEST(ConfigTest, GetSetRoundTrip) {
  Config c;
  c.Set("a", "hello");
  c.SetInt("b", 42);
  c.SetBool("c", true);
  c.SetDouble("d", 2.5);
  EXPECT_EQ(c.Get("a"), "hello");
  EXPECT_EQ(c.GetInt("b", 0), 42);
  EXPECT_TRUE(c.GetBool("c", false));
  EXPECT_DOUBLE_EQ(c.GetDouble("d", 0.0), 2.5);
}

TEST(ConfigTest, MissingKeysUseDefaults) {
  Config c;
  EXPECT_FALSE(c.Get("missing").has_value());
  EXPECT_EQ(c.GetOr("missing", "def"), "def");
  EXPECT_EQ(c.GetInt("missing", 7), 7);
  EXPECT_FALSE(c.GetBool("missing", false));
  EXPECT_TRUE(c.GetBool("missing", true));
}

TEST(ConfigTest, BoolParsing) {
  Config c;
  c.Set("t1", "true");
  c.Set("t2", "YES");
  c.Set("t3", "1");
  c.Set("f1", "false");
  c.Set("f2", "No");
  c.Set("f3", "0");
  c.Set("junk", "maybe");
  EXPECT_TRUE(c.GetBool("t1", false));
  EXPECT_TRUE(c.GetBool("t2", false));
  EXPECT_TRUE(c.GetBool("t3", false));
  EXPECT_FALSE(c.GetBool("f1", true));
  EXPECT_FALSE(c.GetBool("f2", true));
  EXPECT_FALSE(c.GetBool("f3", true));
  EXPECT_TRUE(c.GetBool("junk", true));  // unparseable -> default
}

struct SizeCase {
  const char* text;
  int64_t expected;
};

// Without this gtest prints the raw bytes of the case, pointer included,
// so the discovered test names would change from run to run.
void PrintTo(const SizeCase& c, std::ostream* os) {
  *os << c.text << " -> " << c.expected;
}

class ParseSizeTest : public ::testing::TestWithParam<SizeCase> {};

TEST_P(ParseSizeTest, Parses) {
  auto parsed = Config::ParseSize(GetParam().text);
  ASSERT_TRUE(parsed.has_value()) << GetParam().text;
  EXPECT_EQ(*parsed, GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Values, ParseSizeTest,
    ::testing::Values(SizeCase{"512", 512}, SizeCase{"512B", 512},
                      SizeCase{"8KB", 8192}, SizeCase{"8 KB", 8192},
                      SizeCase{"128kb", 131072},
                      SizeCase{"1MB", 1048576},
                      SizeCase{"256MB", 268435456},
                      SizeCase{"1.5KB", 1536},
                      SizeCase{"2GB", int64_t{2} << 30},
                      SizeCase{"1TB", int64_t{1} << 40}));

TEST(ConfigTest, ParseSizeRejectsJunk) {
  EXPECT_FALSE(Config::ParseSize("").has_value());
  EXPECT_FALSE(Config::ParseSize("abc").has_value());
  EXPECT_FALSE(Config::ParseSize("12XB").has_value());
  // Values no int64_t byte count can hold.
  EXPECT_FALSE(Config::ParseSize("-1KB").has_value());
  EXPECT_FALSE(Config::ParseSize("1e30G").has_value());
  EXPECT_FALSE(Config::ParseSize("nan").has_value());
  EXPECT_FALSE(Config::ParseSize("inf").has_value());
}

TEST(ConfigTest, GetSizeUsesDefault) {
  Config c;
  c.Set(conf::kTransportBufferSize, "128KB");
  EXPECT_EQ(c.GetSize(conf::kTransportBufferSize, 0), 128 * 1024);
  EXPECT_EQ(c.GetSize("missing", 999), 999);
}

TEST(ConfigTest, MergeFromOverwrites) {
  Config base;
  base.Set("a", "1");
  base.Set("b", "2");
  Config overlay;
  overlay.Set("b", "20");
  overlay.Set("c", "30");
  base.MergeFrom(overlay);
  EXPECT_EQ(base.Get("a"), "1");
  EXPECT_EQ(base.Get("b"), "20");
  EXPECT_EQ(base.Get("c"), "30");
  EXPECT_EQ(base.size(), 3u);
}

}  // namespace
}  // namespace jbs
