// Failpoint layer (DESIGN.md §16): spec grammar, fire bookkeeping
// (skip / max-fires / probability), and arming from the JBS_FAILPOINTS /
// JBS_FAILPOINTS_SEED env vars.
#include "common/failpoints.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdlib>

namespace jbs {
namespace {

class FailpointsTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoints::DisarmAll(); }
  void TearDown() override { failpoints::DisarmAll(); }
};

TEST_F(FailpointsTest, UnarmedSiteBehavesNormally) {
  const auto fp = failpoints::Hit("failpoints_test.unarmed");
  EXPECT_FALSE(static_cast<bool>(fp));
  EXPECT_EQ(fp.kind, failpoints::Action::Kind::kNone);
}

TEST_F(FailpointsTest, NamedErrnoActionsFire) {
  ASSERT_TRUE(failpoints::Arm("failpoints_test.a", "eio").ok());
  const auto fp = failpoints::Hit("failpoints_test.a");
  ASSERT_TRUE(static_cast<bool>(fp));
  EXPECT_EQ(fp.kind, failpoints::Action::Kind::kError);
  EXPECT_EQ(fp.err, EIO);

  ASSERT_TRUE(failpoints::Arm("failpoints_test.a", "emfile").ok());
  EXPECT_EQ(failpoints::Hit("failpoints_test.a").err, EMFILE);
  ASSERT_TRUE(failpoints::Arm("failpoints_test.a", "enospc").ok());
  EXPECT_EQ(failpoints::Hit("failpoints_test.a").err, ENOSPC);
  ASSERT_TRUE(failpoints::Arm("failpoints_test.a", "err:104").ok());
  EXPECT_EQ(failpoints::Hit("failpoints_test.a").err, 104);
}

TEST_F(FailpointsTest, ShortReadAndFalseActions) {
  ASSERT_TRUE(failpoints::Arm("failpoints_test.s", "short:7").ok());
  const auto fp = failpoints::Hit("failpoints_test.s");
  EXPECT_EQ(fp.kind, failpoints::Action::Kind::kShortRead);
  EXPECT_EQ(fp.arg, 7u);

  ASSERT_TRUE(failpoints::Arm("failpoints_test.f", "false").ok());
  EXPECT_EQ(failpoints::Hit("failpoints_test.f").kind,
            failpoints::Action::Kind::kFalse);
}

TEST_F(FailpointsTest, MaxFiresThenQuiet) {
  ASSERT_TRUE(failpoints::Arm("failpoints_test.n", "eio*2").ok());
  EXPECT_TRUE(static_cast<bool>(failpoints::Hit("failpoints_test.n")));
  EXPECT_TRUE(static_cast<bool>(failpoints::Hit("failpoints_test.n")));
  EXPECT_FALSE(static_cast<bool>(failpoints::Hit("failpoints_test.n")));
  EXPECT_EQ(failpoints::HitCount("failpoints_test.n"), 3u);
  EXPECT_EQ(failpoints::FireCount("failpoints_test.n"), 2u);

  // *0 counts hits without ever firing.
  ASSERT_TRUE(failpoints::Arm("failpoints_test.n", "false*0").ok());
  EXPECT_FALSE(static_cast<bool>(failpoints::Hit("failpoints_test.n")));
  EXPECT_EQ(failpoints::HitCount("failpoints_test.n"), 1u);
}

TEST_F(FailpointsTest, SkipSwallowsLeadingHits) {
  ASSERT_TRUE(failpoints::Arm("failpoints_test.k", "eio+2*1").ok());
  EXPECT_FALSE(static_cast<bool>(failpoints::Hit("failpoints_test.k")));
  EXPECT_FALSE(static_cast<bool>(failpoints::Hit("failpoints_test.k")));
  EXPECT_TRUE(static_cast<bool>(failpoints::Hit("failpoints_test.k")));
  EXPECT_FALSE(static_cast<bool>(failpoints::Hit("failpoints_test.k")));
  EXPECT_EQ(failpoints::FireCount("failpoints_test.k"), 1u);
}

TEST_F(FailpointsTest, ProbabilisticFiringIsSeededAndDeterministic) {
  const auto campaign = [&] {
    failpoints::SetSeed(42);
    ASSERT_TRUE(failpoints::Arm("failpoints_test.p", "eio%30").ok());
  };
  campaign();
  uint64_t first = 0;
  for (int i = 0; i < 1000; ++i) {
    if (failpoints::Hit("failpoints_test.p")) ++first;
  }
  // ~300 expected; a generous band still catches 0%/100% regressions.
  EXPECT_GT(first, 150u);
  EXPECT_LT(first, 450u);
  campaign();
  uint64_t second = 0;
  for (int i = 0; i < 1000; ++i) {
    if (failpoints::Hit("failpoints_test.p")) ++second;
  }
  EXPECT_EQ(first, second) << "same seed must replay the same fault schedule";
}

TEST_F(FailpointsTest, MalformedSpecsRejected) {
  EXPECT_EQ(failpoints::Arm("x", "explode").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(failpoints::Arm("x", "eio*abc").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(failpoints::Arm("x", "eio%200").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(failpoints::Arm("x", "err:-5").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(failpoints::Arm("x", "eio*2*3").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(failpoints::Arm("x", "eio+1+4").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(FailpointsTest, DisarmStopsFiring) {
  ASSERT_TRUE(failpoints::Arm("failpoints_test.d", "eio").ok());
  EXPECT_TRUE(static_cast<bool>(failpoints::Hit("failpoints_test.d")));
  failpoints::Disarm("failpoints_test.d");
  EXPECT_FALSE(static_cast<bool>(failpoints::Hit("failpoints_test.d")));
  EXPECT_EQ(failpoints::HitCount("failpoints_test.d"), 0u);
}

// Env arming happens once per process, before the first hit, so each
// case runs in a freshly exec'd child ("threadsafe" death-test style)
// whose environment is set inside the statement.
class FailpointsEnvDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(FailpointsEnvDeathTest, EnvArmedPointFiresOnFirstHit) {
  EXPECT_EXIT(
      {
        setenv("JBS_FAILPOINTS", "failpoints_test.env=eio*1", 1);
        const auto fp = failpoints::Hit("failpoints_test.env");
        std::_Exit(fp.kind == failpoints::Action::Kind::kError &&
                           fp.err == EIO &&
                           !failpoints::Hit("failpoints_test.env")
                       ? 0
                       : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST_F(FailpointsEnvDeathTest, MalformedEnvSpecAborts) {
  EXPECT_DEATH(
      {
        setenv("JBS_FAILPOINTS", "failpoints_test.env=explode", 1);
        failpoints::Hit("failpoints_test.env");
      },
      "JBS_FAILPOINTS: .*unknown action");
}

TEST_F(FailpointsEnvDeathTest, MalformedEnvSeedAborts) {
  EXPECT_DEATH(
      {
        setenv("JBS_FAILPOINTS_SEED", "abc", 1);
        failpoints::Hit("failpoints_test.env");
      },
      "JBS_FAILPOINTS_SEED: 'abc' is not a decimal integer");
}

}  // namespace
}  // namespace jbs
