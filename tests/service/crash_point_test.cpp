// NPTSN_CRASH_POINT's grammar: "name" arms the point's first crossing,
// "name@N" its N-th, where N is one whole decimal >= 1. A malformed spec arms
// nothing. Hook mode observes the firing, so no process dies here.
#include "service/crash_point.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace nptsn {
namespace {

class CrashPointEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    disarm_crash_points();
    set_crash_point_hook([this](const char*) { ++fired_; });
  }
  void TearDown() override {
    disarm_crash_points();
    set_crash_point_hook(nullptr);
    ::unsetenv("NPTSN_CRASH_POINT");
  }

  static bool arm(const char* spec) {
    ::setenv("NPTSN_CRASH_POINT", spec, 1);
    return arm_crash_point_from_env();
  }

  int fired_ = 0;
};

TEST_F(CrashPointEnv, ArmsOnlyWholeDecimalHits) {
  for (const char* spec : {"t.point@2x", "t.point@0", "t.point@-1", "t.point@", "t.point@+2",
                           "t.point@ 2", "t.point@2147483648", "@3", ""}) {
    disarm_crash_points();
    EXPECT_FALSE(arm(spec)) << spec;
    for (int i = 0; i < 3; ++i) crash_point("t.point");
    EXPECT_EQ(fired_, 0) << spec;
  }

  EXPECT_TRUE(arm("t.point@2"));
  crash_point("t.point");
  crash_point("t.other");
  EXPECT_EQ(fired_, 0);
  crash_point("t.point");
  EXPECT_EQ(fired_, 1);
  crash_point("t.point");
  EXPECT_EQ(fired_, 1) << "only the second crossing fires";

  EXPECT_TRUE(arm("t.point"));
  crash_point("t.point");
  EXPECT_EQ(fired_, 2) << "a bare name fires on the first crossing";
}

}  // namespace
}  // namespace nptsn
