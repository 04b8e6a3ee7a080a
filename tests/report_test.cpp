#include "deco/eval/report.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "deco/tensor/check.h"

namespace deco::eval {
namespace {

TEST(MarkdownTableTest, RendersHeaderSeparatorAndRows) {
  MarkdownTable t({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"x", "y"});
  std::ostringstream os;
  t.print(os);
  EXPECT_EQ(os.str(), "| a | b |\n|---|---|\n| 1 | 2 |\n| x | y |\n");
}

TEST(MarkdownTableTest, RejectsWidthMismatch) {
  MarkdownTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(FmtTest, FixedPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmt(-1.5, 1), "-1.5");
}

TEST(EnvTest, IntAndStringFallbacks) {
  unsetenv("DECO_TEST_KNOB");
  EXPECT_EQ(env_int("DECO_TEST_KNOB", 7), 7);
  EXPECT_EQ(env_str("DECO_TEST_KNOB", "dflt"), "dflt");
  setenv("DECO_TEST_KNOB", "42", 1);
  EXPECT_EQ(env_int("DECO_TEST_KNOB", 7), 42);
  EXPECT_EQ(env_str("DECO_TEST_KNOB", "dflt"), "42");
  unsetenv("DECO_TEST_KNOB");
}

TEST(EnvTest, IntRejectsMalformedAndOutOfRangeValues) {
  auto message_for = [](const char* value, int64_t min_value) -> std::string {
    setenv("DECO_TEST_KNOB", value, 1);
    try {
      env_int("DECO_TEST_KNOB", 7, min_value);
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };
  for (const char* bad : {"abc", "12abc", "3 ", "1.5", "-", "99999999999999999999"}) {
    const std::string msg = message_for(bad, 1);
    EXPECT_NE(msg.find("DECO_TEST_KNOB"), std::string::npos) << bad << ": " << msg;
  }
  EXPECT_NE(message_for("0", 1).find("DECO_TEST_KNOB must be >= 1"),
            std::string::npos);
  EXPECT_NE(message_for("-2", 1).find("DECO_TEST_KNOB"), std::string::npos);
  setenv("DECO_TEST_KNOB", "0", 1);
  EXPECT_EQ(env_int("DECO_TEST_KNOB", 7, 0), 0);
  EXPECT_EQ(env_int("DECO_TEST_KNOB", 7), 0);  // no lower bound by default
  setenv("DECO_TEST_KNOB", "-3", 1);
  EXPECT_EQ(env_int("DECO_TEST_KNOB", 7), -3);
  unsetenv("DECO_TEST_KNOB");
  EXPECT_EQ(env_int("DECO_TEST_KNOB", 0, 1), 0)
      << "the bound applies to set values, not to the fallback";
}

TEST(EnvTest, FullScaleSwitch) {
  unsetenv("DECO_BENCH_SCALE");
  EXPECT_FALSE(full_scale());
  setenv("DECO_BENCH_SCALE", "full", 1);
  EXPECT_TRUE(full_scale());
  unsetenv("DECO_BENCH_SCALE");
}

}  // namespace
}  // namespace deco::eval
