#include "common/env.h"

#include <gtest/gtest.h>

#include <climits>
#include <cstdlib>

namespace vedr::common {
namespace {

TEST(ParseI64, AcceptsWellFormedIntegers) {
  EXPECT_EQ(parse_i64("0"), 0);
  EXPECT_EQ(parse_i64("42"), 42);
  EXPECT_EQ(parse_i64("-7"), -7);
  EXPECT_EQ(parse_i64("+13"), 13);
  EXPECT_EQ(parse_i64("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(parse_i64("-9223372036854775808"), INT64_MIN);
}

TEST(ParseI64, RejectsGarbage) {
  // Everything atoi would silently turn into 0 or a prefix value.
  EXPECT_FALSE(parse_i64(""));
  EXPECT_FALSE(parse_i64("ten"));
  EXPECT_FALSE(parse_i64("12abc"));
  EXPECT_FALSE(parse_i64("abc12"));
  EXPECT_FALSE(parse_i64(" 12"));
  EXPECT_FALSE(parse_i64("12 "));
  EXPECT_FALSE(parse_i64("1.5"));
  EXPECT_FALSE(parse_i64("0x10"));
  EXPECT_FALSE(parse_i64("-"));
  EXPECT_FALSE(parse_i64("9223372036854775808"));   // INT64_MAX + 1
  EXPECT_FALSE(parse_i64("-9223372036854775809"));  // INT64_MIN - 1
}

TEST(ParseF64, AcceptsWellFormedNumbers) {
  EXPECT_EQ(parse_f64("0"), 0.0);
  EXPECT_EQ(parse_f64("0.0039"), 0.0039);
  EXPECT_EQ(parse_f64("-2.5"), -2.5);
  EXPECT_EQ(parse_f64("1e-3"), 1e-3);
  EXPECT_EQ(parse_f64("2.5E2"), 250.0);
  EXPECT_EQ(parse_f64(".5"), 0.5);
}

TEST(ParseF64, RejectsGarbage) {
  EXPECT_FALSE(parse_f64(""));
  EXPECT_FALSE(parse_f64("0.x5"));
  EXPECT_FALSE(parse_f64("1.5x"));
  EXPECT_FALSE(parse_f64(" 1.5"));
  EXPECT_FALSE(parse_f64("1.5 "));
  EXPECT_FALSE(parse_f64("one"));
  EXPECT_FALSE(parse_f64("--1"));
  EXPECT_FALSE(parse_f64("1e"));
  // inf/nan are never valid knob values.
  EXPECT_FALSE(parse_f64("inf"));
  EXPECT_FALSE(parse_f64("nan"));
  EXPECT_FALSE(parse_f64("1e999"));  // overflows to inf
}

TEST(EnvStr, UnsetAndEmptyAreNotConfigured) {
  ::unsetenv("VEDR_ENV_TEST_VAR");
  EXPECT_FALSE(env_str("VEDR_ENV_TEST_VAR"));
  ::setenv("VEDR_ENV_TEST_VAR", "", 1);
  EXPECT_FALSE(env_str("VEDR_ENV_TEST_VAR"));
  ::setenv("VEDR_ENV_TEST_VAR", "value", 1);
  EXPECT_EQ(env_str("VEDR_ENV_TEST_VAR"), "value");
  ::unsetenv("VEDR_ENV_TEST_VAR");
}

TEST(ParseOrDie, ReturnsParsedValues) {
  EXPECT_EQ(parse_int_or_die("--case", "3", 0, INT_MAX), 3);
  EXPECT_EQ(parse_f64_or_die("--scale", "0.25"), 0.25);
}

TEST(ParseOrDieDeathTest, ExitsOnGarbage) {
  EXPECT_EXIT(parse_int_or_die("--case", "ten", 0, INT_MAX), ::testing::ExitedWithCode(2),
              "not an integer");
  EXPECT_EXIT(parse_f64_or_die("VEDR_SCALE", "0.x5"), ::testing::ExitedWithCode(2),
              "not a number");
}

TEST(ParseIntOrDie, AcceptsItsBoundsInclusive) {
  EXPECT_EQ(parse_int_or_die("--shards", "1", 1, 8), 1);
  EXPECT_EQ(parse_int_or_die("--shards", "8", 1, 8), 8);
  EXPECT_EQ(parse_int_or_die("--port", "0", 0, 65535), 0);
  EXPECT_EQ(parse_int_or_die("--port", "65535", 0, 65535), 65535);
  EXPECT_EQ(parse_int_or_die("--case", "2147483647", 0, INT_MAX), INT_MAX);
  EXPECT_EQ(parse_int_or_die("--offset", "-2147483648", INT_MIN, 0), INT_MIN);
}

TEST(ParseIntOrDieDeathTest, ExitsOutsideItsRange) {
  EXPECT_EXIT(parse_int_or_die("--shards", "0", 1, 8), ::testing::ExitedWithCode(2),
              "--shards: not an integer in .1, 8.");
  EXPECT_EXIT(parse_int_or_die("--shards", "9", 1, 8), ::testing::ExitedWithCode(2),
              "--shards: not an integer in .1, 8.");
  EXPECT_EXIT(parse_int_or_die("--port", "65536", 0, 65535), ::testing::ExitedWithCode(2),
              "--port: not an integer in .0, 65535.");
}

TEST(ParseIntOrDieDeathTest, ExitsOnEmptyAndWhitespace) {
  EXPECT_EXIT(parse_int_or_die("--queue-cap", "", 1, INT_MAX), ::testing::ExitedWithCode(2),
              "--queue-cap: not an integer");
  EXPECT_EXIT(parse_int_or_die("--queue-cap", " 8", 1, INT_MAX), ::testing::ExitedWithCode(2),
              "--queue-cap: not an integer");
  EXPECT_EXIT(parse_int_or_die("--queue-cap", "8 ", 1, INT_MAX), ::testing::ExitedWithCode(2),
              "--queue-cap: not an integer");
}

TEST(ParseIntOrDieDeathTest, ExitsPastInt) {
  // A cast from int64 would wrap 2^32 to 0 and INT_MAX + 1 to INT_MIN.
  EXPECT_EXIT(parse_int_or_die("--case", "4294967296", 0, INT_MAX),
              ::testing::ExitedWithCode(2), "--case: not an integer");
  EXPECT_EXIT(parse_int_or_die("--case", "2147483648", 0, INT_MAX),
              ::testing::ExitedWithCode(2), "--case: not an integer");
  EXPECT_EXIT(parse_int_or_die("--offset", "-2147483649", INT_MIN, 0),
              ::testing::ExitedWithCode(2), "--offset: not an integer");
}

}  // namespace
}  // namespace vedr::common
