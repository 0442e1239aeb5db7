#include "nbclos/util/parse.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

namespace nbclos {
namespace {

/// The message of the std::invalid_argument `fn` throws, or "" if none.
template <typename Fn>
std::string error_of(Fn fn) {
  try {
    (void)fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ParseRate, AcceptsFiniteDecimals) {
  EXPECT_EQ(parse_rate("0.3", "<load>"), 0.3);
  EXPECT_EQ(parse_rate("1", "<load>"), 1.0);
  EXPECT_EQ(parse_rate("0", "<load>"), 0.0);
  EXPECT_EQ(parse_rate(".5", "<load>"), 0.5);
  EXPECT_EQ(parse_rate("2.5e-1", "<load>"), 0.25);
  // The range is the engine's to check, not the parser's.
  EXPECT_EQ(parse_rate("-0.5", "<load>"), -0.5);
  EXPECT_EQ(parse_rate("1.5", "<load>"), 1.5);
}

TEST(ParseRate, RejectsJunkAndNonFiniteValuesNamingTheArgument) {
  for (const std::string bad :
       {"0.3junk", "abc", "", " 0.3", "0.3 ", "+0.3", "0,3", "0.3.1", "inf",
        "-inf", "nan", "1e999"}) {
    const auto what = error_of([&] { return parse_rate(bad, "<load>"); });
    EXPECT_EQ(what.rfind("<load>: ", 0), 0U) << "'" << bad << "': " << what;
    EXPECT_NE(what.find("'" + bad + "'"), std::string::npos) << what;
  }
}

TEST(ParseCount, RejectsValuesAboveTheGivenMaximum) {
  EXPECT_EQ(parse_count<std::size_t>("256", "--threads", 256), 256U);
  const auto what = error_of(
      [] { return parse_count<std::size_t>("257", "--threads", 256); });
  EXPECT_EQ(what, "--threads: '257' exceeds the maximum 256");
  // Junk is still junk, whatever the bound.
  EXPECT_NE(error_of([] {
              return parse_count<std::size_t>("300x", "--threads", 256);
            }).find("expected a non-negative integer"),
            std::string::npos);
  // Without a bound the type's own maximum applies, as before.
  EXPECT_EQ(error_of([] { return parse_count<std::uint8_t>("256", "--n"); }),
            "--n: '256' exceeds the maximum 255");
}

}  // namespace
}  // namespace nbclos
