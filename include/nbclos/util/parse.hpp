/// \file parse.hpp
/// \brief Checked parsing of counts and rates given on a command line.
///
/// The CLI and the bench harness read every count, seed and thread
/// number through parse_count, and every load or rate through
/// parse_rate, so a sign, stray characters or an overflowing value fails
/// fast with a message naming the flag instead of wrapping around (e.g.
/// "-1" read as 2^64 - 1 cycles), being cut short ("0.3junk" read as
/// 0.3) or aborting in a standard-library conversion.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace nbclos {

/// Parse a decimal count given for `what` (a flag or argument name):
/// digits only — no sign, blanks or trailing junk — and the value must
/// fit T and not exceed `max`.  Throws std::invalid_argument whose
/// message starts with `what`.
template <typename T = std::uint32_t>
T parse_count(const std::string& text, const std::string& what,
              T max = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  const bool digits_only = ec == std::errc() && ptr == end;
  if (digits_only && value <= max) return value;
  if (digits_only || ec == std::errc::result_out_of_range) {
    throw std::invalid_argument(what + ": '" + text + "' exceeds the maximum " +
                                std::to_string(max));
  }
  throw std::invalid_argument(what + ": expected a non-negative integer, got '" +
                              text + "'");
}

/// Parse a load or rate given for `what`: one finite decimal number
/// ("0.3", "1", "2.5e-1") with no blanks or trailing junk.  The range is
/// the engine's to check.  Throws std::invalid_argument whose message
/// starts with `what`.
inline double parse_rate(const std::string& text, const std::string& what) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
    throw std::invalid_argument(
        what + ": expected a finite decimal number, got '" + text + "'");
  }
  return value;
}

}  // namespace nbclos
