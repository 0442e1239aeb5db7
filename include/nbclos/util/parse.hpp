/// \file parse.hpp
/// \brief Checked parsing of counts given on a command line.
///
/// The CLI and the bench harness read every count, seed and thread
/// number through parse_count, so a sign, stray characters or an
/// overflowing value fails fast with a message naming the flag instead
/// of wrapping around (e.g. "-1" read as 2^64 - 1 cycles) or aborting in
/// a standard-library conversion.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace nbclos {

/// Parse a decimal count given for `what` (a flag or argument name):
/// digits only — no sign, blanks or trailing junk — and the value must
/// fit T.  Throws std::invalid_argument whose message starts with
/// `what`.
template <typename T = std::uint32_t>
T parse_count(const std::string& text, const std::string& what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    throw std::invalid_argument(what + ": '" + text + "' exceeds the maximum " +
                                std::to_string(std::numeric_limits<T>::max()));
  }
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument(
        what + ": expected a non-negative integer, got '" + text + "'");
  }
  return value;
}

}  // namespace nbclos
