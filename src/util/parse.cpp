#include "util/parse.hpp"

#include <charconv>

#include "util/error.hpp"

namespace wcm {

u64 parse_unsigned(const std::string& what, const std::string& text,
                   u64 max) {
  if (text.empty()) {
    throw parse_error(what + " requires a numeric value");
  }
  u64 value = 0;
  const auto [ptr, err] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (err != std::errc() || ptr != text.data() + text.size()) {
    throw parse_error("invalid value '" + text + "' for " + what +
                      " (expected an unsigned integer)");
  }
  if (value > max) {
    throw parse_error("value " + text + " for " + what +
                      " is out of range (max " + std::to_string(max) + ")");
  }
  return value;
}

}  // namespace wcm
