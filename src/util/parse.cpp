#include "util/parse.hpp"

#include <charconv>
#include <cstdlib>

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

u32 threads_from_env(u32 fallback) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env probe; nothing
  // in the process calls setenv.
  const char* env = std::getenv("WCM_THREADS");
  if (env == nullptr || *env == '\0') {
    return fallback;
  }
  const std::string text(env);
  u64 value = 0;
  try {
    value = parse_unsigned("WCM_THREADS", text, 4096);
  } catch (const parse_error&) {
    throw parse_error("invalid WCM_THREADS value '" + text +
                      "' (expected an integer 0..4096)");
  }
  return value == 0 ? fallback : static_cast<u32>(value);
}

}  // namespace wcm
