#pragma once
// Strict decimal parsing for command-line values, shared by every front
// end so that a malformed number is rejected the same way everywhere.

#include <limits>
#include <string>

#include "util/math.hpp"

namespace wcm {

/// Full-string parse of an unsigned decimal.  Throws wcm::parse_error
/// naming `what` (typically the flag) on an empty value, a sign, trailing
/// garbage ("15x"), or a value above `max`.
[[nodiscard]] u64 parse_unsigned(const std::string& what,
                                 const std::string& text,
                                 u64 max = std::numeric_limits<u64>::max());

/// The WCM_THREADS environment override (0..4096, strictly parsed):
/// `fallback` when the variable is unset, empty or 0.  Throws
/// wcm::parse_error on garbage.  The one reader of the variable: campaign
/// workers, wcmd's scheduler and a sort's block fan-out all size from it.
[[nodiscard]] u32 threads_from_env(u32 fallback = 0);

}  // namespace wcm
