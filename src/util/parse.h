// Strict number parsing for command-line arguments, flags and
// environment variables: a malformed number is an error, never a value
// read leniently (strtoull turns "abc" into 0 and "-1" into 2^64 - 1)
// or truncated into a narrower field.
#ifndef EXTSCC_UTIL_PARSE_H_
#define EXTSCC_UTIL_PARSE_H_

#include <cstdint>
#include <limits>
#include <string_view>

#include "util/status.h"

namespace extscc::util {

// Parses `text` as a whole unsigned decimal number no greater than
// `max`: digits only, no sign, no surrounding space, no trailing
// garbage, no overflow. On failure returns kInvalidArgument whose
// message names `what`, and leaves *value untouched.
Status ParseUnsigned(
    const char* what, std::string_view text, std::uint64_t* value,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

// ParseUnsigned for command-line tools: prints the error to stderr and
// returns false on failure.
bool ParseUnsignedArg(
    const char* what, std::string_view text, std::uint64_t* value,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

}  // namespace extscc::util

#endif  // EXTSCC_UTIL_PARSE_H_
