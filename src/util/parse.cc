#include "util/parse.h"

#include <charconv>
#include <cstdio>
#include <string>

namespace extscc::util {

Status ParseUnsigned(const char* what, std::string_view text,
                     std::uint64_t* value, std::uint64_t max) {
  const char* end = text.data() + text.size();
  std::uint64_t parsed = 0;
  const auto [stop, error] = std::from_chars(text.data(), end, parsed);
  const std::string quoted = std::string(what) + ": '" + std::string(text);
  if (error != std::errc() || stop != end) {
    return Status::InvalidArgument(quoted +
                                   "' is not an unsigned decimal number");
  }
  if (parsed > max) {
    return Status::InvalidArgument(quoted + "' is above the maximum " +
                                   std::to_string(max));
  }
  *value = parsed;
  return Status::Ok();
}

bool ParseUnsignedArg(const char* what, std::string_view text,
                      std::uint64_t* value, std::uint64_t max) {
  const Status status = ParseUnsigned(what, text, value, max);
  if (!status.ok()) std::fprintf(stderr, "%s\n", status.message().c_str());
  return status.ok();
}

}  // namespace extscc::util
