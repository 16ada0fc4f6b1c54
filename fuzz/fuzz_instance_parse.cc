// Fuzz target: text instances (io/text_format.h).
//
// The input bytes are parsed as an instance.  parse_instance_string must
// reject malformed text with an error (never crash, never accept an
// invalid task or speed), and for accepted instances serialization must be
// a fixed point: format(parse(format(x))) == format(x).  Speeds are
// printed as exact rationals and tasks as integers, so one format/parse
// cycle must already converge.
#include <string>
#include <string_view>

#include "fuzz_driver.h"
#include "io/text_format.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using hetsched::fuzz::require;
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  const auto parsed = hetsched::parse_instance_string(text);
  if (!parsed.ok()) {
    require(parsed.error.has_value(), "failed parse without an error");
    return 0;
  }
  const std::string once = hetsched::format_instance(*parsed.value);
  const auto reparsed = hetsched::parse_instance_string(once);
  require(reparsed.ok(), "formatted instance failed to reparse");
  const std::string twice = hetsched::format_instance(*reparsed.value);
  require(once == twice, "format/parse is not a fixed point");
  return 0;
}
