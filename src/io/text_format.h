// Plain-text interchange format for task systems and platforms.
//
// The CLI tool and downstream users exchange instances as line-oriented
// text.  Grammar (one directive per line, '#' starts a comment):
//
//   platform  <speed> [<speed> ...]        # decimals or rationals "3/2"
//   task      <exec> <period>              # positive integers
//
// Example:
//   # big.LITTLE with one fast core
//   platform 1 1 2.5
//   task 2 10
//   task 9 10
//
// Lexing is shared with the trace grammar (io/trace_format.h) through one
// zero-copy scanner (io/line_scanner.h): lines end at '\n' only (so a CRLF
// file parses, '\r' being whitespace), a '#' cuts the rest of its line
// even inside a token, and tokens split on exactly the C-locale
// whitespace set ' ' '\t' '\n' '\v' '\f' '\r'.  load_instance reads the
// whole file in one fstat-sized read loop and parses it in place; a read
// error is reported as such, never as a shorter file.
//
// Parsing is strict: any malformed line yields an error with its line
// number rather than a silently skewed experiment.  Serialization emits the
// same format and round-trips exactly (speeds are written as rationals).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/platform.h"
#include "core/task.h"

namespace hetsched {

struct Instance {
  TaskSet tasks;
  Platform platform;
};

struct ParseError {
  std::size_t line = 0;       // 1-based line number
  std::string message;

  std::string to_string() const;
};

// Result carrying either a value or a parse error.
template <typename T>
struct ParseResult {
  std::optional<T> value;
  std::optional<ParseError> error;

  bool ok() const { return value.has_value(); }
};

// Token parsers shared by the instance and trace (io/trace_format.h)
// grammars.  parse_speed_token accepts "3", "3/2", or a short decimal
// "2.5" and keeps the value exact.
std::optional<std::int64_t> parse_int_token(std::string_view tok);
std::optional<double> parse_double_token(std::string_view tok);
std::optional<Rational> parse_speed_token(std::string_view tok);

// Parses an instance from text.  Requires exactly one `platform` line; a
// second `platform` line is an error.  Zero tasks is allowed.
ParseResult<Instance> parse_instance_string(std::string_view text);

// Loads an instance from a file; the error message names the path.  A
// file that cannot be opened or read fails on line 0 with
// "cannot open '<path>': <reason>" or "cannot read '<path>': <reason>".
ParseResult<Instance> load_instance(const std::string& path);

// Serializes in the same format (speeds as exact rationals).
std::string format_instance(const Instance& instance);

// Writes format_instance() to `path`; false on I/O failure.
bool save_instance(const Instance& instance, const std::string& path);

}  // namespace hetsched
