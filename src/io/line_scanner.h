// The one lexer behind both line-oriented text grammars: instances
// (io/text_format.h) and churn traces (io/trace_format.h).
//
// LineScanner walks a whole input held in memory and never copies it.
// Lines end at '\n' only and are numbered the way std::getline counts
// them: a last line without '\n' still counts, and a '\n' at the very end
// opens no further line.  Everything from the first '#' on a line is a
// comment, even when the '#' is glued to a token.  Tokens are the maximal
// runs of bytes outside the C-locale whitespace set (' ', '\t', '\n',
// '\v', '\f', '\r'); every other byte, NUL included, belongs to a token.
//
// The tokens of the current line are string_views into the input.  Up to
// kInlineTokens of them live in a fixed array; a longer line (a wide
// `platform`) spills into one vector that is reused for every line, so a
// whole parse allocates only when a line is wider than every line before.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/platform.h"
#include "io/text_format.h"

namespace hetsched {

class LineScanner {
 public:
  explicit LineScanner(std::string_view text) : text_(text) {}

  // Advances to the next line that holds at least one token, skipping
  // blank and comment-only lines; false once the input is exhausted.
  bool read_line();

  // 1-based number of the current line.  Once read_line() has returned
  // false, the number of lines in the input (the line an "at end of
  // input" error is reported on).
  std::size_t line() const { return line_; }

  // The current line's tokens; never empty after read_line() returned true.
  std::span<const std::string_view> tokens() const {
    if (count_ <= kInlineTokens) return {inline_.data(), count_};
    return spill_;
  }

 private:
  static constexpr std::size_t kInlineTokens = 8;

  void push(std::string_view token);

  std::string_view text_;
  std::size_t pos_ = 0;  // start of the next unread line
  std::size_t line_ = 0;
  std::size_t count_ = 0;
  std::array<std::string_view, kInlineTokens> inline_{};
  std::vector<std::string_view> spill_;
};

// An upper bound on the directive lines in `text`, for reserving one
// output element per line: the number of lines, capped by how many
// directives of at least `min_line_bytes` bytes (with their '\n') fit, so
// a file of blank lines cannot reserve more than a small multiple of its
// own size.
std::size_t directive_line_bound(std::string_view text,
                                 std::size_t min_line_bytes);

// Parses a `platform` line (tokens[0] == "platform") into `*platform`;
// returns the error message instead if a platform was already set, a
// speed is missing or malformed, or a speed is not positive.
std::optional<std::string> parse_platform_directive(
    std::span<const std::string_view> tokens,
    std::optional<Platform>* platform);

// Reads the whole file at `path` into `*out` with one fstat-sized read
// loop.  On failure returns false and sets `*error` to
// "cannot open '<path>': <reason>" when open(2) fails and to
// "cannot read '<path>': <reason>" when fstat(2) or read(2) fails, so a
// read error is never mistaken for the end of the file.
bool read_text_file(const std::string& path, std::string* out,
                    std::string* error);

// load_instance and load_trace: read `path` whole, parse it, and prefix
// any parse error's message with the path.  A read failure is reported on
// line 0.
template <typename T>
ParseResult<T> load_text_file(const std::string& path,
                              ParseResult<T> (*parse)(std::string_view)) {
  std::string text;
  std::string error;
  if (!read_text_file(path, &text, &error)) {
    ParseResult<T> result;
    result.error = ParseError{0, std::move(error)};
    return result;
  }
  ParseResult<T> result = parse(text);
  if (result.error) {
    result.error->message = path + ": " + result.error->message;
  }
  return result;
}

}  // namespace hetsched
