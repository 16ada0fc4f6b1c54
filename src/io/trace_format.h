// Plain-text interchange format for churn traces (platform + event stream).
//
// The CLI's serve/replay subcommands and the churn experiments exchange
// traces as line-oriented text.  Grammar (one directive per line, '#'
// starts a comment):
//
//   platform  <speed> [<speed> ...]        # decimals or rationals "3/2"
//   arrive    <time> <task> <exec> <period> [<deadline>]
//   depart    <time> <task>
//
// The optional deadline column (constrained model, 0 < d <= p) is strict
// back-compat: a 4-column arrive means an implicit deadline (d == p), and
// format_trace emits the column only for explicit deadlines, so every
// legacy trace parses and re-serializes byte-identically.
//
// Example:
//   platform 1 1 2.5
//   arrive 0.5 0 2 10
//   arrive 1.25 1 9 10
//   depart 3.5 0
//
// Lexing is the instance grammar's (io/text_format.h), through the same
// zero-copy scanner (io/line_scanner.h): lines end at '\n' only, '#' cuts
// the rest of its line even inside a token, and tokens split on exactly
// the C-locale whitespace set ' ' '\t' '\n' '\v' '\f' '\r'.  load_trace
// reads the whole file in one fstat-sized read loop and parses it in
// place; a read error is reported as such, never as a shorter trace.
//
// Validation is strict, matching io/text_format.h: event times must be
// non-decreasing, every task number may arrive at most once, and a depart
// must name a task that arrived earlier and has not departed yet.  Tasks
// with no depart line simply stay resident to the end of the trace.
// Serialization round-trips through parse (times are printed with enough
// digits to recover the double exactly).
#pragma once

#include <string>
#include <string_view>

#include "core/platform.h"
#include "gen/churn_gen.h"
#include "io/text_format.h"

namespace hetsched {

// A churn trace paired with the platform it should be replayed against.
struct ChurnInstance {
  Platform platform;
  ChurnTrace trace;
};

// Parses a trace.  Requires exactly one `platform` line (before, between,
// or after events).  Zero events is allowed.
ParseResult<ChurnInstance> parse_trace_string(std::string_view text);

// Loads a trace from a file; the error message names the path.  A file
// that cannot be opened or read fails on line 0 with
// "cannot open '<path>': <reason>" or "cannot read '<path>': <reason>".
ParseResult<ChurnInstance> load_trace(const std::string& path);

// Serializes in the same format (speeds as exact rationals, times with
// round-trip precision).
std::string format_trace(const ChurnInstance& instance);

// Writes format_trace() to `path`; false on I/O failure.
bool save_trace(const ChurnInstance& instance, const std::string& path);

}  // namespace hetsched
