#include "io/text_format.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <span>
#include <sstream>
#include <vector>

#include "io/line_scanner.h"

namespace hetsched {

std::string ParseError::to_string() const {
  return "line " + std::to_string(line) + ": " + message;
}

std::optional<std::int64_t> parse_int_token(std::string_view tok) {
  std::int64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), v);
  if (ec != std::errc{} || ptr != tok.data() + tok.size()) return std::nullopt;
  return v;
}

std::optional<double> parse_double_token(std::string_view tok) {
  double v = 0;
  const auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), v);
  if (ec != std::errc{} || ptr != tok.data() + tok.size()) return std::nullopt;
  // from_chars happily parses "nan" and "inf", but every caller is a
  // trace/event time where NaN would also slip past the non-decreasing
  // check (NaN < x is false) and poison the trace downstream.
  if (!std::isfinite(v)) return std::nullopt;
  return v;
}

// Accepts "3", "3/2", or a decimal like "2.5".
std::optional<Rational> parse_speed_token(std::string_view tok) {
  const auto slash = tok.find('/');
  if (slash != std::string_view::npos) {
    const auto num = parse_int_token(tok.substr(0, slash));
    const auto den = parse_int_token(tok.substr(slash + 1));
    if (!num || !den || *den == 0) return std::nullopt;
    return Rational(*num, *den);
  }
  const auto point = tok.find('.');
  if (point != std::string_view::npos) {
    // Decimal: parse digits around the point to keep the value exact.
    const std::string_view whole_s = tok.substr(0, point);
    const std::string_view frac_s = tok.substr(point + 1);
    if (frac_s.empty() || frac_s.size() > 12) return std::nullopt;
    const auto whole = parse_int_token(whole_s.empty() ? "0" : whole_s);
    const auto frac = parse_int_token(frac_s);
    if (!whole || !frac || *whole < 0 || *frac < 0) return std::nullopt;
    std::int64_t scale = 1;
    for (std::size_t i = 0; i < frac_s.size(); ++i) scale *= 10;
    return Rational(*whole) + Rational(*frac, scale);
  }
  const auto v = parse_int_token(tok);
  if (!v) return std::nullopt;
  return Rational(*v);
}

namespace {

constexpr std::size_t kShortestTaskLine = 9;  // "task 1 1\n"

}  // namespace

ParseResult<Instance> parse_instance_string(std::string_view text) {
  ParseResult<Instance> result;
  std::vector<Task> tasks;
  tasks.reserve(directive_line_bound(text, kShortestTaskLine));
  std::optional<Platform> platform;

  LineScanner scan(text);
  auto fail = [&](std::string msg) {
    result.error = ParseError{scan.line(), std::move(msg)};
    return result;
  };

  while (scan.read_line()) {
    const std::span<const std::string_view> tokens = scan.tokens();
    if (tokens[0] == "platform") {
      if (auto error = parse_platform_directive(tokens, &platform)) {
        return fail(*std::move(error));
      }
    } else if (tokens[0] == "task") {
      if (tokens.size() != 3) return fail("task needs <exec> <period>");
      const auto exec = parse_int_token(tokens[1]);
      const auto period = parse_int_token(tokens[2]);
      if (!exec || !period) return fail("task parameters must be integers");
      const Task t{*exec, *period};
      if (!t.valid()) return fail("task parameters must be positive");
      tasks.push_back(t);
    } else {
      return fail("unknown directive '" + std::string(tokens[0]) + "'");
    }
  }

  if (!platform.has_value()) return fail("missing platform directive");
  result.value = Instance{TaskSet(std::move(tasks)), *std::move(platform)};
  return result;
}

ParseResult<Instance> load_instance(const std::string& path) {
  return load_text_file(path, &parse_instance_string);
}

std::string format_instance(const Instance& instance) {
  std::ostringstream os;
  os << "platform";
  for (std::size_t j = 0; j < instance.platform.size(); ++j) {
    os << ' ' << instance.platform.speed_exact(j).to_string();
  }
  os << '\n';
  for (const Task& t : instance.tasks) {
    os << "task " << t.exec << ' ' << t.period << '\n';
  }
  return os.str();
}

bool save_instance(const Instance& instance, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << format_instance(instance);
  return static_cast<bool>(out);
}

}  // namespace hetsched
