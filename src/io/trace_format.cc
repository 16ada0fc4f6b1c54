#include "io/trace_format.h"

#include <cstddef>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "io/line_scanner.h"

namespace hetsched {

namespace {

constexpr std::size_t kShortestEventLine = 11;  // "depart 0 0\n"

}  // namespace

ParseResult<ChurnInstance> parse_trace_string(std::string_view text) {
  ParseResult<ChurnInstance> result;
  std::optional<Platform> platform;
  ChurnTrace trace;
  trace.events.reserve(directive_line_bound(text, kShortestEventLine));
  // Every task number that arrived, mapped to whether it is resident.
  std::unordered_map<std::uint64_t, bool> resident;
  resident.reserve(trace.events.capacity());
  double last_time = -std::numeric_limits<double>::infinity();

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
    } else if (tokens[0] == "arrive") {
      if (tokens.size() != 5 && tokens.size() != 6) {
        return fail("arrive needs <time> <task> <exec> <period> [<deadline>]");
      }
      const auto time = parse_double_token(tokens[1]);
      const auto task = parse_int_token(tokens[2]);
      const auto exec = parse_int_token(tokens[3]);
      const auto period = parse_int_token(tokens[4]);
      if (!time) return fail("bad time '" + std::string(tokens[1]) + "'");
      if (!task || *task < 0) {
        return fail("bad task number '" + std::string(tokens[2]) + "'");
      }
      if (!exec || !period) return fail("task parameters must be integers");
      // Missing column = implicit deadline: the legacy 4-column form.
      std::int64_t deadline = 0;
      if (tokens.size() == 6) {
        const auto d = parse_int_token(tokens[5]);
        if (!d) return fail("task parameters must be integers");
        if (*d <= 0 || *d > *period) {
          return fail("deadline must satisfy 0 < d <= period");
        }
        deadline = *d;
      }
      if (*time < last_time) return fail("event times must be non-decreasing");
      const Task params{*exec, *period, deadline};
      if (!params.valid()) return fail("task parameters must be positive");
      const auto id = static_cast<std::uint64_t>(*task);
      if (!resident.try_emplace(id, true).second) {
        return fail("task " + std::string(tokens[2]) + " arrives twice");
      }
      last_time = *time;
      ChurnEvent ev;
      ev.kind = ChurnEvent::Kind::kArrival;
      ev.time = *time;
      ev.task = id;
      ev.params = params;
      trace.events.push_back(ev);
    } else if (tokens[0] == "depart") {
      if (tokens.size() != 3) return fail("depart needs <time> <task>");
      const auto time = parse_double_token(tokens[1]);
      const auto task = parse_int_token(tokens[2]);
      if (!time) return fail("bad time '" + std::string(tokens[1]) + "'");
      if (!task || *task < 0) {
        return fail("bad task number '" + std::string(tokens[2]) + "'");
      }
      if (*time < last_time) return fail("event times must be non-decreasing");
      const auto id = static_cast<std::uint64_t>(*task);
      const auto it = resident.find(id);
      if (it == resident.end() || !it->second) {
        return fail("depart of task " + std::string(tokens[2]) +
                    " which is not resident");
      }
      it->second = false;
      last_time = *time;
      ChurnEvent ev;
      ev.kind = ChurnEvent::Kind::kDeparture;
      ev.time = *time;
      ev.task = id;
      trace.events.push_back(ev);
    } else {
      return fail("unknown directive '" + std::string(tokens[0]) + "'");
    }
  }

  if (!platform.has_value()) return fail("missing platform directive");
  trace.arrivals = resident.size();
  result.value = ChurnInstance{*std::move(platform), std::move(trace)};
  return result;
}

ParseResult<ChurnInstance> load_trace(const std::string& path) {
  return load_text_file(path, &parse_trace_string);
}

std::string format_trace(const ChurnInstance& instance) {
  std::ostringstream os;
  os << "platform";
  for (std::size_t j = 0; j < instance.platform.size(); ++j) {
    os << ' ' << instance.platform.speed_exact(j).to_string();
  }
  os << '\n';
  os.precision(std::numeric_limits<double>::max_digits10);
  for (const ChurnEvent& ev : instance.trace.events) {
    if (ev.kind == ChurnEvent::Kind::kArrival) {
      os << "arrive " << ev.time << ' ' << ev.task << ' ' << ev.params.exec
         << ' ' << ev.params.period;
      // Emitted only when explicit so legacy traces round-trip byte-exactly.
      if (ev.params.deadline != 0) os << ' ' << ev.params.deadline;
      os << '\n';
    } else {
      os << "depart " << ev.time << ' ' << ev.task << '\n';
    }
  }
  return os.str();
}

bool save_trace(const ChurnInstance& instance, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << format_trace(instance);
  return static_cast<bool>(out);
}

}  // namespace hetsched
