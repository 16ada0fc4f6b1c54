// Tests for the churn-trace text format: grammar, validation, and exact
// round-tripping of generated traces.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>

#include "gen/churn_gen.h"
#include "io/trace_format.h"
#include "util/rng.h"

namespace hetsched {
namespace {

TEST(TraceFormat, ParsesMinimalTrace) {
  const auto r = parse_trace_string(
      "# comment\n"
      "platform 1 3/2\n"
      "arrive 0.5 0 2 10\n"
      "arrive 1.5 1 9 20\n"
      "depart 2.5 0\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value->platform.size(), 2u);
  ASSERT_EQ(r.value->trace.events.size(), 3u);
  EXPECT_EQ(r.value->trace.arrivals, 2u);
  EXPECT_EQ(r.value->trace.events[0].kind, ChurnEvent::Kind::kArrival);
  EXPECT_EQ(r.value->trace.events[0].params.exec, 2);
  EXPECT_EQ(r.value->trace.events[2].kind, ChurnEvent::Kind::kDeparture);
  EXPECT_EQ(r.value->trace.events[2].task, 0u);
}

TEST(TraceFormat, TasksMayStayResident) {
  const auto r = parse_trace_string("platform 1\narrive 1 0 1 4\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value->trace.arrivals, 1u);
}

TEST(TraceFormat, ErrorsCarryLineNumbers) {
  struct Case {
    const char* text;
    const char* want;  // substring of the error message
    std::size_t line;
  };
  const Case cases[] = {
      {"arrive 1 0 1 4\n", "missing platform", 1},
      {"platform 1\nplatform 1\n", "duplicate platform", 2},
      {"platform 1\narrive 2 0 1 4\narrive 1 1 1 4\n", "non-decreasing", 3},
      {"platform 1\narrive 1 0 1 4\narrive 2 0 1 4\n", "arrives twice", 3},
      {"platform 1\ndepart 1 0\n", "not resident", 2},
      {"platform 1\narrive 1 0 1 4\ndepart 2 0\ndepart 3 0\n", "not resident",
       4},
      {"platform 1\narrive x 0 1 4\n", "bad time", 2},
      {"platform 1\narrive 1 0 0 4\n", "positive", 2},
      {"platform 1\narrive 1 0 1\n", "arrive needs", 2},
      {"platform 0\n", "positive", 1},
      {"platform 1\nfrobnicate\n", "unknown directive", 2},
      // Non-finite times must be rejected outright: NaN would also slip
      // past the non-decreasing check (NaN < x is false for every x).
      {"platform 1\narrive nan 0 1 4\n", "bad time", 2},
      {"platform 1\narrive inf 0 1 4\n", "bad time", 2},
      {"platform 1\narrive 1 0 1 4\ndepart nan 0\n", "bad time", 3},
      {"platform 1\narrive 1 -3 1 4\n", "bad task number", 2},
      {"platform 1\narrive 1 0 1 4\ndepart 2 -1\n", "bad task number", 3},
      {"platform 1\narrive 1 0 -1 4\n", "positive", 2},
      {"platform 1\narrive 1 0 1 4\ndepart 2\n", "depart needs", 3},
      {"platform 1\narrive 1 0\n", "arrive needs", 2},
      // A sixth token is an optional constrained deadline; a seventh is
      // still an arity error, and the deadline must lie in (0, period].
      {"platform 1\narrive 1 0 1 4 3 7\n", "arrive needs", 2},
      {"platform 1\narrive 1 0 1 4 9\n", "deadline", 2},
      {"platform 1\narrive 1 0 1 4 0\n", "deadline", 2},
      {"platform 1\narrive 1 0 1 4 -2\n", "deadline", 2},
  };
  for (const Case& c : cases) {
    const auto r = parse_trace_string(c.text);
    ASSERT_FALSE(r.ok()) << c.text;
    EXPECT_EQ(r.error->line, c.line) << c.text;
    EXPECT_NE(r.error->message.find(c.want), std::string::npos)
        << "got: " << r.error->message;
  }
}

TEST(TraceFormat, ParsesOptionalDeadlineColumn) {
  const auto r = parse_trace_string(
      "platform 1\n"
      "arrive 0.5 0 2 10 6\n"   // constrained: D = 6 < T = 10
      "arrive 1.5 1 3 12\n"     // implicit (no column)
      "arrive 2.5 2 4 8 8\n");  // explicit D == T, kept verbatim
  ASSERT_TRUE(r.ok()) << r.error->to_string();
  ASSERT_EQ(r.value->trace.events.size(), 3u);
  EXPECT_EQ(r.value->trace.events[0].params.deadline, 6);
  EXPECT_EQ(r.value->trace.events[0].params.effective_deadline(), 6);
  EXPECT_EQ(r.value->trace.events[1].params.deadline, 0);
  EXPECT_EQ(r.value->trace.events[1].params.effective_deadline(), 12);
  EXPECT_EQ(r.value->trace.events[2].params.deadline, 8);
}

// Legacy traces (no deadline column anywhere) must format byte-for-byte
// as before the column existed: the column is emitted only when set.
TEST(TraceFormat, ImplicitTasksOmitDeadlineColumn) {
  ChurnInstance inst;
  inst.platform = Platform::from_speeds({1.0});
  ChurnEvent ev;
  ev.kind = ChurnEvent::Kind::kArrival;
  ev.time = 1.0;
  ev.task = 0;
  ev.params = Task{2, 10};
  inst.trace.events.push_back(ev);
  inst.trace.arrivals = 1;
  const std::string text = format_trace(inst);
  EXPECT_NE(text.find("arrive 1 0 2 10\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("arrive 1 0 2 10 "), std::string::npos) << text;

  ev.params = Task{2, 10, 7};
  inst.trace.events[0] = ev;
  EXPECT_NE(format_trace(inst).find("arrive 1 0 2 10 7\n"), std::string::npos);
}

TEST(TraceFormat, GeneratedTraceRoundTripsExactly) {
  ChurnSpec spec;
  spec.arrivals = 100;
  Rng rng(11);
  ChurnInstance inst;
  inst.platform = Platform::from_speeds({1.0, 1.5, 2.25});
  inst.trace = generate_churn_trace(rng, spec);

  const auto r = parse_trace_string(format_trace(inst));
  ASSERT_TRUE(r.ok()) << r.error->to_string();
  EXPECT_EQ(r.value->platform.size(), 3u);
  ASSERT_EQ(r.value->trace.events.size(), inst.trace.events.size());
  EXPECT_EQ(r.value->trace.arrivals, inst.trace.arrivals);
  for (std::size_t i = 0; i < inst.trace.events.size(); ++i) {
    const ChurnEvent& a = inst.trace.events[i];
    const ChurnEvent& b = r.value->trace.events[i];
    EXPECT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.time, b.time) << "event " << i;  // bitwise: max_digits10
    EXPECT_EQ(a.task, b.task) << "event " << i;
    if (a.kind == ChurnEvent::Kind::kArrival) {
      EXPECT_EQ(a.params, b.params) << "event " << i;
    }
  }
}

// Property: format -> parse is the identity on generated traces, across
// many seeds and churn shapes (short/long, slow/fast departure mixes).
TEST(TraceFormat, RandomizedRoundTripProperty) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    ChurnSpec spec;
    spec.arrivals = 20 + 15 * (seed % 5);
    spec.arrival_rate = 0.25 * static_cast<double>(1 + seed % 4);
    Rng rng(seed * 0x9E3779B9ULL);
    ChurnInstance inst;
    inst.platform =
        Platform::from_speeds({1.0, 1.0 + 0.5 * static_cast<double>(seed % 3)});
    inst.trace = generate_churn_trace(rng, spec);

    const std::string text = format_trace(inst);
    const auto r = parse_trace_string(text);
    ASSERT_TRUE(r.ok()) << "seed " << seed << ": " << r.error->to_string();
    ASSERT_EQ(r.value->trace.events.size(), inst.trace.events.size())
        << "seed " << seed;
    EXPECT_EQ(r.value->trace.arrivals, inst.trace.arrivals) << "seed " << seed;
    for (std::size_t i = 0; i < inst.trace.events.size(); ++i) {
      const ChurnEvent& a = inst.trace.events[i];
      const ChurnEvent& b = r.value->trace.events[i];
      ASSERT_EQ(a.kind, b.kind) << "seed " << seed << " event " << i;
      ASSERT_EQ(a.time, b.time) << "seed " << seed << " event " << i;
      ASSERT_EQ(a.task, b.task) << "seed " << seed << " event " << i;
      if (a.kind == ChurnEvent::Kind::kArrival) {
        ASSERT_EQ(a.params, b.params) << "seed " << seed << " event " << i;
      }
    }
    // And the second generation is byte-stable: format(parse(format(x)))
    // == format(x), so traces survive repeated edit/save cycles.
    EXPECT_EQ(format_trace(*r.value), text) << "seed " << seed;
  }
}

// Same property over constrained traces: a mixed implicit/explicit
// deadline column survives format -> parse -> format byte-for-byte, and
// Task::operator== (which includes the deadline) holds event-by-event.
TEST(TraceFormat, ConstrainedRoundTripProperty) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    ChurnSpec spec;
    spec.arrivals = 30 + 10 * (seed % 4);
    spec.constrained_fraction = 0.25 * static_cast<double>(1 + seed % 4);
    spec.deadline_ratio_lo = 0.3;
    spec.deadline_ratio_hi = 1.0;
    Rng rng(seed * 0xD1B54A32D192ED03ULL);
    ChurnInstance inst;
    inst.platform = Platform::from_speeds({1.0, 2.0});
    inst.trace = generate_churn_trace(rng, spec);

    bool saw_constrained = false;
    for (const ChurnEvent& ev : inst.trace.events) {
      if (ev.kind == ChurnEvent::Kind::kArrival && ev.params.deadline != 0) {
        saw_constrained = true;
      }
    }
    if (spec.constrained_fraction >= 0.5) {
      EXPECT_TRUE(saw_constrained) << "seed " << seed;
    }

    const std::string text = format_trace(inst);
    const auto r = parse_trace_string(text);
    ASSERT_TRUE(r.ok()) << "seed " << seed << ": " << r.error->to_string();
    ASSERT_EQ(r.value->trace.events.size(), inst.trace.events.size());
    for (std::size_t i = 0; i < inst.trace.events.size(); ++i) {
      const ChurnEvent& a = inst.trace.events[i];
      const ChurnEvent& b = r.value->trace.events[i];
      ASSERT_EQ(a.kind, b.kind) << "seed " << seed << " event " << i;
      if (a.kind == ChurnEvent::Kind::kArrival) {
        ASSERT_EQ(a.params, b.params) << "seed " << seed << " event " << i;
      }
    }
    EXPECT_EQ(format_trace(*r.value), text) << "seed " << seed;
  }
}

// The deadline knobs default off and must not perturb the RNG stream:
// a legacy spec generates bit-identical traces with and without the
// fields compiled in (guarded draws), pinned by a golden comparison of
// two generators at the same seed.
TEST(TraceFormat, LegacySpecUnchangedByDeadlineKnobs) {
  ChurnSpec legacy;
  legacy.arrivals = 64;
  ChurnSpec zeroed = legacy;
  zeroed.constrained_fraction = 0.0;  // explicit zero, same meaning
  Rng r1(77), r2(77);
  const ChurnTrace a = generate_churn_trace(r1, legacy);
  const ChurnTrace b = generate_churn_trace(r2, zeroed);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].time, b.events[i].time) << i;
    EXPECT_EQ(a.events[i].params, b.events[i].params) << i;
    EXPECT_EQ(a.events[i].params.deadline, 0) << i;
  }
}

// A directory opens but cannot be read: the loader must say so instead
// of parsing the failed read as an empty trace ("missing platform").
TEST(TraceFormat, LoadDirectoryIsAReadError) {
  const std::string dir = ::testing::TempDir();
  const auto r = load_trace(dir);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error->line, 0u);
  EXPECT_EQ(r.error->message,
            "cannot read '" + dir + "': " + std::strerror(EISDIR));
}

TEST(TraceFormat, LoadRoundTripsThroughAFile) {
  ChurnSpec spec;
  spec.arrivals = 500;
  Rng rng(5);
  ChurnInstance inst;
  inst.platform = Platform::from_speeds({1.0, 2.0});
  inst.trace = generate_churn_trace(rng, spec);
  const std::string path = ::testing::TempDir() + "/hetsched_trace_io.txt";
  ASSERT_TRUE(save_trace(inst, path));
  const auto r = load_trace(path);
  std::remove(path.c_str());
  ASSERT_TRUE(r.ok()) << r.error->to_string();
  EXPECT_EQ(format_trace(*r.value), format_trace(inst));
}

TEST(TraceFormat, LoadReportsMissingFile) {
  const auto r = load_trace("/nonexistent/path/trace.txt");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error->message.find("cannot open"), std::string::npos);
}

// ----------------------------------------------------------------------
// Lexical corners shared with the instance grammar (io/text_format.h),
// pinned so that the scanner behind parse_trace_string must keep them.

TEST(TraceFormat, CrlfLineEndsParse) {
  const auto r = parse_trace_string(
      "platform 1 3/2\r\narrive 0.5 0 2 10\r\narrive 1 1 3 12 6\r\n"
      "depart 2 0\r\n");
  ASSERT_TRUE(r.ok()) << r.error->to_string();
  ASSERT_EQ(r.value->trace.events.size(), 3u);
  EXPECT_EQ(r.value->trace.events[1].params, (Task{3, 12, 6}));
  EXPECT_EQ(r.value->trace.events[2].task, 0u);
  EXPECT_EQ(r.value->trace.events[2].time, 2.0);
}

TEST(TraceFormat, LastLineWithoutNewline) {
  const auto r = parse_trace_string("platform 1\narrive 1 0 1 4\ndepart 2 0");
  ASSERT_TRUE(r.ok()) << r.error->to_string();
  ASSERT_EQ(r.value->trace.events.size(), 2u);
  EXPECT_EQ(r.value->trace.events[1].kind, ChurnEvent::Kind::kDeparture);

  const auto bad = parse_trace_string("platform 1\narrive 1 0 1 4\ndepart 2");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error->line, 3u);
  EXPECT_EQ(bad.error->message, "depart needs <time> <task>");
}

TEST(TraceFormat, EveryCLocaleSpaceSeparatesTokens) {
  const auto r = parse_trace_string(
      "platform\v1\f2\r\n"
      "\tarrive\t0.25 \v 0\f3\r10\t5 \n"
      " depart\f1\v0\r\n");
  ASSERT_TRUE(r.ok()) << r.error->to_string();
  EXPECT_EQ(r.value->platform.size(), 2u);
  ASSERT_EQ(r.value->trace.events.size(), 2u);
  EXPECT_EQ(r.value->trace.events[0].time, 0.25);
  EXPECT_EQ(r.value->trace.events[0].params, (Task{3, 10, 5}));
  EXPECT_EQ(r.value->trace.events[1].time, 1.0);
}

TEST(TraceFormat, HashCutsTheLineEvenInsideAToken) {
  const auto r =
      parse_trace_string("platform 2#3\narrive 1 0 1 4#5\ndepart 2 0#\n");
  ASSERT_TRUE(r.ok()) << r.error->to_string();
  EXPECT_EQ(r.value->platform.size(), 1u);
  ASSERT_EQ(r.value->trace.events.size(), 2u);
  EXPECT_EQ(r.value->trace.events[0].params, (Task{1, 4}));

  const auto bad = parse_trace_string("platform 1\narrive 1 0 1#4\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error->line, 2u);
  EXPECT_EQ(bad.error->message,
            "arrive needs <time> <task> <exec> <period> [<deadline>]");
}

TEST(TraceFormat, BlankAndCommentOnlyLinesStillCount) {
  const auto r = parse_trace_string(
      "# header\n\n \t\nplatform 1\n#\n\r\narrive 1 0 1 4\n  # x\n");
  ASSERT_TRUE(r.ok()) << r.error->to_string();
  EXPECT_EQ(r.value->trace.events.size(), 1u);

  const auto bad = parse_trace_string(
      "\n# c\nplatform 1\n\narrive 1 0 1 4\n\n# y\n\ndepart 0.5 0\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error->line, 9u);
  EXPECT_EQ(bad.error->message, "event times must be non-decreasing");
}

TEST(TraceFormat, EmbeddedNulIsAnErrorAtItsLine) {
  const std::string glued("platform 1\narrive 1 0 1\0 4\n", 26);
  const auto r = parse_trace_string(glued);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error->line, 2u);
  EXPECT_EQ(r.error->message, "task parameters must be integers");

  const std::string in_time("platform 1\n\narrive 1\0 0 1 4\n", 27);
  const auto r2 = parse_trace_string(in_time);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.error->line, 3u);
  EXPECT_EQ(r2.error->message, std::string("bad time '1\0'", 13));

  const std::string commented("platform 1 # \0\n", 15);
  EXPECT_TRUE(parse_trace_string(commented).ok());
}

TEST(TraceFormat, PlatformWith1024Speeds) {
  std::string speeds;
  for (int j = 1; j <= 1024; ++j) speeds += " " + std::to_string(j);
  const auto r =
      parse_trace_string("arrive 1 0 1 4\nplatform" + speeds + "\n");
  ASSERT_TRUE(r.ok()) << r.error->to_string();
  ASSERT_EQ(r.value->platform.size(), 1024u);
  for (std::size_t j = 0; j < 1024; ++j) {
    EXPECT_EQ(r.value->platform.speed_exact(j),
              Rational(static_cast<std::int64_t>(j + 1)))
        << j;
  }
  const auto bad = parse_trace_string("platform" + speeds + " x\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error->line, 1u);
  EXPECT_EQ(bad.error->message, "bad speed 'x'");
}

TEST(TraceFormat, EveryRejectionCarriesItsLineAndMessage) {
  struct Case {
    const char* text;
    std::size_t line;
    const char* message;
  };
  const Case cases[] = {
      {"", 0, "missing platform directive"},
      {"arrive 1 0 1 4\n\n", 2, "missing platform directive"},
      {"arrive 1 0 1 4", 1, "missing platform directive"},
      {"platform 1\nplatform 1\n", 2, "duplicate platform directive"},
      {"platform\n", 1, "platform needs at least one speed"},
      {"platform 1 slow\n", 1, "bad speed 'slow'"},
      {"platform 3/0\n", 1, "bad speed '3/0'"},
      {"platform -2\n", 1, "speed must be positive: '-2'"},
      {"platform 1\narrive 1 0 1\n", 2,
       "arrive needs <time> <task> <exec> <period> [<deadline>]"},
      {"platform 1\narrive 1 0 1 4 3 7\n", 2,
       "arrive needs <time> <task> <exec> <period> [<deadline>]"},
      {"platform 1\narrive x 0 1 4\n", 2, "bad time 'x'"},
      {"platform 1\narrive nan 0 1 4\n", 2, "bad time 'nan'"},
      {"platform 1\narrive 1e999 0 1 4\n", 2, "bad time '1e999'"},
      {"platform 1\narrive 1 -3 1 4\n", 2, "bad task number '-3'"},
      {"platform 1\narrive 1 t 1 4\n", 2, "bad task number 't'"},
      {"platform 1\narrive 1 0 a 4\n", 2, "task parameters must be integers"},
      {"platform 1\narrive 1 0 1 4 d\n", 2, "task parameters must be integers"},
      {"platform 1\narrive 1 0 1 4 9\n", 2,
       "deadline must satisfy 0 < d <= period"},
      {"platform 1\narrive 2 0 1 4\narrive 1 1 1 4\n", 3,
       "event times must be non-decreasing"},
      {"platform 1\narrive 1 0 0 4\n", 2, "task parameters must be positive"},
      {"platform 1\narrive 1 0 1 4\narrive 2 0 1 4\n", 3,
       "task 0 arrives twice"},
      {"platform 1\narrive 1 007 1 4\narrive 2 7 1 4\n", 3,
       "task 7 arrives twice"},
      {"platform 1\ndepart 1 0\n", 2,
       "depart of task 0 which is not resident"},
      {"platform 1\ndepart 1 0 0\n", 2, "depart needs <time> <task>"},
      {"platform 1\ndepart y 0\n", 2, "bad time 'y'"},
      {"platform 1\ndepart 1 -1\n", 2, "bad task number '-1'"},
      {"platform 1\narrive 1 0 1 4\r\n\r\ndepart 0 0\r\n", 4,
       "event times must be non-decreasing"},
      {"platform 1\nleave 1 0\n", 2, "unknown directive 'leave'"},
  };
  for (const Case& c : cases) {
    const auto r = parse_trace_string(c.text);
    ASSERT_FALSE(r.ok()) << c.text;
    EXPECT_EQ(r.error->line, c.line) << c.text;
    EXPECT_EQ(r.error->message, c.message) << c.text;
  }
}

// format(parse(format(x))) == format(x) on a 200k-event trace, the size
// `hetsched_cli replay` loads in the churn experiments.
TEST(TraceFormat, LargeTraceRoundTripIsAFixedPoint) {
  ChurnSpec spec;
  spec.arrivals = 100000;
  spec.constrained_fraction = 0.25;
  Rng rng(99);
  ChurnInstance inst;
  inst.platform = Platform::from_speeds({1.0, 1.5, 2.25, 4.0});
  inst.trace = generate_churn_trace(rng, spec);
  ASSERT_GE(inst.trace.events.size(), 190000u);

  const std::string text = format_trace(inst);
  const auto r = parse_trace_string(text);
  ASSERT_TRUE(r.ok()) << r.error->to_string();
  ASSERT_EQ(r.value->trace.events.size(), inst.trace.events.size());
  EXPECT_EQ(r.value->trace.arrivals, inst.trace.arrivals);
  for (std::size_t i = 0; i < inst.trace.events.size(); ++i) {
    const ChurnEvent& a = inst.trace.events[i];
    const ChurnEvent& b = r.value->trace.events[i];
    ASSERT_EQ(a.kind, b.kind) << i;
    ASSERT_EQ(a.time, b.time) << i;
    ASSERT_EQ(a.task, b.task) << i;
    if (a.kind == ChurnEvent::Kind::kArrival) {
      ASSERT_EQ(a.params, b.params) << i;
    }
  }
  EXPECT_EQ(format_trace(*r.value), text);
}

}  // namespace
}  // namespace hetsched
