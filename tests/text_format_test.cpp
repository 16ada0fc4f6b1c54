// Unit tests for the text interchange format (io/text_format.h).
#include "io/text_format.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "gen/platform_gen.h"
#include "gen/taskset_gen.h"
#include "util/rng.h"

namespace hetsched {
namespace {

TEST(TextFormat, ParsesMinimalInstance) {
  const auto r = parse_instance_string("platform 1 2\ntask 3 10\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value->platform.size(), 2u);
  EXPECT_EQ(r.value->tasks.size(), 1u);
  EXPECT_EQ(r.value->tasks[0], (Task{3, 10}));
}

TEST(TextFormat, ParsesRationalAndDecimalSpeeds) {
  const auto r = parse_instance_string("platform 3/2 0.25 2\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value->platform.speed_exact(0), Rational(1, 4));
  EXPECT_EQ(r.value->platform.speed_exact(1), Rational(3, 2));
  EXPECT_EQ(r.value->platform.speed_exact(2), Rational(2));
}

TEST(TextFormat, CommentsAndBlankLinesIgnored) {
  const auto r = parse_instance_string(
      "# header comment\n\nplatform 1  # trailing comment\n\ntask 1 2\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value->tasks.size(), 1u);
}

TEST(TextFormat, ZeroTasksAllowed) {
  const auto r = parse_instance_string("platform 1\n");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value->tasks.empty());
}

TEST(TextFormat, MissingPlatformIsError) {
  const auto r = parse_instance_string("task 1 2\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error->message.find("missing platform"), std::string::npos);
}

TEST(TextFormat, DuplicatePlatformIsError) {
  const auto r = parse_instance_string("platform 1\nplatform 2\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error->line, 2u);
  EXPECT_NE(r.error->message.find("duplicate"), std::string::npos);
}

TEST(TextFormat, BadSpeedReportsLine) {
  const auto r = parse_instance_string("platform 1 fast\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error->line, 1u);
  EXPECT_NE(r.error->message.find("fast"), std::string::npos);
}

TEST(TextFormat, NegativeOrZeroSpeedRejected) {
  EXPECT_FALSE(parse_instance_string("platform 0\n").ok());
  EXPECT_FALSE(parse_instance_string("platform -1\n").ok());
  EXPECT_FALSE(parse_instance_string("platform 1/0\n").ok());
}

TEST(TextFormat, BadTaskRejected) {
  EXPECT_FALSE(parse_instance_string("platform 1\ntask 1\n").ok());
  EXPECT_FALSE(parse_instance_string("platform 1\ntask 0 5\n").ok());
  EXPECT_FALSE(parse_instance_string("platform 1\ntask 1 2 3\n").ok());
  EXPECT_FALSE(parse_instance_string("platform 1\ntask a b\n").ok());
}

TEST(TextFormat, UnknownDirectiveRejected) {
  const auto r = parse_instance_string("platform 1\nmachine 2\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error->message.find("machine"), std::string::npos);
}

TEST(TextFormat, RoundTripExact) {
  const auto r = parse_instance_string("platform 3/2 1 0.25\ntask 7 11\ntask 1 2\n");
  ASSERT_TRUE(r.ok());
  const std::string text = format_instance(*r.value);
  const auto r2 = parse_instance_string(text);
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2.value->platform.size(), r.value->platform.size());
  for (std::size_t j = 0; j < r.value->platform.size(); ++j) {
    EXPECT_EQ(r2.value->platform.speed_exact(j),
              r.value->platform.speed_exact(j));
  }
  ASSERT_EQ(r2.value->tasks.size(), r.value->tasks.size());
  for (std::size_t i = 0; i < r.value->tasks.size(); ++i) {
    EXPECT_EQ(r2.value->tasks[i], r.value->tasks[i]);
  }
}

TEST(TextFormat, SaveAndLoadFile) {
  const auto r = parse_instance_string("platform 1 2\ntask 3 10\n");
  ASSERT_TRUE(r.ok());
  const std::string path = ::testing::TempDir() + "/hetsched_io_test.txt";
  ASSERT_TRUE(save_instance(*r.value, path));
  const auto loaded = load_instance(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value->tasks.size(), 1u);
  std::remove(path.c_str());
}

TEST(TextFormat, LoadMissingFileNamesPath) {
  const auto r = load_instance("/nonexistent/zzz.txt");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error->message.find("zzz.txt"), std::string::npos);
}

// A directory opens but cannot be read: the loader must say so instead
// of parsing the failed read as an empty file ("missing platform").
TEST(TextFormat, LoadDirectoryIsAReadError) {
  const std::string dir = ::testing::TempDir();
  const auto r = load_instance(dir);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error->line, 0u);
  EXPECT_EQ(r.error->message,
            "cannot read '" + dir + "': " + std::strerror(EISDIR));
}

TEST(TextFormat, LoadMissingFileGivesTheReason) {
  const auto r = load_instance("/nonexistent/zzz.txt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error->message, "cannot open '/nonexistent/zzz.txt': " +
                                  std::string(std::strerror(ENOENT)));
}

// Parse errors from a file name the path and keep the line number.
TEST(TextFormat, LoadParseErrorNamesPathAndLine) {
  const std::string path = ::testing::TempDir() + "/hetsched_io_bad.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << "platform 1\r\n\r\ntask 1 0\r\n";
  }
  const auto r = load_instance(path);
  std::remove(path.c_str());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error->line, 3u);
  EXPECT_EQ(r.error->message, path + ": task parameters must be positive");
}

TEST(TextFormat, ParseErrorToString) {
  const ParseError err{7, "boom"};
  EXPECT_EQ(err.to_string(), "line 7: boom");
}

// ----------------------------------------------------------------------
// The grammar's lexical corners, pinned so that any change to the scanner
// behind parse_instance_string must keep them: lines end at '\n' only,
// tokens split on the C-locale whitespace set, '#' cuts the rest of the
// line wherever it appears, and line numbers count every line the way
// std::getline would.

TEST(TextFormat, CrlfLineEndsParse) {
  const auto r =
      parse_instance_string("platform 1 2\r\ntask 3 10\r\ntask 1 4\r\n");
  ASSERT_TRUE(r.ok()) << r.error->to_string();
  EXPECT_EQ(r.value->platform.size(), 2u);
  ASSERT_EQ(r.value->tasks.size(), 2u);
  EXPECT_EQ(r.value->tasks[0], (Task{3, 10}));
  EXPECT_EQ(r.value->tasks[1], (Task{1, 4}));
}

TEST(TextFormat, LastLineWithoutNewline) {
  const auto r = parse_instance_string("platform 1\ntask 3 10");
  ASSERT_TRUE(r.ok()) << r.error->to_string();
  ASSERT_EQ(r.value->tasks.size(), 1u);
  EXPECT_EQ(r.value->tasks[0], (Task{3, 10}));

  const auto bad = parse_instance_string("platform 1\ntask 3");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error->line, 2u);
  EXPECT_EQ(bad.error->message, "task needs <exec> <period>");
}

TEST(TextFormat, EveryCLocaleSpaceSeparatesTokens) {
  const auto r = parse_instance_string(
      "platform\t1\v2\f3\r\n"
      " \t task \v 3\f\f10 \r\n"
      "\ttask\t1\t4\t\n");
  ASSERT_TRUE(r.ok()) << r.error->to_string();
  EXPECT_EQ(r.value->platform.size(), 3u);
  EXPECT_EQ(r.value->platform.speed_exact(2), Rational(3));
  ASSERT_EQ(r.value->tasks.size(), 2u);
  EXPECT_EQ(r.value->tasks[0], (Task{3, 10}));
  EXPECT_EQ(r.value->tasks[1], (Task{1, 4}));
}

TEST(TextFormat, HashCutsTheLineEvenInsideAToken) {
  const auto r = parse_instance_string("platform 1#2 3\ntask 1 2#x\n");
  ASSERT_TRUE(r.ok()) << r.error->to_string();
  EXPECT_EQ(r.value->platform.size(), 1u);
  ASSERT_EQ(r.value->tasks.size(), 1u);
  EXPECT_EQ(r.value->tasks[0], (Task{1, 2}));

  // The directive itself can be cut short.
  const auto bad = parse_instance_string("platform 1\ntask#1 2\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error->line, 2u);
  EXPECT_EQ(bad.error->message, "task needs <exec> <period>");
}

TEST(TextFormat, BlankAndCommentOnlyLinesStillCount) {
  const auto r = parse_instance_string(
      "\n# header\n   # indented\n\t\n\r\nplatform 1\n\n#\ntask 1 2\n#");
  ASSERT_TRUE(r.ok()) << r.error->to_string();
  EXPECT_EQ(r.value->tasks.size(), 1u);

  const auto bad =
      parse_instance_string("\n# c\n\nplatform 1\n \n# x\ntask 0 2\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error->line, 7u);
  EXPECT_EQ(bad.error->message, "task parameters must be positive");
}

TEST(TextFormat, EmbeddedNulIsAnErrorAtItsLine) {
  // NUL is not whitespace: it glues onto its neighbours.
  const std::string glued("platform 1\ntask 1\0 2\n", 21);
  const auto r = parse_instance_string(glued);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error->line, 2u);
  EXPECT_EQ(r.error->message, "task parameters must be integers");

  const std::string alone("platform 1\n\n\0\n", 14);
  const auto r2 = parse_instance_string(alone);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.error->line, 3u);
  EXPECT_EQ(r2.error->message, std::string("unknown directive '\0'", 21));

  // Inside a comment it is ignored like any other byte.
  const std::string commented("platform 1 # \0 x\n", 17);
  EXPECT_TRUE(parse_instance_string(commented).ok());
}

TEST(TextFormat, PlatformWith1024Speeds) {
  std::string speeds;
  for (int j = 1024; j >= 1; --j) speeds += " " + std::to_string(j) + "/4";
  const auto r = parse_instance_string("platform" + speeds + "\ntask 1 2\n");
  ASSERT_TRUE(r.ok()) << r.error->to_string();
  ASSERT_EQ(r.value->platform.size(), 1024u);
  for (std::size_t j = 0; j < 1024; ++j) {
    EXPECT_EQ(r.value->platform.speed_exact(j),
              Rational(static_cast<std::int64_t>(j + 1), 4))
        << j;
  }
  // A bad speed at the end of a long line is still reported by value.
  const auto bad =
      parse_instance_string("# long\nplatform" + speeds + " 7/0\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error->line, 2u);
  EXPECT_EQ(bad.error->message, "bad speed '7/0'");
}

TEST(TextFormat, EveryRejectionCarriesItsLineAndMessage) {
  struct Case {
    const char* text;
    std::size_t line;
    const char* message;
  };
  const Case cases[] = {
      {"", 0, "missing platform directive"},
      {"task 1 2\n", 1, "missing platform directive"},
      {"task 1 2\n\n# tail\n", 3, "missing platform directive"},
      {"task 1 2", 1, "missing platform directive"},
      {"platform 1\nplatform 2\n", 2, "duplicate platform directive"},
      {"platform\n", 1, "platform needs at least one speed"},
      {"\nplatform # 1\n", 2, "platform needs at least one speed"},
      {"platform 1 fast\n", 1, "bad speed 'fast'"},
      {"platform 1 1/0\n", 1, "bad speed '1/0'"},
      {"platform 1.\n", 1, "bad speed '1.'"},
      {"platform 1.-5\n", 1, "bad speed '1.-5'"},
      {"platform /2\n", 1, "bad speed '/2'"},
      {"platform 1.1234567890123\n", 1, "bad speed '1.1234567890123'"},
      {"platform 0\n", 1, "speed must be positive: '0'"},
      {"platform 2 -1\n", 1, "speed must be positive: '-1'"},
      {"platform 0/3\n", 1, "speed must be positive: '0/3'"},
      {"platform 1\ntask 1\n", 2, "task needs <exec> <period>"},
      {"platform 1\ntask 1 2 3\n", 2, "task needs <exec> <period>"},
      {"platform 1\ntask a b\n", 2, "task parameters must be integers"},
      {"platform 1\ntask 1 2.5\n", 2, "task parameters must be integers"},
      {"platform 1\ntask 1 99999999999999999999\n", 2,
       "task parameters must be integers"},
      {"platform 1\ntask 0 5\n", 2, "task parameters must be positive"},
      {"platform 1\ntask 3 -5\n", 2, "task parameters must be positive"},
      {"platform 1\nmachine 2\n", 2, "unknown directive 'machine'"},
      {"platform 1\nTask 1 2\n", 2, "unknown directive 'Task'"},
      {"platform 1\ntask 1 2\r\n\r\ntask 1 0\r\n", 4,
       "task parameters must be positive"},
      {"platform 1\ntask 1 2\nplatform 1", 3, "duplicate platform directive"},
  };
  for (const Case& c : cases) {
    const auto r = parse_instance_string(c.text);
    ASSERT_FALSE(r.ok()) << c.text;
    EXPECT_EQ(r.error->line, c.line) << c.text;
    EXPECT_EQ(r.error->message, c.message) << c.text;
  }
}

// format(parse(format(x))) == format(x) on an instance of the size the
// offline benchmark loads, and the tasks and speeds come back exactly.
TEST(TextFormat, LargeInstanceRoundTripIsAFixedPoint) {
  Rng rng(2024);
  Instance inst;
  inst.platform = uniform_platform(rng, 128, 1.0, 8.0);
  TasksetSpec spec;
  spec.n = 16384;
  spec.total_utilization = 1.5 * inst.platform.total_speed();
  inst.tasks = generate_taskset(rng, spec);

  const std::string text = format_instance(inst);
  const auto r = parse_instance_string(text);
  ASSERT_TRUE(r.ok()) << r.error->to_string();
  ASSERT_EQ(r.value->tasks.size(), inst.tasks.size());
  for (std::size_t i = 0; i < inst.tasks.size(); ++i) {
    ASSERT_EQ(r.value->tasks[i], inst.tasks[i]) << i;
  }
  ASSERT_EQ(r.value->platform.size(), inst.platform.size());
  for (std::size_t j = 0; j < inst.platform.size(); ++j) {
    ASSERT_EQ(r.value->platform.speed_exact(j), inst.platform.speed_exact(j));
  }
  EXPECT_EQ(format_instance(*r.value), text);
}

}  // namespace
}  // namespace hetsched
