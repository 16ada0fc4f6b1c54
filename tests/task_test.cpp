// Unit tests for the task model (core/task.h).
#include "core/task.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "util/int128.h"
#include "util/rng.h"

namespace hetsched {
namespace {

TEST(Task, UtilizationDoubleAndExactAgree) {
  const Task t{3, 12};
  EXPECT_DOUBLE_EQ(t.utilization(), 0.25);
  EXPECT_EQ(t.utilization_exact(), Rational(1, 4));
}

TEST(Task, ValidityChecks) {
  EXPECT_TRUE((Task{1, 1}).valid());
  EXPECT_FALSE((Task{0, 5}).valid());
  EXPECT_FALSE((Task{5, 0}).valid());
  EXPECT_FALSE((Task{-1, 5}).valid());
}

TEST(TaskSet, TotalUtilization) {
  const TaskSet ts({{1, 4}, {1, 2}, {1, 4}});
  EXPECT_DOUBLE_EQ(ts.total_utilization(), 1.0);
  EXPECT_EQ(ts.total_utilization_exact(), Rational(1));
}

TEST(TaskSet, MaxUtilization) {
  const TaskSet ts({{1, 10}, {3, 4}, {1, 2}});
  EXPECT_DOUBLE_EQ(ts.max_utilization(), 0.75);
}

TEST(TaskSet, EmptySet) {
  const TaskSet ts;
  EXPECT_TRUE(ts.empty());
  EXPECT_DOUBLE_EQ(ts.total_utilization(), 0.0);
  EXPECT_DOUBLE_EQ(ts.max_utilization(), 0.0);
  EXPECT_TRUE(ts.order_by_utilization_desc().empty());
}

TEST(TaskSet, OrderByUtilizationDescending) {
  const TaskSet ts({{1, 10}, {1, 2}, {1, 4}});  // w = .1, .5, .25
  const auto order = ts.order_by_utilization_desc();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 0u);
}

TEST(TaskSet, OrderBreaksTiesByIndex) {
  // Equal utilizations expressed with different integers: 2/4 == 1/2.
  const TaskSet ts({{2, 4}, {1, 2}, {3, 6}});
  const auto order = ts.order_by_utilization_desc();
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(TaskSet, OrderIsExactNotFloating) {
  // (10^9+1)/(3*10^9+3) > 10^9/(3*10^9+2)? Left = 1/3 exactly; right is
  // slightly less.  (Doubles do distinguish this pair; the radix-path test
  // below covers pairs that only the exact comparison separates.)
  const TaskSet ts({{1'000'000'000, 3'000'000'002},
                    {1'000'000'001, 3'000'000'003}});
  const auto order = ts.order_by_utilization_desc();
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 0u);
}

// The definition of the canonical order: a stable sort under the exact
// rational comparison, so equal rationals keep index order.
std::vector<std::size_t> reference_order(const TaskSet& ts) {
  std::vector<std::size_t> order(ts.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&ts](std::size_t a, std::size_t b) {
                     return static_cast<int128>(ts[a].exec) * ts[b].period >
                            static_cast<int128>(ts[b].exec) * ts[a].period;
                   });
  return order;
}

TEST(TaskSet, OrderMatchesExactStableSortAcrossRadixThreshold) {
  // n >= 128 takes the radix path.  Mix plain random tasks with
  //  * equal rationals k/2k and k/3k: one double, index order must survive;
  //  * k/(3k+1) for k in [2.5e15, 2.95e15]: slightly below 1/3 and
  //    distinct for each k, yet the same double as 1/3 (all operands stay
  //    below 2^53, so they convert exactly) — runs the radix passes leave
  //    in index order and only the exact repair can reorder;
  //  * the OrderIsExactNotFloating pair.
  for (const std::size_t n : {127u, 128u, 129u, 4096u, 16384u}) {
    Rng rng(0x0D3E + n);
    std::vector<Task> tasks;
    tasks.reserve(n);
    std::size_t double_equal_distinct = 0;
    while (tasks.size() < n) {
      switch (rng.uniform_int(0, 7)) {
        case 0: {
          const std::int64_t k = rng.uniform_int(1, 1000);
          tasks.push_back({k, 2 * k});
          break;
        }
        case 1: {
          const std::int64_t k = rng.uniform_int(1, 1000);
          tasks.push_back({k, 3 * k});
          break;
        }
        case 2: {
          const std::int64_t k =
              rng.uniform_int(2'500'000'000'000'000, 2'950'000'000'000'000);
          tasks.push_back({k, 3 * k + 1});
          EXPECT_EQ(tasks.back().utilization(), 1.0 / 3.0);
          ++double_equal_distinct;
          break;
        }
        case 3:
          tasks.push_back({1'000'000'000, 3'000'000'002});
          break;
        case 4:
          tasks.push_back({1'000'000'001, 3'000'000'003});
          break;
        default: {
          const std::int64_t period = rng.uniform_int(10, 1'000'000);
          tasks.push_back({rng.uniform_int(1, period), period});
          break;
        }
      }
    }
    ASSERT_GE(double_equal_distinct, 2u);
    const TaskSet ts(std::move(tasks));
    EXPECT_EQ(ts.order_by_utilization_desc(), reference_order(ts))
        << "n=" << n;
  }
}

// A task whose utilization is exactly the double `u`, u in [2^-10, 1):
// u = mant * 2^-s with mant < 2^53 and s <= 62, so both operands convert
// to double exactly and the rational mant/2^s is the double's own value.
Task task_with_utilization(double u) {
  int e = 0;
  const double frac = std::frexp(u, &e);  // u = frac * 2^e, e in [-9, 0]
  const auto mant = static_cast<std::int64_t>(std::ldexp(frac, 53));
  return Task{mant, std::int64_t{1} << (53 - e)};
}

// `u` with its low `bits` bits replaced by `low`: a sibling that shares
// every higher bit of the double.
double with_low_bits(double u, unsigned bits, std::uint64_t low) {
  const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
  return std::bit_cast<double>((std::bit_cast<std::uint64_t>(u) & ~mask) |
                               (low & mask));
}

TEST(TaskSet, OrderOfUtilizationsTiedOnTheTruncatedKeyInShortRuns) {
  // The radix path sorts only the 32 bits below the keys' common prefix.
  // Scatter groups of 1-4 tasks that share all but the low 30 bits of the
  // utilization (so they tie on those 32 bits), with exact duplicates, over
  // a utilization range wide enough that the prefix is short.
  for (const std::size_t n : {128u, 129u, 16384u}) {
    Rng rng(0x7A11 + n);
    std::vector<Task> tasks;
    while (tasks.size() < n) {
      const double u = rng.log_uniform(0x1p-10, 0.99);
      const auto group = static_cast<std::size_t>(rng.uniform_int(1, 4));
      for (std::size_t g = 0; g < group && tasks.size() < n; ++g) {
        const auto low =
            static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
        tasks.push_back(task_with_utilization(with_low_bits(u, 30, low)));
        if (rng.uniform_int(0, 5) == 0 && tasks.size() < n) {
          tasks.push_back(tasks.back());
        }
      }
    }
    const TaskSet ts(std::move(tasks));
    EXPECT_EQ(ts.order_by_utilization_desc(), reference_order(ts))
        << "n=" << n;
  }
}

// One run of tasks that, beside outliers, tie on every bit the radix passes
// sort: all share the top 40 bits of 1/3's double, and mix distinct
// doubles, exact duplicates, and rationals that round to the same double as
// 1/3 (k/3k, k/(3k+1) and the double 1/3 itself).
std::vector<Task> long_tied_run(Rng& rng, std::size_t n) {
  std::vector<Task> tasks;
  while (tasks.size() < n) {
    switch (rng.uniform_int(0, 9)) {
      case 0: {
        const std::int64_t k = rng.uniform_int(1, 1000);
        tasks.push_back({k, 3 * k});
        break;
      }
      case 1: {
        const std::int64_t k =
            rng.uniform_int(2'500'000'000'000'000, 2'950'000'000'000'000);
        tasks.push_back({k, 3 * k + 1});
        break;
      }
      case 2:
        tasks.push_back(task_with_utilization(1.0 / 3.0));
        break;
      case 3:
        if (!tasks.empty()) {
          tasks.push_back(tasks[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(tasks.size()) - 1))]);
        }
        break;
      default: {
        const auto low =
            static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 24));
        tasks.push_back(
            task_with_utilization(with_low_bits(1.0 / 3.0, 24, low)));
        break;
      }
    }
  }
  return tasks;
}

TEST(TaskSet, OrderOfOneLongRunTiedOnTheTruncatedKey) {
  for (const std::size_t n : {128u, 129u, 16384u}) {
    Rng rng(0x10C6 + n);
    // All n tasks in the run: the common prefix is long, so the radix
    // passes alone sort every distinct double.
    const TaskSet all(long_tied_run(rng, n));
    EXPECT_EQ(all.order_by_utilization_desc(), reference_order(all))
        << "n=" << n;
    // Two outliers at 1 and 1e-12 shorten the prefix: the other n - 2
    // tie on the top 32 bits below it, and only the run repair's sort on
    // the full key, then the exact comparison, can order them.
    std::vector<Task> tasks = long_tied_run(rng, n - 2);
    tasks.insert(tasks.begin() + static_cast<std::ptrdiff_t>(n / 2),
                 Task{1, 1'000'000'000'000});
    tasks.push_back(Task{7, 7});
    const TaskSet spread(std::move(tasks));
    EXPECT_EQ(spread.order_by_utilization_desc(), reference_order(spread))
        << "n=" << n;
  }
}

TEST(TaskSet, OrderOfUtilizationsFromOneTrillionthToOne) {
  // Utilizations log-uniform over ~1e-12..1: the keys' common prefix is
  // only a few bits, so the 32 sorted bits are mostly exponent.
  for (const std::size_t n : {128u, 129u, 16384u}) {
    Rng rng(0x1E12 + n);
    std::vector<Task> tasks;
    while (tasks.size() < n) {
      constexpr std::int64_t kPeriod = 10'000'000'000'000;
      const double u = rng.log_uniform(1e-12, 1.0);
      const auto exec = std::max<std::int64_t>(
          1, std::llround(u * static_cast<double>(kPeriod)));
      tasks.push_back({std::min(exec, kPeriod), kPeriod});
      if (rng.uniform_int(0, 7) == 0) tasks.push_back({1, 3});
    }
    tasks.resize(n);
    const TaskSet ts(std::move(tasks));
    EXPECT_EQ(ts.order_by_utilization_desc(), reference_order(ts))
        << "n=" << n;
  }
}

TEST(TaskSet, RadixOrderOfIdenticalUtilizationsIsIndexOrder) {
  // Every digit is degenerate, so every radix pass is skipped.
  const TaskSet ts(std::vector<Task>(300, Task{3, 7}));
  std::vector<std::size_t> identity(300);
  std::iota(identity.begin(), identity.end(), std::size_t{0});
  EXPECT_EQ(ts.order_by_utilization_desc(), identity);
}

TEST(TaskSet, PushBackAccumulates) {
  TaskSet ts;
  ts.push_back({1, 2});
  ts.push_back({1, 4});
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_DOUBLE_EQ(ts.total_utilization(), 0.75);
}

TEST(TaskSet, IterationAndIndexing) {
  const TaskSet ts({{1, 2}, {3, 4}});
  EXPECT_EQ(ts[1].exec, 3);
  std::size_t count = 0;
  for (const Task& t : ts) {
    EXPECT_TRUE(t.valid());
    ++count;
  }
  EXPECT_EQ(count, 2u);
}

TEST(TaskSet, ToStringMentionsSizeAndTasks) {
  const TaskSet ts({{1, 2}});
  const std::string s = ts.to_string();
  EXPECT_NE(s.find("n=1"), std::string::npos);
  EXPECT_NE(s.find("(1,2)"), std::string::npos);
}

TEST(TaskSetDeathTest, InvalidTaskAborts) {
  EXPECT_DEATH(TaskSet({{0, 1}}), "non-positive");
  TaskSet ts;
  EXPECT_DEATH(ts.push_back({1, -1}), "non-positive");
}

}  // namespace
}  // namespace hetsched
