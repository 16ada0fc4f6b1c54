// Proves that the warm decision paths perform no heap allocation for the
// slack-form admission kinds: after warm-up, OnlinePartitioner's admit()
// and depart(), and the batch first_fit_accepts / min_feasible_alpha
// through a caller-owned PartitionScratch; and that the text instance
// parser allocates a constant number of times, not once per line.  This
// lives in its own test binary because it replaces global operator new —
// instrumenting every other suite with the counter would be noise.
//
// Methodology: admit a full wave (warm-up grows the slot arena, the
// per-machine resident lists, and the free list via the departures), depart
// everything, then admit the same wave again and assert the allocation
// counter did not move.  The second wave reuses freed slots LIFO and lands
// on the same machines (same canonical state), so no vector regrows.  The
// batch test repeats one call sequence and asserts the same of the second
// round.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "io/text_format.h"
#include "online/online_partitioner.h"
#include "partition/audit.h"
#include "partition/first_fit.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every replaceable form that the replaced deletes pair with is replaced
// too: std::stable_sort's temporary buffer comes from the nothrow form, and
// leaving that one to the runtime would both hide the allocation from the
// counter and free a block with a deallocator that did not make it (ASan
// reports alloc-dealloc-mismatch).
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace hetsched {
namespace {

std::vector<Task> wave() {
  // Mixed utilizations so the wave spreads over several machines.
  std::vector<Task> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.push_back(Task{1 + (i * 7) % 9, 10 + (i * 13) % 90});
  }
  return tasks;
}

class AllocTest : public ::testing::TestWithParam<AdmissionKind> {};

TEST_P(AllocTest, WarmAdmitAndDepartAreAllocationFree) {
  const AdmissionKind kind = GetParam();
  for (const PartitionEngine engine :
       {PartitionEngine::kNaive, PartitionEngine::kSegmentTree}) {
    OnlinePartitioner c(Platform::identical(8), kind, 2.0, engine);
    const std::vector<Task> tasks = wave();
    c.reserve(tasks.size());

    // Warm-up: admit everything, then depart everything (grows free list).
    std::vector<OnlineTaskId> ids;
    ids.reserve(tasks.size());
    for (const Task& t : tasks) {
      const AdmitDecision d = c.admit(t);
      ASSERT_TRUE(d.admitted);
      ids.push_back(d.id);
    }
    for (const OnlineTaskId id : ids) ASSERT_TRUE(c.depart(id));

    // Measured wave: same tasks, warm controller.
    std::size_t k = 0;
    const std::size_t before = g_allocations.load();
    for (const Task& t : tasks) {
      const AdmitDecision d = c.admit(t);
      if (d.admitted) ids[k++] = d.id;
    }
    const std::size_t admit_allocs = g_allocations.load() - before;
    EXPECT_EQ(admit_allocs, 0u)
        << "engine " << (engine == PartitionEngine::kNaive ? "naive" : "tree");

    // Warm departs are allocation-free as well (free list has capacity).
    const std::size_t before_depart = g_allocations.load();
    for (std::size_t i = 0; i < k; ++i) ASSERT_TRUE(c.depart(ids[i]));
    EXPECT_EQ(g_allocations.load() - before_depart, 0u);
  }
}

// n = 4096 tasks for the radix order, with long runs whose utilizations
// are the same double (1/3) but not the same rational: k/3k and k/(3k+1)
// for k near 2.5e15 (operands below 2^53 convert exactly).  Only the exact
// repair of the order separates them.
TaskSet mixed_rational_set() {
  std::vector<Task> tasks;
  tasks.reserve(4096);
  for (std::int64_t i = 0; i < 4096; ++i) {
    switch (i % 8) {
      case 0:
        tasks.push_back(Task{1 + i, 3 * (1 + i)});
        break;
      case 1: {
        const std::int64_t k = 2'500'000'000'000'000 + 1000 * i;
        tasks.push_back(Task{k, 3 * k + 1});
        break;
      }
      default:
        tasks.push_back(Task{1 + (i * 7) % 50, 1000 + (i * 13) % 1000});
        break;
    }
  }
  return TaskSet(std::move(tasks));
}

TEST_P(AllocTest, BatchAcceptsAreAllocationFreeWhenWarm) {
#if HETSCHED_AUDIT_ENABLED
  GTEST_SKIP() << "audit builds replay every decision into fresh oracles";
#endif
  const AdmissionKind kind = GetParam();
  const TaskSet tasks = mixed_rational_set();
  const Platform platform = Platform::identical(128);
  PartitionScratch scratch;
  const auto run = [&] {
    const bool accepted =
        first_fit_accepts(tasks, platform, kind, 2.0, scratch);
    const std::optional<double> alpha =
        min_feasible_alpha(tasks, platform, kind, 8.0, scratch);
    return std::pair{accepted, alpha};
  };
  const auto warm = run();
  // The bisection must actually probe several alphas.
  ASSERT_TRUE(warm.second.has_value());
  EXPECT_GT(*warm.second, 1.0);

  const std::size_t before = g_allocations.load();
  const auto again = run();
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(again, warm);
}

INSTANTIATE_TEST_SUITE_P(SlackFormKinds, AllocTest,
                         ::testing::Values(AdmissionKind::kEdf,
                                           AdmissionKind::kRmsLiuLayland,
                                           AdmissionKind::kRmsHyperbolic));

// The instance parser scans the text in place: its allocations are the
// result's vectors and the spill of the one wide `platform` line, never
// one per line, so the count must not grow with the number of tasks.
TEST(ParseAlloc, InstanceParseAllocationsDoNotGrowWithTasks) {
  std::size_t counts[2] = {};
  const std::size_t sizes[2] = {1024, 16384};
  for (std::size_t k = 0; k < 2; ++k) {
    std::string text = "# generated\nplatform";
    for (int j = 1; j <= 128; ++j) text += " " + std::to_string(j) + "/8";
    text += "\n";
    for (std::size_t i = 0; i < sizes[k]; ++i) {
      text += "task " + std::to_string(1 + i % 7) + " " +
              std::to_string(10 + i % 990) + "\n";
    }
    const std::size_t before = g_allocations.load();
    const ParseResult<Instance> parsed = parse_instance_string(text);
    counts[k] = g_allocations.load() - before;
    ASSERT_TRUE(parsed.ok());
    ASSERT_EQ(parsed.value->tasks.size(), sizes[k]);
    ASSERT_EQ(parsed.value->platform.size(), 128u);
  }
  EXPECT_LE(counts[1], 32u);
  EXPECT_EQ(counts[1], counts[0]);
}

TEST(AllocCounter, CountsAtAll) {
  // Sanity-check the instrumentation itself: a vector growth must count.
  const std::size_t before = g_allocations.load();
  std::vector<int>* v = new std::vector<int>(100);
  delete v;
  EXPECT_GT(g_allocations.load(), before);
}

}  // namespace
}  // namespace hetsched
