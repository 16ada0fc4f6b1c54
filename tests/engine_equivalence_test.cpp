// Randomized property test: the segment-tree engine is bit-identical to the
// naive machine scan, across every admission kind, accept and reject cases
// alike.  This is the contract that lets every experiment run on the fast
// path while the naive scan stays the auditable reference implementation of
// the paper's algorithm.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "e5_workload.h"
#include "gen/platform_gen.h"
#include "gen/taskset_gen.h"
#include "partition/first_fit.h"
#include "util/rng.h"

namespace hetsched {
namespace {

// EXPECT with exact (bitwise) double equality: the engines must compute the
// very same values, not merely close ones.
void expect_identical(const PartitionResult& a, const PartitionResult& b) {
  ASSERT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.alpha, b.alpha);
  ASSERT_EQ(a.assignment.size(), b.assignment.size());
  for (std::size_t i = 0; i < a.assignment.size(); ++i) {
    EXPECT_EQ(a.assignment[i], b.assignment[i]) << "task " << i;
  }
  ASSERT_EQ(a.machine_utilization.size(), b.machine_utilization.size());
  for (std::size_t j = 0; j < a.machine_utilization.size(); ++j) {
    EXPECT_EQ(a.machine_utilization[j], b.machine_utilization[j])
        << "machine " << j;
  }
  ASSERT_EQ(a.tasks_per_machine.size(), b.tasks_per_machine.size());
  for (std::size_t j = 0; j < a.tasks_per_machine.size(); ++j) {
    ASSERT_EQ(a.tasks_per_machine[j].size(), b.tasks_per_machine[j].size())
        << "machine " << j;
    for (std::size_t k = 0; k < a.tasks_per_machine[j].size(); ++k) {
      EXPECT_EQ(a.tasks_per_machine[j][k].exec, b.tasks_per_machine[j][k].exec);
      EXPECT_EQ(a.tasks_per_machine[j][k].period,
                b.tasks_per_machine[j][k].period);
    }
  }
  EXPECT_EQ(a.failed_task, b.failed_task);
  EXPECT_EQ(a.failed_utilization, b.failed_utilization);
}

Platform random_platform(Rng& rng) {
  const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 12));
  switch (rng.uniform_int(0, 2)) {
    case 0:
      return Platform::identical(m);
    case 1:
      return geometric_platform(m, rng.uniform(1.0, 2.5));
    default:
      return big_little_platform((m + 1) / 2, m / 2 + 1, 1.0,
                                 rng.uniform(1.5, 4.0));
  }
}

TaskSet random_taskset(Rng& rng, const Platform& platform, bool bounded_periods) {
  TasksetSpec spec;
  spec.n = static_cast<std::size_t>(rng.uniform_int(1, 40));
  spec.max_task_utilization = platform.max_speed();
  // Normalized load 0.4..1.15: straddles the acceptance boundary so the
  // sample contains plenty of rejections (the branchier engine path).
  const double norm = rng.uniform(0.4, 1.15);
  spec.total_utilization =
      std::min(norm * platform.total_speed(),
               0.35 * static_cast<double>(spec.n) * spec.max_task_utilization);
  spec.periods = bounded_periods ? PeriodSpec::uniform(10, 200)
                                 : PeriodSpec::log_uniform(10, 1000);
  return generate_taskset(rng, spec);
}

TEST(EngineEquivalence, SlackFormKindsBitIdenticalOverRandomInstances) {
  const AdmissionKind kinds[] = {AdmissionKind::kEdf,
                                 AdmissionKind::kRmsLiuLayland,
                                 AdmissionKind::kRmsHyperbolic};
  const double alphas[] = {1.0, 1.3, 2.0, 2.98};
  Rng rng(0x5EED5EED);
  int rejects = 0;
  for (int iter = 0; iter < 300; ++iter) {
    const Platform platform = random_platform(rng);
    const TaskSet tasks = random_taskset(rng, platform, false);
    const AdmissionKind kind = kinds[iter % 3];
    const double alpha = alphas[iter % 4];

    const PartitionResult naive = first_fit_partition(
        tasks, platform, kind, alpha, PartitionEngine::kNaive);
    const PartitionResult tree = first_fit_partition(
        tasks, platform, kind, alpha, PartitionEngine::kSegmentTree);
    expect_identical(naive, tree);
    if (!naive.feasible) ++rejects;

    // The decision-only accept path must agree with both full partitions.
    PartitionScratch scratch;
    EXPECT_EQ(first_fit_accepts(tasks, platform, kind, alpha, scratch,
                                PartitionEngine::kSegmentTree),
              naive.feasible);
    EXPECT_EQ(first_fit_accepts(tasks, platform, kind, alpha, scratch,
                                PartitionEngine::kNaive),
              naive.feasible);
  }
  // The sample must actually exercise the reject path.
  EXPECT_GT(rejects, 30);
}

TEST(EngineEquivalence, ScratchReuseAcrossHeterogeneousCallsIsSafe) {
  // One scratch, many different (platform, kind, alpha) shapes in a row:
  // stale buffer contents from a previous call must never leak into the
  // next verdict.
  Rng rng(0xAB12);
  PartitionScratch scratch;
  for (int iter = 0; iter < 120; ++iter) {
    const Platform platform = random_platform(rng);
    const TaskSet tasks = random_taskset(rng, platform, false);
    const AdmissionKind kind = iter % 2 == 0 ? AdmissionKind::kEdf
                                             : AdmissionKind::kRmsHyperbolic;
    const double alpha = 1.0 + 0.5 * (iter % 3);
    const bool fresh =
        first_fit_accepts(tasks, platform, kind, alpha);  // own scratch
    const bool reused =
        first_fit_accepts(tasks, platform, kind, alpha, scratch);
    EXPECT_EQ(fresh, reused);
  }
}

TEST(EngineEquivalence, ResponseTimeKindMatchesThroughFallback) {
  // kRmsResponseTime has no slack form; requesting the tree engine must
  // transparently produce the naive engine's exact result.
  Rng rng(0x52A);
  for (int iter = 0; iter < 40; ++iter) {
    const Platform platform = random_platform(rng);
    const TaskSet tasks = random_taskset(rng, platform, true);
    const double alpha = iter % 2 == 0 ? 1.0 : 2.0;
    const PartitionResult naive =
        first_fit_partition(tasks, platform, AdmissionKind::kRmsResponseTime,
                            alpha, PartitionEngine::kNaive);
    const PartitionResult tree =
        first_fit_partition(tasks, platform, AdmissionKind::kRmsResponseTime,
                            alpha, PartitionEngine::kSegmentTree);
    expect_identical(naive, tree);
    PartitionScratch scratch;
    EXPECT_EQ(first_fit_accepts(tasks, platform,
                                AdmissionKind::kRmsResponseTime, alpha,
                                scratch),
              naive.feasible);
  }
}

TEST(EngineEquivalence, MinFeasibleAlphaAgreesAcrossEnginesAndScratch) {
  Rng rng(0xA1FA);
  PartitionScratch scratch;
  for (int iter = 0; iter < 60; ++iter) {
    const Platform platform = random_platform(rng);
    const TaskSet tasks = random_taskset(rng, platform, false);
    const AdmissionKind kind =
        iter % 2 == 0 ? AdmissionKind::kEdf : AdmissionKind::kRmsLiuLayland;
    const auto plain = min_feasible_alpha(tasks, platform, kind, 8.0);
    const auto via_naive = min_feasible_alpha(tasks, platform, kind, 8.0,
                                              scratch, PartitionEngine::kNaive);
    const auto via_tree = min_feasible_alpha(
        tasks, platform, kind, 8.0, scratch, PartitionEngine::kSegmentTree);
    ASSERT_EQ(plain.has_value(), via_tree.has_value());
    ASSERT_EQ(via_naive.has_value(), via_tree.has_value());
    if (plain) {
      EXPECT_EQ(*plain, *via_tree);
      EXPECT_EQ(*via_naive, *via_tree);
    }
  }
}

// The tree engine's frontier places a task at the finger (the machine the
// last task went to) without a descent when no machine left of it can take
// the task and the finger admits it.  The cases below aim at its branches.

PartitionResult expect_engines_agree(const TaskSet& tasks,
                                     const Platform& platform,
                                     AdmissionKind kind, double alpha) {
  const PartitionResult naive = first_fit_partition(
      tasks, platform, kind, alpha, PartitionEngine::kNaive);
  const PartitionResult tree = first_fit_partition(
      tasks, platform, kind, alpha, PartitionEngine::kSegmentTree);
  expect_identical(naive, tree);
  PartitionScratch scratch;
  EXPECT_EQ(first_fit_accepts(tasks, platform, kind, alpha, scratch,
                              PartitionEngine::kSegmentTree),
            naive.feasible);
  return tree;
}

TEST(FrontierFastPath, SmallerTaskJumpsLeftOfTheFinger) {
  // 0.6 -> M0 at the finger; 0.5 misses M0 and descends to M1 (left_max =
  // M0's 0.4); 0.3 <= left_max must descend back to M0, not stay at M1;
  // 0.2 then misses M0 (0.9) and goes right again.
  const TaskSet tasks({{6, 10}, {5, 10}, {3, 10}, {2, 10}});
  const PartitionResult r = expect_engines_agree(
      tasks, Platform::identical(2), AdmissionKind::kEdf, 1.0);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.assignment, (std::vector<std::size_t>{0, 1, 0, 1}));
}

TEST(FrontierFastPath, FingerRejectionAtAnExactFitBoundary) {
  // Both triples pack a unit machine exactly.  In double arithmetic
  // 0.44 + 0.40 + 0.16 sums to 1 (the finger admits the third task) but
  // 0.55 + 0.34 + 0.11 sums to 1 + 2^-52 (the finger rejects it).  A
  // trailing 0.01 then misses the full finger, or jumps back left to it.
  // One machine makes every finger rejection a failed run; a second
  // catches the rejected task.
  const std::vector<std::vector<Task>> cases = {
      {{44, 100}, {40, 100}, {16, 100}, {1, 100}},
      {{55, 100}, {34, 100}, {11, 100}, {1, 100}}};
  for (const std::vector<Task>& c : cases) {
    const TaskSet tasks(c);
    MachineLoad load(AdmissionKind::kEdf, Rational(1), 1.0);
    load.admit(tasks[0]);
    load.admit(tasks[1]);
    const bool exact_fit_admitted = load.can_admit(tasks[2]);
    EXPECT_EQ(exact_fit_admitted, c[0].exec == 44);
    for (const std::size_t m : {1u, 2u}) {
      const PartitionResult r = expect_engines_agree(
          tasks, Platform::identical(m), AdmissionKind::kEdf, 1.0);
      if (m == 1) {
        EXPECT_EQ(r.failed_task,
                  std::optional<std::size_t>(exact_fit_admitted ? 3 : 2));
      } else if (exact_fit_admitted) {
        EXPECT_EQ(r.assignment, (std::vector<std::size_t>{0, 0, 0, 1}));
      } else {
        EXPECT_EQ(r.assignment, (std::vector<std::size_t>{0, 0, 1, 0}));
      }
    }
  }
}

TEST(FrontierFastPath, LongRunsBitIdenticalForEveryBoundKind) {
  // Hundreds to thousands of tasks on a few machines, so most placements
  // take the fast path.  RMS-LL's bound shrinks as the finger's count
  // grows, and RMS-HB's test is a product, not a sum.  The fixed cells
  // then run the engines on bench_e5_runtime's instances at offline
  // scale, up to n = 16384 on m = 512.
  const AdmissionKind kinds[] = {AdmissionKind::kEdf,
                                 AdmissionKind::kRmsLiuLayland,
                                 AdmissionKind::kRmsHyperbolic};
  Rng rng(0xF1A6);
  int rejects = 0;
  for (int iter = 0; iter < 60; ++iter) {
    const Platform platform = random_platform(rng);
    TasksetSpec spec;
    spec.n = static_cast<std::size_t>(rng.uniform_int(100, 3000));
    spec.max_task_utilization = platform.max_speed();
    spec.total_utilization = rng.uniform(0.5, 1.1) * platform.total_speed();
    spec.periods = PeriodSpec::log_uniform(10, 1000);
    const TaskSet tasks = generate_taskset(rng, spec);
    const PartitionResult r = expect_engines_agree(
        tasks, platform, kinds[iter % 3], iter % 2 == 0 ? 1.0 : 1.5);
    if (!r.feasible) ++rejects;
  }
  EXPECT_GT(rejects, 5);
  EXPECT_LT(rejects, 55);

  struct Cell {
    std::size_t n, m;
    AdmissionKind kind;
    double alpha;
  };
  const Cell cells[] = {
      {16384, 128, AdmissionKind::kEdf, 2.0},
      {16384, 512, AdmissionKind::kEdf, 2.0},
      {16384, 128, AdmissionKind::kRmsLiuLayland, 2.41},
      {16384, 128, AdmissionKind::kRmsHyperbolic, 2.41},
      {4096, 64, AdmissionKind::kEdf, 2.0},
      {1024, 32, AdmissionKind::kEdf, 2.0},
  };
  for (const Cell& c : cells) {
    SCOPED_TRACE(testing::Message() << "n=" << c.n << " m=" << c.m << " "
                                    << to_string(c.kind));
    const E5Workload w = make_e5_workload(c.n, c.m);
    expect_engines_agree(w.tasks, w.platform, c.kind, c.alpha);
  }
}

}  // namespace
}  // namespace hetsched
