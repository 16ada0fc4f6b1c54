// Randomized property test: replaying a task set through the online
// controller in canonical utilization-descending order is bit-identical to
// first_fit_partition, under both engines and every admission kind.  The
// two are independent implementations — the batch scratch engine
// (online/first_fit.cc) and OnlinePartitioner — that share only the
// admission primitives (admission_fold_step, SlackTree), so this test is
// what pins their agreement: verdicts, assignments, failure certificates
// and per-machine loads, compared bitwise, over 500 small seeded instances
// and a grid of large ones (n up to 4096, m up to 128).  If the two ever
// drifted apart, the theorem-level certificates the batch test emits would
// silently stop covering the online service.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "gen/platform_gen.h"
#include "gen/taskset_gen.h"
#include "online/online_partitioner.h"
#include "partition/first_fit.h"
#include "util/rng.h"

namespace hetsched {
namespace {

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

TaskSet random_taskset(Rng& rng, const Platform& platform) {
  TasksetSpec spec;
  spec.n = static_cast<std::size_t>(rng.uniform_int(1, 40));
  spec.max_task_utilization = platform.max_speed();
  // Straddle the acceptance boundary so the sample is rich in rejections.
  const double norm = rng.uniform(0.4, 1.15);
  spec.total_utilization =
      std::min(norm * platform.total_speed(),
               0.35 * static_cast<double>(spec.n) * spec.max_task_utilization);
  spec.periods = PeriodSpec::log_uniform(10, 1000);
  return generate_taskset(rng, spec);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Replays `tasks` through a fresh controller in canonical order, stopping
// at the first rejection exactly as the batch algorithm does, and asserts
// the replay reproduces `batch` bit for bit — including the partial state
// of a rejected run, which the infeasibility certificates reason about.
void expect_replay_matches(const TaskSet& tasks, const Platform& platform,
                           AdmissionKind kind, double alpha,
                           PartitionEngine engine,
                           const PartitionResult& batch) {
  OnlinePartitioner c(platform, kind, alpha, engine);
  c.reserve(tasks.size());
  bool feasible = true;
  std::vector<std::size_t> assignment(tasks.size(), platform.size());
  for (const std::size_t i : tasks.order_by_utilization_desc()) {
    const AdmitDecision d = c.admit(tasks[i]);
    if (!d.admitted) {
      feasible = false;
      ASSERT_TRUE(batch.failed_task.has_value());
      EXPECT_EQ(*batch.failed_task, i);
      EXPECT_EQ(bits(batch.failed_utilization), bits(d.utilization));
      break;
    }
    assignment[i] = d.machine;
  }
  ASSERT_EQ(feasible, batch.feasible);
  EXPECT_EQ(feasible, !batch.failed_task.has_value());
  ASSERT_EQ(batch.assignment.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(assignment[i], batch.assignment[i]) << "task " << i;
  }
  ASSERT_EQ(batch.machine_utilization.size(), platform.size());
  ASSERT_EQ(batch.tasks_per_machine.size(), platform.size());
  for (std::size_t j = 0; j < platform.size(); ++j) {
    EXPECT_EQ(bits(c.machine_utilization(j)),
              bits(batch.machine_utilization[j]))
        << "machine " << j;
    ASSERT_EQ(c.machine_task_count(j), batch.tasks_per_machine[j].size());
    const std::vector<Task> online = c.machine_tasks(j);
    for (std::size_t k = 0; k < online.size(); ++k) {
      EXPECT_EQ(online[k], batch.tasks_per_machine[j][k]);
    }
  }
}

// Runs the batch test under both engines, checks each against the online
// replay, and checks the decision-only accept path agrees.  Returns the
// verdict.
bool expect_engines_match(const TaskSet& tasks, const Platform& platform,
                          AdmissionKind kind, double alpha) {
  bool feasible = false;
  for (const PartitionEngine engine :
       {PartitionEngine::kNaive, PartitionEngine::kSegmentTree}) {
    const PartitionResult batch =
        first_fit_partition(tasks, platform, kind, alpha, engine);
    expect_replay_matches(tasks, platform, kind, alpha, engine, batch);
    PartitionScratch scratch;
    EXPECT_EQ(first_fit_accepts(tasks, platform, kind, alpha, scratch, engine),
              batch.feasible);
    feasible = batch.feasible;
  }
  return feasible;
}

TEST(OnlineEquivalence, ReplayMatchesBatchOver500Instances) {
  const AdmissionKind kinds[] = {
      AdmissionKind::kEdf, AdmissionKind::kRmsLiuLayland,
      AdmissionKind::kRmsHyperbolic, AdmissionKind::kRmsResponseTime};
  const double alphas[] = {1.0, 1.3, 2.0, 2.98};
  Rng rng(0x0511E);
  for (int iter = 0; iter < 500; ++iter) {
    const Platform platform = random_platform(rng);
    const TaskSet tasks = random_taskset(rng, platform);
    const AdmissionKind kind = kinds[iter % 4];
    const double alpha = alphas[static_cast<std::size_t>(
        rng.uniform_int(0, 3))];
    SCOPED_TRACE("iter " + std::to_string(iter) + " kind " + to_string(kind) +
                 " alpha " + std::to_string(alpha));
    expect_engines_match(tasks, platform, kind, alpha);
  }
}

// n tasks with utilizations uniform in (0, 2u], u chosen so the total load
// straddles the platform capacity.  (UUniFast cannot load a platform this
// heavily with so few tasks per machine without exceeding the per-task
// cap.)
TaskSet large_taskset(Rng& rng, const Platform& platform, std::size_t n) {
  const double u = rng.uniform(0.5, 1.3) * platform.total_speed() /
                   static_cast<double>(n);
  std::vector<Task> tasks;
  tasks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t period = rng.uniform_int(10, 1000);
    const double w = std::min(rng.uniform(0.0, 2.0 * u), platform.max_speed());
    const auto exec =
        static_cast<std::int64_t>(w * static_cast<double>(period));
    tasks.push_back({std::max<std::int64_t>(exec, 1), period});
  }
  return TaskSet(std::move(tasks));
}

TEST(OnlineEquivalence, ReplayMatchesBatchOnLargeInstances) {
  // Sizes where the canonical order takes its radix path and the tree
  // engine is several levels deep; loads straddle the acceptance boundary.
  Rng rng(0x1A46E);
  std::size_t accepted = 0, tests = 0;
  const AdmissionKind kinds[] = {AdmissionKind::kEdf,
                                 AdmissionKind::kRmsLiuLayland,
                                 AdmissionKind::kRmsHyperbolic};
  for (const std::size_t n : {256u, 4096u}) {
    for (const std::size_t m : {64u, 128u}) {
      for (const AdmissionKind kind : kinds) {
        for (int rep = 0; rep < 3; ++rep) {
          const Platform platform = uniform_platform(rng, m, 1.0, 4.0);
          const TaskSet tasks = large_taskset(rng, platform, n);
          const double alpha = rep == 0 ? 1.0 : rep == 1 ? 1.3 : 2.0;
          SCOPED_TRACE("n " + std::to_string(n) + " m " + std::to_string(m) +
                       " kind " + to_string(kind) + " alpha " +
                       std::to_string(alpha));
          accepted += expect_engines_match(tasks, platform, kind, alpha);
          ++tests;
        }
      }
    }
  }
  // The grid exercises both certificates: full partitions and failures.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, tests);
  // Response-time admission has no slack form and runs a MachineLoad scan
  // on the batch side; kept small because every probe runs exact RTA.
  for (int rep = 0; rep < 4; ++rep) {
    const Platform platform = uniform_platform(rng, 8, 1.0, 4.0);
    TasksetSpec spec;
    spec.n = 64;
    spec.max_task_utilization = platform.max_speed();
    spec.total_utilization = rng.uniform(0.5, 1.2) * platform.total_speed();
    const TaskSet tasks = generate_taskset(rng, spec);
    SCOPED_TRACE("rta rep " + std::to_string(rep));
    expect_engines_match(tasks, platform, AdmissionKind::kRmsResponseTime,
                         rep % 2 == 0 ? 1.0 : 1.3);
  }
}

TEST(OnlineEquivalence, ReplayAfterChurnStillMatchesBatchOnResidents) {
  // Admit, depart a pseudo-random subset, then check the survivors: a fresh
  // batch run over exactly the resident multiset must be accepted (every
  // resident passed its own admission test), and re-admitting the residents
  // into a fresh controller in canonical order must succeed as well.
  Rng rng(0xC0FFEE);
  for (int iter = 0; iter < 60; ++iter) {
    const Platform platform = random_platform(rng);
    const TaskSet tasks = random_taskset(rng, platform);
    OnlinePartitioner c(platform, AdmissionKind::kEdf, 1.0);
    std::vector<OnlineTaskId> admitted;
    for (const Task& t : tasks) {
      const AdmitDecision d = c.admit(t);
      if (d.admitted) admitted.push_back(d.id);
    }
    for (const OnlineTaskId id : admitted) {
      if (rng.uniform(0.0, 1.0) < 0.5) {
        ASSERT_TRUE(c.depart(id));
      }
    }
    std::vector<Task> residents;
    for (std::size_t j = 0; j < platform.size(); ++j) {
      for (const Task& t : c.machine_tasks(j)) residents.push_back(t);
    }
    if (residents.empty()) continue;
    // Survivors need not pack under the canonical order (first fit is not
    // optimal), but per-machine admission invariants must hold: replaying
    // each machine's residents onto that machine alone must be accepted.
    for (std::size_t j = 0; j < platform.size(); ++j) {
      const std::vector<Task> on_j = c.machine_tasks(j);
      if (on_j.empty()) continue;
      const std::vector<Rational> solo_speed{platform.speed_exact(j)};
      const Platform solo = Platform::from_speeds_exact(solo_speed);
      EXPECT_TRUE(first_fit_accepts(TaskSet(on_j), solo, AdmissionKind::kEdf,
                                    1.0))
          << "machine " << j << " iter " << iter;
    }
  }
}

}  // namespace
}  // namespace hetsched
