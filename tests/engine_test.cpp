// Unit tests for the partition engine plumbing (partition/engine.h):
// SlackTree structure, the batch frontier's scratch state and counted
// work, engine name parsing, and kAuto resolution.
#include "partition/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "e5_workload.h"
#include "gen/platform_gen.h"
#include "gen/taskset_gen.h"
#include "obs/metrics.h"
#include "partition/audit.h"
#include "partition/first_fit.h"
#include "util/rng.h"

namespace hetsched {
namespace {

TEST(SlackTree, EmptyTreeFindsNothing) {
  SlackTree tree;
  tree.build({});
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.find_first_at_least(0.0), SlackTree::npos);
}

TEST(SlackTree, SingleLeaf) {
  SlackTree tree;
  const std::vector<double> slack = {0.5};
  tree.build(slack);
  EXPECT_EQ(tree.find_first_at_least(0.4), 0u);
  EXPECT_EQ(tree.find_first_at_least(0.5), 0u);
  EXPECT_EQ(tree.find_first_at_least(0.6), SlackTree::npos);
}

TEST(SlackTree, FindsLeftmostNotLargest) {
  SlackTree tree;
  // Machine 2 has more slack, but first fit wants the leftmost admitting
  // machine, which is machine 0.
  const std::vector<double> slack = {0.5, 0.1, 0.9};
  tree.build(slack);
  EXPECT_EQ(tree.find_first_at_least(0.3), 0u);
  EXPECT_EQ(tree.find_first_at_least(0.6), 2u);
  EXPECT_EQ(tree.find_first_at_least(0.95), SlackTree::npos);
}

TEST(SlackTree, NonPowerOfTwoSizePaddingNeverMatches) {
  SlackTree tree;
  const std::vector<double> slack = {0.1, 0.2, 0.3, 0.4, 0.5};  // 5 leaves
  tree.build(slack);
  EXPECT_EQ(tree.size(), 5u);
  // A query of -inf-adjacent weight must not land in the padding leaves.
  EXPECT_EQ(tree.find_first_at_least(0.45), 4u);
  EXPECT_EQ(tree.find_first_at_least(0.55), SlackTree::npos);
  // Even w = -inf (never happens in practice) resolves to a real machine.
  EXPECT_EQ(tree.find_first_at_least(-std::numeric_limits<double>::infinity()),
            0u);
}

TEST(SlackTree, UpdatePropagatesToRoot) {
  SlackTree tree;
  const std::vector<double> slack = {0.5, 0.5, 0.5, 0.5};
  tree.build(slack);
  tree.update(0, 0.1);
  tree.update(1, 0.2);
  EXPECT_EQ(tree.find_first_at_least(0.3), 2u);
  tree.update(2, 0.0);
  tree.update(3, 0.0);
  EXPECT_EQ(tree.find_first_at_least(0.3), SlackTree::npos);
  EXPECT_EQ(tree.find_first_at_least(0.05), 0u);
  EXPECT_DOUBLE_EQ(tree.slack_at(1), 0.2);
}

TEST(SlackTree, EarlyStopUpdateMatchesFreshBuild) {
  // update() stops climbing at the first ancestor whose max is unchanged.
  // Raise and lower max and non-max leaves, ties included, and compare the
  // whole heap against a tree built from scratch after every update.
  std::vector<double> slack = {0.5, 0.3, 0.9, 0.9, 0.1, 0.7, 0.2,
                               0.4, 0.6, 0.8, 0.05, 0.35, 0.65};  // 13 leaves
  SlackTree tree;
  tree.build(slack);
  const auto expect_matches_fresh = [&](const char* step) {
    SlackTree fresh;
    fresh.build(slack);
    const std::span<const double> got = tree.heap();
    const std::span<const double> want = fresh.heap();
    ASSERT_EQ(got.size(), want.size()) << step;
    for (std::size_t i = 1; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << step << ": node " << i;
    }
  };
  const auto set = [&](std::size_t j, double v, const char* step) {
    slack[j] = v;
    tree.update(j, v);
    expect_matches_fresh(step);
  };
  set(1, 0.45, "raise a non-max leaf below its sibling");
  set(1, 0.55, "raise a non-max leaf above its sibling");
  set(4, 0.0, "lower a non-max leaf");
  set(2, 0.95, "raise a max leaf (new global max)");
  set(2, 0.9, "lower a max leaf to its tied twin");
  set(3, 0.2, "lower the tied twin; the other still holds the max");
  set(2, 0.1, "lower the last global max");
  set(12, 1.5, "raise a leaf next to the padding");
  set(12, 0.0, "lower it again");
  set(9, 0.8, "rewrite a leaf with its own value");
  Rng rng(0x5EED);
  for (int step = 0; step < 500; ++step) {
    const std::size_t j = static_cast<std::size_t>(rng.uniform_int(0, 12));
    // Coarse values so ties between leaves are frequent.
    set(j, static_cast<double>(rng.uniform_int(0, 8)) / 8.0, "random");
  }
}

TEST(SlackTree, RebuildReusesStorage) {
  SlackTree tree;
  const std::vector<double> big(64, 1.0);
  tree.build(big);
  EXPECT_EQ(tree.size(), 64u);
  const std::vector<double> small = {0.25, 0.75};
  tree.build(small);
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_EQ(tree.find_first_at_least(0.5), 1u);
  EXPECT_EQ(tree.find_first_at_least(0.8), SlackTree::npos);
}

TEST(SlackTree, LeftMaxIsTheLargestSlackLeftOfTheAnswer) {
  Rng rng(0x1EF7);
  for (int iter = 0; iter < 200; ++iter) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 40));
    std::vector<double> slack(m);
    for (double& x : slack) {
      x = static_cast<double>(rng.uniform_int(-2, 16)) / 8.0;
    }
    SlackTree tree;
    tree.build(slack);
    const double w = static_cast<double>(rng.uniform_int(-1, 17)) / 8.0;
    double left_max = 42.0;
    const std::size_t j = tree.find_first_at_least(w, left_max);
    EXPECT_EQ(j, tree.find_first_at_least(w));
    if (j == SlackTree::npos) {
      EXPECT_EQ(left_max, 42.0);  // untouched on a miss
      continue;
    }
    double expect = -std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < j; ++k) expect = std::max(expect, slack[k]);
    EXPECT_EQ(left_max, expect) << "m=" << m << " w=" << w << " j=" << j;
  }
}

TEST(FrontierEngine, ScratchSlacksAreExactAfterARun) {
  // The fast path leaves the finger's slack stale while it folds tasks in;
  // every run must end with each slack (and its tree leaf) equal to
  // admission_slack of the machine's folded state, accept or reject.
  const AdmissionKind kinds[] = {AdmissionKind::kEdf,
                                 AdmissionKind::kRmsLiuLayland,
                                 AdmissionKind::kRmsHyperbolic};
  Rng rng(0x57A1E);
  PartitionScratch s;
  int rejects = 0;
  for (int iter = 0; iter < 90; ++iter) {
    const Platform platform = geometric_platform(
        static_cast<std::size_t>(rng.uniform_int(1, 16)), 1.3);
    TasksetSpec spec;
    spec.n = static_cast<std::size_t>(rng.uniform_int(1, 600));
    spec.max_task_utilization = platform.max_speed();
    spec.total_utilization =
        std::min(rng.uniform(0.3, 1.2) * platform.total_speed(),
                 0.5 * static_cast<double>(spec.n) * spec.max_task_utilization);
    const TaskSet tasks = generate_taskset(rng, spec);
    const AdmissionKind kind = kinds[iter % 3];
    if (!first_fit_accepts(tasks, platform, kind, 1.0, s,
                           PartitionEngine::kSegmentTree)) {
      ++rejects;
    }
    ASSERT_EQ(s.tree.size(), platform.size());
    for (std::size_t j = 0; j < platform.size(); ++j) {
      const double exact = admission_slack(kind, s.capacity[j], s.util_sum[j],
                                           s.count[j], s.hyper[j]);
      EXPECT_EQ(s.slack[j], exact) << "iter " << iter << " machine " << j;
      EXPECT_EQ(s.tree.slack_at(j), s.slack[j]) << "iter " << iter;
    }
  }
  EXPECT_GT(rejects, 5);
}

TEST(FrontierEngine, DescentsStayUnderFivePercentOfPlacements) {
  // Counted, host-independent work on an offline-scale instance: n = 16384
  // tasks at U/S = 0.7 on a 128-machine geometric platform, EDF at
  // alpha = 2 (make_e5_workload).  The naive scan visits
  // assignment[i] + 1 machines per placement, the frontier one machine per
  // fast placement plus one log2(m)-level descent per finger move.
#if HETSCHED_AUDIT_ENABLED
  GTEST_SKIP() << "audit oracles descend trees of their own";
#endif
  const obs::Counter descents = obs::registry().counter(
      "hetsched_slacktree_descents_total", "");
  const obs::Counter fast = obs::registry().counter(
      "hetsched_first_fit_fast_path_total", "");
  const E5Workload w = make_e5_workload(16384, 128);
  const TaskSet& tasks = w.tasks;
  const Platform& platform = w.platform;

  const std::uint64_t d0 = obs::registry().counter_value(descents);
  const std::uint64_t f0 = obs::registry().counter_value(fast);
  const PartitionResult r =
      first_fit_partition(tasks, platform, AdmissionKind::kEdf, 2.0,
                          PartitionEngine::kSegmentTree);
  const std::uint64_t d = obs::registry().counter_value(descents) - d0;
  const std::uint64_t f = obs::registry().counter_value(fast) - f0;
  ASSERT_TRUE(r.feasible);
  const std::uint64_t placements = tasks.size();
  EXPECT_EQ(d + f, placements);
  EXPECT_LE(20 * d, placements) << d << " descents";

  std::uint64_t naive_visits = 0;
  for (const std::size_t j : r.assignment) naive_visits += j + 1;
  const std::uint64_t frontier_visits = f + d * 7;  // log2(128) levels
  EXPECT_GE(naive_visits, 3 * frontier_visits)
      << naive_visits << " naive vs " << frontier_visits << " frontier";
}

TEST(EngineNames, RoundTrip) {
  EXPECT_EQ(engine_from_name("auto"), PartitionEngine::kAuto);
  EXPECT_EQ(engine_from_name("naive"), PartitionEngine::kNaive);
  EXPECT_EQ(engine_from_name("tree"), PartitionEngine::kSegmentTree);
  EXPECT_EQ(engine_from_name("segment-tree"), PartitionEngine::kSegmentTree);
  EXPECT_EQ(engine_from_name("bogus"), std::nullopt);
  EXPECT_EQ(engine_from_name(""), std::nullopt);
}

TEST(EngineResolution, AutoPicksTreeForSlackForms) {
  for (const AdmissionKind kind :
       {AdmissionKind::kEdf, AdmissionKind::kRmsLiuLayland,
        AdmissionKind::kRmsHyperbolic}) {
    EXPECT_EQ(resolve_engine(PartitionEngine::kAuto, kind),
              PartitionEngine::kSegmentTree);
    EXPECT_EQ(resolve_engine(PartitionEngine::kNaive, kind),
              PartitionEngine::kNaive);
    EXPECT_EQ(resolve_engine(PartitionEngine::kSegmentTree, kind),
              PartitionEngine::kSegmentTree);
  }
}

TEST(EngineResolution, ResponseTimeAlwaysFallsBackToNaive) {
  for (const PartitionEngine e :
       {PartitionEngine::kAuto, PartitionEngine::kNaive,
        PartitionEngine::kSegmentTree}) {
    EXPECT_EQ(resolve_engine(e, AdmissionKind::kRmsResponseTime),
              PartitionEngine::kNaive);
  }
}

TEST(PartitionResultToString, InfeasibleWithoutFailedTaskPrintsNone) {
  // A default-constructed infeasible result has no failing task on record;
  // it must not masquerade as "task 0 failed".
  PartitionResult res;
  const std::string s = res.to_string();
  EXPECT_NE(s.find("failed_task=none"), std::string::npos);
  EXPECT_EQ(s.find("failed_task=0"), std::string::npos);
}

}  // namespace
}  // namespace hetsched
