// Unit tests for the partition engine plumbing (partition/engine.h):
// SlackTree structure, engine name parsing, and kAuto resolution.
#include "partition/engine.h"

#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <vector>

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
