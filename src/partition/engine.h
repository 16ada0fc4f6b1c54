// Fast-path partitioning engines for the paper's first-fit test.
//
// For the bound-based admission kinds (kEdf, kRmsLiuLayland,
// kRmsHyperbolic) the per-machine admission test reduces to a closed-form
// slack: machine j admits a task of utilization w iff w <= slack_j, with
// slack_j a function of the machine's accumulated state only
// (admission_slack() in partition/admission.h).  First fit is then
// "leftmost machine with slack >= w" — the classic bin-packing query a max
// segment tree over the m slacks answers in O(log m) — turning the
// partition pass into O(n log n + n log m) instead of O(n log n + n m).
//
// The batch engine (online/first_fit.cc) rarely needs even that.  Tasks
// arrive utilization-descending, so consecutive tasks mostly land on the
// same machine: it keeps a finger on the last task's machine and the
// largest slack left of it (find_first_at_least's `left_max`), places a
// task there in O(1) when nothing to its left can take it and the finger
// admits it, and descends only when the finger moves — about 2% of
// placements on n = 16384, m = 128 (tests/engine_test.cpp counts them).
// The finger's slack is recomputed lazily, just before the next descent.
//
// admission_slack() returns the EXACT floating-point threshold of the
// per-machine comparison admission_admits() performs, so "w <= slack" and
// the direct predicate decide every admission identically — the
// segment-tree engine, fast path included, returns bit-identical
// assignments and verdicts to the naive scan (asserted by
// tests/engine_equivalence_test.cpp).  kRmsResponseTime has no closed-form
// slack; every engine falls back to the naive scan there.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "partition/admission.h"
#include "partition/audit.h"

namespace hetsched {

enum class PartitionEngine {
  kAuto,         // segment tree when the kind has a slack form, else naive
  kNaive,        // reference linear machine scan, O(n m)
  kSegmentTree,  // slack segment tree, O(n log m)
};

std::string to_string(PartitionEngine e);

// "auto" | "naive" | "tree" (also accepts "segment-tree"); nullopt otherwise.
std::optional<PartitionEngine> engine_from_name(std::string_view name);

// The engine actually run for `kind` once kAuto and the kRmsResponseTime
// fallback are resolved; returns kNaive or kSegmentTree.
PartitionEngine resolve_engine(PartitionEngine e, AdmissionKind kind);

// Max segment tree over per-machine admission slack.  Storage is reused
// across build() calls, so a warmed-up tree performs no allocation.
class SlackTree {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  // Rebuilds the tree over slack[0..m); O(m).
  void build(std::span<const double> slack);

  std::size_t size() const { return m_; }
  double slack_at(std::size_t j) const { return node_[leaves_ + j]; }

  // Leftmost j with slack_j >= w, or npos; O(log m).
  std::size_t find_first_at_least(double w) const;

  // Same answer; on a hit, `left_max` also receives the largest slack over
  // machines [0, j) (-inf for j == 0): the max of every left subtree the
  // descent skips, so it costs one max per level.  Untouched on a miss.
  std::size_t find_first_at_least(double w, double& left_max) const;

  // Sets machine j's slack and fixes the ancestors, stopping at the first
  // one whose max is unchanged; O(log m).
  void update(std::size_t j, double slack);

  // The 1-based heap (node 1 is the root, leaves start at index
  // heap().size() / 2), for tests that compare trees node by node.
  std::span<const double> heap() const { return node_; }

 private:
  template <bool kLeftMax>
  std::size_t descend(double w, double* left_max) const;
#if HETSCHED_AUDIT_ENABLED
  // Audit-build invariants: every internal node is the max of its children,
  // padding leaves are -inf, and a descent answer matches the naive
  // leftmost scan over the leaves.
  void audit_verify_heap() const;
  void audit_verify_find(double w, std::size_t result) const;
  void audit_verify_left_max(std::size_t result, double left_max) const;
#endif
  std::size_t m_ = 0;
  std::size_t leaves_ = 0;    // leaf count, power of two (padding = -inf)
  std::vector<double> node_;  // 1-based heap layout; node_[1] is the root
};

// Reusable state for the decision-only accept path.  After warm-up every
// first_fit_accepts / min_feasible_alpha call through a scratch performs no
// heap allocation and never copies Task vectors.  Treat the members as
// opaque; a scratch must not be shared between threads.
struct PartitionScratch {
  std::vector<double> utils;       // per task (caller's numbering): w_i
  std::vector<std::size_t> order;  // task indices, utilization-descending
  std::vector<double> capacity;    // per machine: alpha * s_j
  std::vector<double> util_sum;    // per machine: admitted utilization
  std::vector<double> hyper;       // per machine: prod(w_i / cap + 1)
  std::vector<std::size_t> count;  // per machine: admitted task count
  std::vector<double> slack;       // per machine: admission_slack(...)
  SlackTree tree;
};

}  // namespace hetsched
