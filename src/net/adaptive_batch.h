// Adaptive batch sizing for the thread-per-core network plane (server.h).
//
// Every event-loop drain round — a readable socket's frame run or a shard
// queue pop — is bounded by a frame budget.  The right budget depends on
// load, and the two ends of the trade-off pull in opposite directions:
//
//   * idle / trickle traffic: a budget of 1 means every decision is
//     encoded and flushed immediately — minimum added latency, and the
//     extra syscalls are free because the loop was about to sleep anyway.
//   * saturation: a large budget coalesces a full run of responses into
//     one writev, cutting the syscall count per frame by the batch size —
//     the per-frame syscall cost that dominates served p50 under load.
//
// AdaptiveBatch walks the budget between ServerOptions::batch_min and
// ::batch with two rules applied after every drain round:
//
//   grow:   a round that used its whole budget (drained >= limit) means
//           more work was pending — double the budget immediately.  Under
//           sustained depth the budget reaches the cap in log2(max/min)
//           rounds.
//   shrink: a round that found the queue nearly empty (drained <=
//           kShrinkDepth) is evidence the batch is oversized; after
//           kShrinkPatience consecutive such rounds the budget halves.
//           Patience keeps one idle gap in a busy stream from collapsing
//           the batch (and the syscall amortization) instantly.
//
// Rounds in between (partial but non-trivial batches) leave the budget
// alone and reset the patience counter.
//
// Not thread-safe: one instance per event loop, touched only by it.
#pragma once

#include <algorithm>
#include <cstddef>

#include "util/check.h"

namespace hetsched::net {

class AdaptiveBatch {
 public:
  // A drain that finds at most this many frames counts as an idle round.
  static constexpr std::size_t kShrinkDepth = 1;
  // Consecutive idle rounds required before the budget halves.
  static constexpr std::size_t kShrinkPatience = 4;

  AdaptiveBatch(std::size_t min_frames, std::size_t max_frames)
      : min_(min_frames), max_(max_frames), limit_(min_frames) {
    HETSCHED_CHECK(min_frames >= 1);
    HETSCHED_CHECK(max_frames >= min_frames);
  }

  // Current frame budget for the next drain round.
  std::size_t limit() const { return limit_; }
  std::size_t min_limit() const { return min_; }
  std::size_t max_limit() const { return max_; }

  // Feed the number of frames one drain round actually handled.
  void observe(std::size_t drained) {
    if (drained >= limit_) {
      limit_ = std::min(limit_ * 2, max_);
      idle_rounds_ = 0;
    } else if (drained <= kShrinkDepth) {
      if (++idle_rounds_ >= kShrinkPatience) {
        limit_ = std::max(limit_ / 2, min_);
        idle_rounds_ = 0;
      }
    } else {
      idle_rounds_ = 0;
    }
  }

 private:
  std::size_t min_;
  std::size_t max_;
  std::size_t limit_;
  std::size_t idle_rounds_ = 0;
};

}  // namespace hetsched::net
