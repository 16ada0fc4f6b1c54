#include "partition/sweep.h"

#include "obs/metrics.h"

namespace hetsched {

namespace {

struct SweepMetrics {
  obs::Counter trials = obs::registry().counter(
      "hetsched_sweep_trials_total", "sweep trial bodies executed");
  obs::LatencyHistogram trial_ns = obs::registry().histogram(
      "hetsched_sweep_trial_latency_ns", "sweep trial latency (every call)");
};
const SweepMetrics g_sweep_metrics;

}  // namespace

void partition_sweep(std::size_t trials, const SweepOptions& options,
                     const std::function<void(SweepContext&)>& body) {
  ThreadPool& pool =
      options.pool != nullptr ? *options.pool : default_thread_pool();
  pool.parallel_for_index(trials, [&](std::size_t trial) {
    // One scratch per worker thread, reused across trials and sweeps: the
    // accept path allocates only until the largest (n, m) has been seen.
    thread_local PartitionScratch scratch;
    // Trials are micro-seconds and up, so every one is timed (no sampling).
    HETSCHED_TIMED(g_sweep_metrics.trial_ns);
    HETSCHED_COUNT(g_sweep_metrics.trials);
    SweepContext ctx(trial, options, scratch);
    body(ctx);
  });
}

}  // namespace hetsched
