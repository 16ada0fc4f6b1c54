#include "util/thread_pool.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/check.h"

namespace hetsched {

namespace {

struct PoolMetrics {
  obs::Counter submitted = obs::registry().counter(
      "hetsched_pool_tasks_submitted_total", "tasks pushed onto pool queues");
  obs::Counter executed = obs::registry().counter(
      "hetsched_pool_tasks_executed_total", "tasks run by pool workers");
  obs::Gauge queue_depth = obs::registry().gauge(
      "hetsched_pool_queue_depth", "tasks waiting in pool queues");
  obs::Gauge workers = obs::registry().gauge(
      "hetsched_pool_workers", "worker threads across live pools");
};
const PoolMetrics g_pool_metrics;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  HETSCHED_GAUGE_ADD(g_pool_metrics.workers, threads);
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
  HETSCHED_GAUGE_ADD(g_pool_metrics.workers, -static_cast<std::int64_t>(
                                                 workers_.size()));
}

void ThreadPool::submit(std::function<void()> task) {
  HETSCHED_CHECK(task != nullptr);
  {
    std::unique_lock<std::mutex> lock(mu_);
    HETSCHED_CHECK_MSG(!shutdown_, "submit after shutdown");
    queue_.push(std::move(task));
    ++in_flight_;
    HETSCHED_COUNT(g_pool_metrics.submitted);
    HETSCHED_GAUGE_ADD(g_pool_metrics.queue_depth, 1);
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::parallel_for_index(
    std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t shards = std::min(n, workers_.size() * 4);
  const std::size_t chunk = (n + shards - 1) / shards;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t lo = s * chunk;
    const std::size_t hi = std::min(n, lo + chunk);
    if (lo >= hi) break;
    submit([&fn, lo, hi] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    });
  }
  wait_idle();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with drained queue
      task = std::move(queue_.front());
      queue_.pop();
      HETSCHED_GAUGE_ADD(g_pool_metrics.queue_depth, -1);
    }
    task();
    HETSCHED_COUNT(g_pool_metrics.executed);
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

ThreadPool& default_thread_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace hetsched
