#include "obs/metrics.h"

#include <algorithm>
#include <array>
#include <sstream>

#include "util/check.h"

namespace hetsched::obs {

namespace detail {

namespace {
// Gauge cells.  Process-global so a Gauge handle can write without going
// through the registry lock; zero-initialized static storage.
std::array<std::atomic<std::int64_t>, kMaxGauges>& gauge_cells() {
  static std::array<std::atomic<std::int64_t>, kMaxGauges> cells{};
  return cells;
}
}  // namespace

void gauge_store(std::uint32_t id, std::int64_t v) {
  gauge_cells()[id].store(v, std::memory_order_relaxed);
}

void gauge_add(std::uint32_t id, std::int64_t delta) {
  gauge_cells()[id].fetch_add(delta, std::memory_order_relaxed);
}

ThreadBlockHolder::ThreadBlockHolder() { registry().attach(&block); }

ThreadBlockHolder::~ThreadBlockHolder() { registry().detach(&block); }

thread_local constinit ThreadBlock* t_block = nullptr;

ThreadBlock& attach_local_block() {
  thread_local ThreadBlockHolder holder;
  t_block = &holder.block;
  return holder.block;
}

}  // namespace detail

Registry& registry() {
  // Leaky singleton: thread blocks detach through this at thread exit, so
  // it must outlive every instrumented thread.
  static Registry* r = new Registry();
  return *r;
}

Counter Registry::counter(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < counter_meta_.size(); ++i) {
    if (counter_meta_[i].name == name) {
      return Counter(static_cast<std::uint32_t>(i));
    }
  }
  HETSCHED_CHECK_MSG(counter_meta_.size() < kMaxCounters,
                     "obs: counter capacity exhausted (raise kMaxCounters)");
  counter_meta_.push_back({std::string(name), std::string(help)});
  return Counter(static_cast<std::uint32_t>(counter_meta_.size() - 1));
}

Gauge Registry::gauge(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < gauge_meta_.size(); ++i) {
    if (gauge_meta_[i].name == name) {
      return Gauge(static_cast<std::uint32_t>(i));
    }
  }
  HETSCHED_CHECK_MSG(gauge_meta_.size() < kMaxGauges,
                     "obs: gauge capacity exhausted (raise kMaxGauges)");
  gauge_meta_.push_back({std::string(name), std::string(help)});
  return Gauge(static_cast<std::uint32_t>(gauge_meta_.size() - 1));
}

LatencyHistogram Registry::histogram(std::string_view name,
                                     std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < histogram_meta_.size(); ++i) {
    if (histogram_meta_[i].name == name) {
      return LatencyHistogram(static_cast<std::uint32_t>(i));
    }
  }
  HETSCHED_CHECK_MSG(
      histogram_meta_.size() < kMaxHistograms,
      "obs: histogram capacity exhausted (raise kMaxHistograms)");
  histogram_meta_.push_back({std::string(name), std::string(help)});
  return LatencyHistogram(static_cast<std::uint32_t>(histogram_meta_.size() - 1));
}

void Registry::attach(detail::ThreadBlock* block) {
  std::lock_guard<std::mutex> lock(mu_);
  blocks_.push_back(block);
}

void Registry::detach(detail::ThreadBlock* block) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find(blocks_.begin(), blocks_.end(), block);
  if (it == blocks_.end()) return;  // reset() may have dropped it
  blocks_.erase(it);
  // Fold the exiting thread's totals so they survive the thread.
  for (std::size_t c = 0; c < kMaxCounters; ++c) {
    detail::ThreadBlock::bump(retired_.counters[c],
                              block->counters[c].load(std::memory_order_relaxed));
  }
  for (std::size_t h = 0; h < kMaxHistograms; ++h) {
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      detail::ThreadBlock::bump(
          retired_.hist_buckets[h][b],
          block->hist_buckets[h][b].load(std::memory_order_relaxed));
    }
    detail::ThreadBlock::bump(
        retired_.hist_count[h],
        block->hist_count[h].load(std::memory_order_relaxed));
    detail::ThreadBlock::bump(retired_.hist_sum[h],
                              block->hist_sum[h].load(std::memory_order_relaxed));
  }
}

std::uint64_t Registry::locked_counter_value(std::uint32_t id) const {
  std::uint64_t total = retired_.counters[id].load(std::memory_order_relaxed);
  for (const detail::ThreadBlock* block : blocks_) {
    total += block->counters[id].load(std::memory_order_relaxed);
  }
  return total;
}

HistogramSnapshot Registry::locked_histogram_snapshot(std::uint32_t id) const {
  HistogramSnapshot snap;
  snap.count = retired_.hist_count[id].load(std::memory_order_relaxed);
  snap.sum_ns = retired_.hist_sum[id].load(std::memory_order_relaxed);
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    snap.buckets[b] =
        retired_.hist_buckets[id][b].load(std::memory_order_relaxed);
  }
  for (const detail::ThreadBlock* block : blocks_) {
    snap.count += block->hist_count[id].load(std::memory_order_relaxed);
    snap.sum_ns += block->hist_sum[id].load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      snap.buckets[b] +=
          block->hist_buckets[id][b].load(std::memory_order_relaxed);
    }
  }
  return snap;
}

std::uint64_t Registry::counter_value(Counter c) const {
  std::lock_guard<std::mutex> lock(mu_);
  return locked_counter_value(c.id());
}

std::int64_t Registry::gauge_value(Gauge g) const {
  return detail::gauge_cells()[g.id()].load(std::memory_order_relaxed);
}

HistogramSnapshot Registry::histogram_snapshot(LatencyHistogram h) const {
  std::lock_guard<std::mutex> lock(mu_);
  return locked_histogram_snapshot(h.id());
}

// Outlined on purpose (see the header): keeps the clock calls out of
// instrumented hot functions, where they are dead weight on 1023 of 1024
// calls.
void ScopedLatencyTimer::arm() { start_ns_ = now_ns(); }

void ScopedLatencyTimer::finish() { h_.record_ns(now_ns() - start_ns_); }

double HistogramSnapshot::percentile_ns(double p) const {
  if (count == 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const std::uint64_t next = seen + buckets[b];
    if (static_cast<double>(next) >= rank) {
      // Linear interpolation inside the covering bucket.
      const double lo = static_cast<double>(bucket_lo_ns(b));
      const double hi = b + 1 >= kHistogramBuckets
                            ? lo * 2.0
                            : static_cast<double>(bucket_hi_ns(b));
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(buckets[b]);
      return lo + (hi - lo) * frac;
    }
    seen = next;
  }
  return static_cast<double>(bucket_lo_ns(kHistogramBuckets - 1)) * 2.0;
}

std::string Registry::expose() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  for (std::size_t i = 0; i < counter_meta_.size(); ++i) {
    const Meta& m = counter_meta_[i];
    out << "# HELP " << m.name << " " << m.help << "\n";
    out << "# TYPE " << m.name << " counter\n";
    out << m.name << " " << locked_counter_value(static_cast<std::uint32_t>(i))
        << "\n";
  }
  for (std::size_t i = 0; i < gauge_meta_.size(); ++i) {
    const Meta& m = gauge_meta_[i];
    out << "# HELP " << m.name << " " << m.help << "\n";
    out << "# TYPE " << m.name << " gauge\n";
    out << m.name << " "
        << detail::gauge_cells()[i].load(std::memory_order_relaxed) << "\n";
  }
  for (std::size_t i = 0; i < histogram_meta_.size(); ++i) {
    const Meta& m = histogram_meta_[i];
    const HistogramSnapshot snap =
        locked_histogram_snapshot(static_cast<std::uint32_t>(i));
    out << "# HELP " << m.name << " " << m.help << "\n";
    out << "# TYPE " << m.name << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (snap.buckets[b] == 0) continue;
      cumulative += snap.buckets[b];
      out << m.name << "_bucket{le=\"" << bucket_hi_ns(b) << "\"} "
          << cumulative << "\n";
    }
    out << m.name << "_bucket{le=\"+Inf\"} " << snap.count << "\n";
    out << m.name << "_sum " << snap.sum_ns << "\n";
    out << m.name << "_count " << snap.count << "\n";
    out << "# percentiles " << m.name << " p50=" << snap.percentile_ns(50)
        << " p95=" << snap.percentile_ns(95) << " p99=" << snap.percentile_ns(99)
        << " p999=" << snap.percentile_ns(99.9) << "\n";
  }
  return out.str();
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  auto zero_block = [](detail::ThreadBlock* block) {
    for (std::size_t c = 0; c < kMaxCounters; ++c) {
      block->counters[c].store(0, std::memory_order_relaxed);
    }
    for (std::size_t h = 0; h < kMaxHistograms; ++h) {
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        block->hist_buckets[h][b].store(0, std::memory_order_relaxed);
      }
      block->hist_count[h].store(0, std::memory_order_relaxed);
      block->hist_sum[h].store(0, std::memory_order_relaxed);
    }
  };
  zero_block(&retired_);
  for (detail::ThreadBlock* block : blocks_) zero_block(block);
  for (std::size_t g = 0; g < kMaxGauges; ++g) {
    detail::gauge_cells()[g].store(0, std::memory_order_relaxed);
  }
}

}  // namespace hetsched::obs
