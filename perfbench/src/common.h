// Shared helpers for the benchmark binary: clock, percentiles, the metric
// map printed as the final JSON line, and seed derivation.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Linear-interpolated quantile of `v`; 0 for empty input.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

// Quantile q of each of `n` consecutive, equal chunks of `v` (kept in
// time order).
inline std::vector<double> chunk_quantile(const std::vector<double>& v,
                                          std::size_t n, double q) {
  std::vector<double> out;
  for (std::size_t i = 0; i < n; ++i) {
    const auto b = v.begin() + static_cast<std::ptrdiff_t>(v.size() * i / n);
    const auto e = v.begin() + static_cast<std::ptrdiff_t>(v.size() * (i + 1) / n);
    if (b != e) out.push_back(quantile(std::vector<double>(b, e), q));
  }
  return out;
}

// Derives an independent 64-bit stream seed for (seed, purpose, index).
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose,
                                 std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + purpose * 0xBF58476D1CE4E5B9ULL +
                    index * 0x94D049BB133111EBULL + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Metric name -> (value, unit), printed in name order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  const std::map<std::string, std::pair<double, std::string>>& values() const {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

// Free-form run facts (transport, filesystem, rates, sample counts),
// printed as an informational JSON line before the result line.
class Info {
 public:
  void set(const std::string& key, const std::string& value) {
    text_[key] = value;
  }
  void set(const std::string& key, double value) { num_[key] = value; }
  std::string json() const;

 private:
  std::map<std::string, std::string> text_;
  std::map<std::string, double> num_;
};

// What one workload run produced.  `correct` is the correctness gate;
// `attempted`/`failed` count operations (a failed check is not a failed
// operation — it fails the run).
struct RunResult {
  bool correct = true;
  std::string why_incorrect;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  Info info;

  void fail_check(const std::string& why) {
    if (correct) why_incorrect = why;
    correct = false;
  }
};

std::string json_number(double v);
std::string json_string(const std::string& s);

}  // namespace perfbench
