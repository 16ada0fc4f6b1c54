#include "core/uniproc.h"

#include <array>
#include <cmath>

#include "util/check.h"

namespace hetsched {

namespace {

double liu_layland_formula(std::size_t n) {
  if (n == 0) return 1.0;
  const double inv = 1.0 / static_cast<double>(n);
  return static_cast<double>(n) * (std::exp2(inv) - 1.0);
}

}  // namespace

double rms_liu_layland_bound(std::size_t n) {
  // The admission predicate evaluates the bound on every first-fit probe,
  // so the common task counts are tabulated; each entry is the formula's
  // own value, so callers see the same bits either way.  Filling the table
  // on first use has no effect a caller can observe, which keeps the
  // function gnu::const.
  static const std::array<double, 1024> table = [] {
    std::array<double, 1024> t{};
    for (std::size_t k = 0; k < t.size(); ++k) t[k] = liu_layland_formula(k);
    return t;
  }();
  return n < table.size() ? table[n] : liu_layland_formula(n);
}

double rms_utilization_limit() { return std::log(2.0); }

bool edf_feasible(double total_utilization, double speed) {
  HETSCHED_CHECK(speed > 0);
  HETSCHED_CHECK(total_utilization >= 0);
  return total_utilization <= speed;
}

bool rms_ll_feasible(double total_utilization, std::size_t n, double speed) {
  HETSCHED_CHECK(speed > 0);
  HETSCHED_CHECK(total_utilization >= 0);
  return total_utilization <= rms_liu_layland_bound(n) * speed;
}

bool rms_hyperbolic_feasible(std::span<const double> utilizations,
                             double speed) {
  HETSCHED_CHECK(speed > 0);
  double prod = 1.0;
  for (const double u : utilizations) {
    HETSCHED_CHECK(u >= 0);
    prod *= u / speed + 1.0;
    if (prod > 2.0) return false;  // early exit; factors are >= 1
  }
  return prod <= 2.0;
}

}  // namespace hetsched
