// Single-machine schedulability tests for implicit-deadline sporadic tasks.
//
// These are the per-machine admission tests the paper's partitioner plugs in:
//   * EDF utilization bound (paper Thm II.2, Liu & Layland 1973): a set S is
//     EDF-schedulable on a speed-s machine iff sum of utilizations <= s.
//     This test is exact.
//   * RMS Liu–Layland bound (paper Thm II.3): S is RM-schedulable on speed s
//     if sum of utilizations <= |S| (2^{1/|S|} - 1) s  (>= ln(2) s).
//     Sufficient, not necessary.
//   * RMS hyperbolic bound (Bini & Buttazzo 2003, extension beyond the
//     paper): S is RM-schedulable on speed s if prod(u_i/s + 1) <= 2.
//     Strictly dominates Liu–Layland; still only sufficient.
// The exact fixed-priority test (response-time analysis) lives in core/rta.h.
#pragma once

#include <cstddef>
#include <span>

namespace hetsched {

// n (2^{1/n} - 1); the Liu–Layland utilization bound for n tasks under
// rate-monotonic priorities.  Decreases monotonically from 1.0 (n=1) towards
// ln 2 ~= 0.6931.  Returns 1.0 for n == 0 (an empty machine accepts).
// A pure function of n (gnu::const), so the compiler evaluates it once
// for all the probes of one admission_slack threshold search.
[[gnu::const]] double rms_liu_layland_bound(std::size_t n);

// ln 2: the limit of the Liu–Layland bound, usable for any task count.
double rms_utilization_limit();

// EDF: exact test, total utilization against machine speed.
bool edf_feasible(double total_utilization, double speed);

// RMS via Liu–Layland: sufficient test on the task-count-aware bound.
// `n` is the number of tasks whose utilizations sum to total_utilization.
bool rms_ll_feasible(double total_utilization, std::size_t n, double speed);

// RMS via the hyperbolic bound: prod(u_i / speed + 1) <= 2.  Sufficient.
bool rms_hyperbolic_feasible(std::span<const double> utilizations,
                             double speed);

}  // namespace hetsched
