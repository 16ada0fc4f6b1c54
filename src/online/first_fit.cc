// Implementation of the batch first-fit API (partition/first_fit.h).
//
// All three batch entry points — first_fit_partition, first_fit_accepts and
// min_feasible_alpha — run on one allocation-free scratch engine: the
// canonical (utilization-descending) order, then first fit over the
// per-machine slack array.  The tree engine keeps a finger on the machine
// the last task went to: a task that no machine left of the finger can
// take (w > left_max) and that the finger admits goes there in O(1), with
// its slack left stale; only the other tasks refresh the finger's slack
// and descend the SlackTree.  In the canonical order almost every task
// takes the fast path, so a run costs O(n) predicate evaluations plus one
// O(log m) descent per finger move.  OnlinePartitioner
// (online/online_partitioner.h) is the online engine and decides through
// the same primitives of partition/admission.h and SlackTree, so the batch
// and online paths make bit-identical decisions;
// tests/online_equivalence_test.cpp pins that across seeded instances, and
// in audit builds each engine checks the other.
// kRmsResponseTime has no slack form and runs a MachineLoad scan.
#include "partition/first_fit.h"

#include <iomanip>
#include <limits>
#include <span>
#include <sstream>

#include "obs/metrics.h"
#include "online/online_partitioner.h"
#include "partition/audit.h"
#include "util/check.h"

#if HETSCHED_AUDIT_ENABLED
#include <algorithm>
#include <utility>
#include <vector>
#endif

namespace hetsched {

namespace {

// Pre-registered handle (lint rule [metric-handle]), bumped once per run.
const obs::Counter g_fast_path_total = obs::registry().counter(
    "hetsched_first_fit_fast_path_total",
    "batch first-fit placements decided at the finger without a descent");

// Fills scratch.utils and scratch.order.  The order is the exact
// permutation TaskSet::order_by_utilization_desc produces, so every engine
// consumes tasks in the same sequence.
// HETSCHED_NOALLOC (scratch warm-up; allocation-free once warm)
void prepare_order(const TaskSet& tasks, PartitionScratch& s) {
  const std::size_t n = tasks.size();
  s.utils.resize(n);
  for (std::size_t i = 0; i < n; ++i) s.utils[i] = tasks[i].utilization();
  tasks.order_by_utilization_desc(s.order);
}

// Resets the per-machine state (capacity, sums, slacks) for one run.
// Capacity is computed exactly as MachineLoad's constructor computes it.
// HETSCHED_NOALLOC (scratch warm-up; allocation-free once warm)
void reset_machines(const Platform& platform, AdmissionKind kind, double alpha,
                    PartitionScratch& s) {
  const std::size_t m = platform.size();
  s.capacity.resize(m);
  s.util_sum.resize(m);
  s.hyper.resize(m);
  s.count.resize(m);
  s.slack.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    s.capacity[j] = platform.speed(j) * alpha;
    s.util_sum[j] = 0.0;
    s.hyper[j] = 1.0;
    s.count[j] = 0;
    s.slack[j] = admission_slack(kind, s.capacity[j], 0.0, 0, 1.0);
  }
}

// Runs first fit over the prepared order using the resolved engine.
// Returns the position in s.order of the first task that fits nowhere, or
// s.order.size() if all fit.  When `assignment` is non-null,
// assignment[i] receives each placed task's machine.
//
// kNaive scans the slack array from machine 0 for every task.  kSegmentTree
// runs the frontier: `f` is the machine the last task went to and
// `left_max` the largest slack over machines [0, f).  The slacks of [0, f)
// are exact and unchanged since the descent that set f, so f is the
// leftmost machine admitting w iff w > left_max and f admits w.  The fast
// path tests exactly that with admission_admits, which equals
// (w <= admission_slack(...)) bit for bit, folds the task into f's state
// and leaves f's slack stale.  Every other task first makes f's slack and
// tree leaf exact, then descends as the naive scan would search, so both
// engines place every task on the same machine.  On return every slack
// and tree leaf is exact again.
// HETSCHED_NOALLOC
std::size_t run_slack_engine(AdmissionKind kind, PartitionEngine resolved,
                             PartitionScratch& s,
                             std::size_t* assignment = nullptr) {
  const std::size_t m = s.slack.size();
  const std::size_t n = s.order.size();
  if (resolved == PartitionEngine::kNaive) {
    for (std::size_t pos = 0; pos < n; ++pos) {
      const std::size_t i = s.order[pos];
      const double w = s.utils[i];
      std::size_t j = 0;
      while (j < m && !(w <= s.slack[j])) ++j;
      if (j == m) return pos;
      admission_fold_step(kind, w, s.capacity[j], s.util_sum[j], s.hyper[j],
                          s.count[j], s.slack[j]);
      if (assignment != nullptr) assignment[i] = j;
    }
    return n;
  }
  s.tree.build(s.slack);
  std::size_t f = 0;  // machine 0 is the leftmost, so [0, f) starts empty
  double left_max = -std::numeric_limits<double>::infinity();
  bool stale = false;  // f's slack lags its folded state
  const auto flush = [&] {
    if (!stale) return;
    s.slack[f] = admission_slack(kind, s.capacity[f], s.util_sum[f],
                                 s.count[f], s.hyper[f]);
    s.tree.update(f, s.slack[f]);
    stale = false;
  };
  std::size_t fast = 0;
  std::size_t pos = 0;
  for (; pos < n; ++pos) {
    const std::size_t i = s.order[pos];
    const double w = s.utils[i];
    if (w > left_max && admission_admits(kind, w, s.capacity[f], s.util_sum[f],
                                         s.count[f], s.hyper[f])) {
      ++fast;
    } else {
      flush();
      const std::size_t j = s.tree.find_first_at_least(w, left_max);
      if (j == SlackTree::npos) break;
      f = j;
    }
    admission_fold_state(w, s.capacity[f], s.util_sum[f], s.hyper[f],
                         s.count[f]);
    stale = true;
    if (assignment != nullptr) assignment[i] = f;
  }
  flush();
  HETSCHED_COUNT_ADD(g_fast_path_total, fast);
  return pos;
}

// First fit through MachineLoad for kinds without a slack form
// (kRmsResponseTime); allocates.  Returns the stop position in `order` as
// run_slack_engine does.  When `out` is non-null, fills its assignment,
// per-machine loads and per-machine task lists.
std::size_t run_machine_loads(const TaskSet& tasks, const Platform& platform,
                              AdmissionKind kind, double alpha,
                              std::span<const std::size_t> order,
                              PartitionResult* out) {
  std::vector<MachineLoad> loads;
  loads.reserve(platform.size());
  for (std::size_t j = 0; j < platform.size(); ++j) {
    loads.emplace_back(kind, platform.speed_exact(j), alpha);
  }
  std::size_t pos = 0;
  for (; pos < order.size(); ++pos) {
    const std::size_t i = order[pos];
    const Task& t = tasks[i];
    std::size_t j = 0;
    while (j < loads.size() && !loads[j].can_admit(t)) ++j;
    if (j == loads.size()) break;
    loads[j].admit(t);
    if (out != nullptr) out->assignment[i] = j;
  }
  if (out != nullptr) {
    out->machine_utilization.resize(loads.size());
    out->tasks_per_machine.resize(loads.size());
    for (std::size_t j = 0; j < loads.size(); ++j) {
      out->machine_utilization[j] = loads[j].utilization();
      out->tasks_per_machine[j] = loads[j].take_tasks();
    }
  }
  return pos;
}

#if HETSCHED_AUDIT_ENABLED
// Independent oracle for the scratch engine: replays `order` through a
// fresh OnlinePartitioner, stopping at the first rejection as first fit
// does.  Returns the stop position; `assignment` gets each placed task's
// machine (platform.size() for the rest).
std::size_t audit_online_replay(const TaskSet& tasks, const Platform& platform,
                                AdmissionKind kind, double alpha,
                                PartitionEngine engine,
                                std::span<const std::size_t> order,
                                std::vector<std::size_t>& assignment) {
  OnlinePartitioner replay(platform, kind, alpha, engine);
  replay.reserve(order.size());
  assignment.assign(tasks.size(), platform.size());
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const AdmitDecision d = replay.admit(tasks[order[pos]]);
    if (!d.admitted) return pos;
    assignment[order[pos]] = d.machine;
  }
  return order.size();
}
#endif

// Accept probe assuming scratch.order / scratch.utils are already prepared
// for `tasks` (the bisection hoists the sort out of the loop).
// HETSCHED_NOALLOC (slack-form kinds; the RTA fallback allocates)
bool accepts_prepared(const TaskSet& tasks, const Platform& platform,
                      AdmissionKind kind, double alpha, PartitionScratch& s,
                      PartitionEngine engine) {
  bool verdict;
  if (!admission_has_slack_form(kind)) {
    verdict = run_machine_loads(tasks, platform, kind, alpha, s.order,
                                nullptr) == tasks.size();
  } else {
    reset_machines(platform, kind, alpha, s);
    const PartitionEngine resolved = resolve_engine(engine, kind);
    verdict = run_slack_engine(kind, resolved, s) == tasks.size();
  }
  // Shadow oracles: the decision-only scratch verdict must match an online
  // controller replay (the other engine) and the opposite slack engine.
  HETSCHED_AUDIT_HOOK(
      std::vector<std::size_t> replayed;
      const bool oracle =
          audit_online_replay(tasks, platform, kind, alpha, engine, s.order,
                              replayed) == tasks.size();
      HETSCHED_CHECK_MSG(verdict == oracle,
                         "audit: scratch verdict diverged from online replay");
      if (admission_has_slack_form(kind)) {
        const PartitionEngine other =
            resolve_engine(engine, kind) == PartitionEngine::kSegmentTree
                ? PartitionEngine::kNaive
                : PartitionEngine::kSegmentTree;
        PartitionScratch fresh;
        prepare_order(tasks, fresh);
        reset_machines(platform, kind, alpha, fresh);
        const bool cross =
            run_slack_engine(kind, other, fresh) == tasks.size();
        HETSCHED_CHECK_MSG(verdict == cross,
                           "audit: engines disagree on accept verdict");
      });
  return verdict;
}

}  // namespace

std::string PartitionResult::to_string() const {
  std::ostringstream os;
  os << hetsched::to_string(kind) << " alpha=" << alpha << " ";
  // Fixed precision so CSV-diffing benches are stable across libstdc++
  // versions (default double formatting is not).
  os << std::fixed << std::setprecision(6);
  if (feasible) {
    os << "FEASIBLE loads=[";
    for (std::size_t j = 0; j < machine_utilization.size(); ++j) {
      if (j > 0) os << ",";
      os << machine_utilization[j];
    }
    os << "]";
  } else {
    os << "INFEASIBLE failed_task=";
    if (failed_task) {
      os << *failed_task;
    } else {
      os << "none";
    }
    os << " w=" << failed_utilization;
  }
  return os.str();
}

PartitionResult first_fit_partition(const TaskSet& tasks,
                                    const Platform& platform,
                                    AdmissionKind kind, double alpha,
                                    PartitionEngine engine) {
  HETSCHED_CHECK(platform.size() >= 1);
  HETSCHED_CHECK(alpha >= 1.0);
  const std::size_t n = tasks.size();
  const std::size_t m = platform.size();
  PartitionResult out;
  out.kind = kind;
  out.alpha = alpha;
  out.assignment.assign(n, m);

  // Per-thread scratch, reused across calls: only the result allocates.
  thread_local PartitionScratch s;
  prepare_order(tasks, s);
  std::size_t stop;
  if (!admission_has_slack_form(kind)) {
    stop = run_machine_loads(tasks, platform, kind, alpha, s.order, &out);
  } else {
    reset_machines(platform, kind, alpha, s);
    stop = run_slack_engine(kind, resolve_engine(engine, kind), s,
                            out.assignment.data());
    // util_sum is the fold MachineLoad::utilization() reports, in the same
    // order, so the loads are bit-identical to the controller's.
    out.machine_utilization.assign(s.util_sum.begin(), s.util_sum.end());
    out.tasks_per_machine.resize(m);
    for (std::size_t j = 0; j < m; ++j) {
      out.tasks_per_machine[j].reserve(s.count[j]);
    }
    for (std::size_t pos = 0; pos < stop; ++pos) {
      const std::size_t i = s.order[pos];
      out.tasks_per_machine[out.assignment[i]].push_back(tasks[i]);
    }
  }
  // On failure the (partial) loads stay exposed: the proofs reason about
  // exactly this state.
  if (stop < n) {
    out.failed_task = s.order[stop];
    out.failed_utilization = s.utils[s.order[stop]];
  }
  out.feasible = !out.failed_task.has_value();
  HETSCHED_AUDIT_HOOK(
      std::vector<std::size_t> replayed;
      const std::size_t replay_stop = audit_online_replay(
          tasks, platform, kind, alpha, engine, s.order, replayed);
      HETSCHED_CHECK_MSG(replay_stop == stop && replayed == out.assignment,
                         "audit: batch partition diverged from online replay"));
  return out;
}

bool first_fit_accepts(const TaskSet& tasks, const Platform& platform,
                       AdmissionKind kind, double alpha) {
  PartitionScratch scratch;
  return first_fit_accepts(tasks, platform, kind, alpha, scratch);
}

// HETSCHED_NOALLOC (slack-form kinds, warm scratch; RTA fallback allocates)
bool first_fit_accepts(const TaskSet& tasks, const Platform& platform,
                       AdmissionKind kind, double alpha,
                       PartitionScratch& scratch, PartitionEngine engine) {
  HETSCHED_CHECK(platform.size() >= 1);
  HETSCHED_CHECK(alpha >= 1.0);
  prepare_order(tasks, scratch);
  return accepts_prepared(tasks, platform, kind, alpha, scratch, engine);
}

std::optional<double> min_feasible_alpha(const TaskSet& tasks,
                                         const Platform& platform,
                                         AdmissionKind kind, double alpha_hi,
                                         double tol) {
  PartitionScratch scratch;
  return min_feasible_alpha(tasks, platform, kind, alpha_hi, scratch,
                            PartitionEngine::kAuto, tol);
}

std::optional<double> min_feasible_alpha(const TaskSet& tasks,
                                         const Platform& platform,
                                         AdmissionKind kind, double alpha_hi,
                                         PartitionScratch& scratch,
                                         PartitionEngine engine, double tol) {
  HETSCHED_CHECK(platform.size() >= 1);
  HETSCHED_CHECK(alpha_hi >= 1.0);
  HETSCHED_CHECK(tol > 0);
  prepare_order(tasks, scratch);
#if HETSCHED_AUDIT_ENABLED
  // Audit builds record every (alpha, verdict) the bisection observes and
  // assert at the end that the samples are consistent with acceptance
  // being monotone in alpha: no accepted alpha below a rejected one.
  // First-fit acceptance is not provably monotone (see the header caveat),
  // so a firing here is a genuine research find, not necessarily a bug.
  std::vector<std::pair<double, bool>> audit_probes;
#endif
  const auto probe = [&](double alpha) {
    const bool ok =
        accepts_prepared(tasks, platform, kind, alpha, scratch, engine);
#if HETSCHED_AUDIT_ENABLED
    audit_probes.emplace_back(alpha, ok);
#endif
    return ok;
  };
#if HETSCHED_AUDIT_ENABLED
  const auto audit_monotone = [&] {
    double min_accept = std::numeric_limits<double>::infinity();
    double max_reject = -std::numeric_limits<double>::infinity();
    for (const auto& [alpha, ok] : audit_probes) {
      if (ok) {
        min_accept = std::min(min_accept, alpha);
      } else {
        max_reject = std::max(max_reject, alpha);
      }
    }
    HETSCHED_CHECK_MSG(
        min_accept >= max_reject,
        "audit: bisection observed non-monotone acceptance in alpha");
  };
#endif
  if (probe(1.0)) return 1.0;
  if (!probe(alpha_hi)) return std::nullopt;
  double lo = 1.0, hi = alpha_hi;  // reject at lo, accept at hi
  while (hi - lo > tol) {
    const double mid = 0.5 * (lo + hi);
    if (probe(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  HETSCHED_AUDIT_HOOK(audit_monotone());
  return hi;
}

}  // namespace hetsched
