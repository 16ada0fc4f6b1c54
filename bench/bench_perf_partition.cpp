// Machine-readable engine benchmark: naive scan vs. segment tree.
//
// Emits BENCH_partition.json (working directory) with one record per
// (n, m, kind) cell: median ns per full partition for both engines plus the
// decision-only accept path, and the tree/naive speedup.  CI smoke-runs
// this binary.  It reports and does not gate: wall clock depends on the
// host, so the engine's work target is a counted ctest instead
// (FrontierEngine.DescentsStayUnderFivePercentOfPlacements in
// tests/engine_test.cpp).  The committed BENCH_partition.json in the repo
// root is an older record.
//
// Methodology: per cell we build one deterministic workload (same generator
// as bench_e5_runtime), warm up once, then run `reps` timed repetitions of
// the full partitioner and report the median — medians are robust to the
// occasional scheduler hiccup without needing google-benchmark's adaptive
// iteration machinery, and the JSON stays trivially parseable.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gen/platform_gen.h"
#include "gen/taskset_gen.h"
#include "partition/first_fit.h"
#include "util/rng.h"

namespace hetsched {
namespace {

struct Workload {
  TaskSet tasks;
  Platform platform;
};

// Mirrors bench_e5_runtime's make_workload so the two benchmarks describe
// the same distribution.
Workload make_workload(std::size_t n, std::size_t m) {
  Rng rng(0xE5 + n * 31 + m);
  Workload w;
  w.platform =
      geometric_platform(m, std::min(1.2, 1.0 + 8.0 / static_cast<double>(m)));
  TasksetSpec spec;
  spec.n = n;
  spec.max_task_utilization = w.platform.max_speed();
  spec.total_utilization =
      std::min(0.7 * w.platform.total_speed(),
               0.3 * static_cast<double>(n) * spec.max_task_utilization);
  spec.periods = PeriodSpec::log_uniform(10, 1000);
  w.tasks = generate_taskset(rng, spec);
  return w;
}

// The shared kernel's interpolated p50 reproduces the classic midpoint
// median exactly (odd n: the middle sample; even n: the mean of the two
// middle samples), so routing through it changes no reference numbers.
template <typename Fn>
double time_ns(Fn&& fn, int reps) {
  return bench::time_summary_ns(fn, reps).p50;
}

struct Cell {
  std::size_t n = 0;
  std::size_t m = 0;
  AdmissionKind kind = AdmissionKind::kEdf;
  double alpha = 2.0;
  double naive_ns = 0;
  double tree_ns = 0;
  double accepts_ns = 0;
  bool feasible = false;
  double speedup() const { return naive_ns / tree_ns; }
};

Cell run_cell(std::size_t n, std::size_t m, AdmissionKind kind, double alpha,
              int reps) {
  const Workload w = make_workload(n, m);
  Cell cell;
  cell.n = n;
  cell.m = m;
  cell.kind = kind;
  cell.alpha = alpha;

  const PartitionResult naive_res =
      first_fit_partition(w.tasks, w.platform, kind, alpha,
                          PartitionEngine::kNaive);
  const PartitionResult tree_res =
      first_fit_partition(w.tasks, w.platform, kind, alpha,
                          PartitionEngine::kSegmentTree);
  if (naive_res.feasible != tree_res.feasible) {
    std::fprintf(stderr, "ENGINE MISMATCH at n=%zu m=%zu\n", n, m);
    std::exit(1);
  }
  cell.feasible = tree_res.feasible;

  cell.naive_ns = time_ns(
      [&] {
        const PartitionResult r = first_fit_partition(
            w.tasks, w.platform, kind, alpha, PartitionEngine::kNaive);
        if (r.feasible != cell.feasible) std::exit(2);
      },
      reps);
  cell.tree_ns = time_ns(
      [&] {
        const PartitionResult r = first_fit_partition(
            w.tasks, w.platform, kind, alpha, PartitionEngine::kSegmentTree);
        if (r.feasible != cell.feasible) std::exit(2);
      },
      reps);
  PartitionScratch scratch;
  cell.accepts_ns = time_ns(
      [&] {
        if (first_fit_accepts(w.tasks, w.platform, kind, alpha, scratch) !=
            cell.feasible) {
          std::exit(2);
        }
      },
      reps);
  return cell;
}

void append_json(std::string& out, const Cell& c) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"n\": %zu, \"m\": %zu, \"kind\": \"%s\", \"alpha\": %.3f, "
      "\"feasible\": %s, \"naive_ns\": %.0f, \"tree_ns\": %.0f, "
      "\"accepts_ns\": %.0f, \"speedup_tree_vs_naive\": %.2f}",
      c.n, c.m, to_string(c.kind).c_str(), c.alpha,
      c.feasible ? "true" : "false",
      c.naive_ns, c.tree_ns, c.accepts_ns, c.speedup());
  out += buf;
}

}  // namespace
}  // namespace hetsched

int main(int argc, char** argv) {
  using namespace hetsched;
  // --quick: CI smoke mode; fewer reps, same grid.
  int reps = 21;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") reps = 5;
  }

  struct Spec {
    std::size_t n, m;
    AdmissionKind kind;
    double alpha;
  };
  const std::vector<Spec> grid = {
      {1024, 32, AdmissionKind::kEdf, 2.0},
      {4096, 64, AdmissionKind::kEdf, 2.0},
      {16384, 128, AdmissionKind::kEdf, 2.0},
      {16384, 512, AdmissionKind::kEdf, 2.0},
      {16384, 128, AdmissionKind::kRmsLiuLayland, 2.41},
      {16384, 128, AdmissionKind::kRmsHyperbolic, 2.41},
  };

  std::printf("engine benchmark: naive scan vs segment tree (%d reps/cell)\n",
              reps);
  std::printf("%8s %6s %18s %12s %12s %12s %9s\n", "n", "m", "kind",
              "naive(us)", "tree(us)", "accepts(us)", "speedup");

  std::string json = "{\n  \"benchmark\": \"partition_engines\",\n"
                     "  \"reps_per_cell\": " + std::to_string(reps) +
                     ",\n  \"cells\": [\n";
  bool first = true;
  for (const Spec& s : grid) {
    const Cell c = run_cell(s.n, s.m, s.kind, s.alpha, reps);
    std::printf("%8zu %6zu %18s %12.1f %12.1f %12.1f %8.2fx\n", c.n, c.m,
                to_string(c.kind).c_str(), c.naive_ns / 1e3, c.tree_ns / 1e3,
                c.accepts_ns / 1e3, c.speedup());
    if (!first) json += ",\n";
    first = false;
    append_json(json, c);
  }
  json += "\n  ]\n}\n";

  const char* path = "BENCH_partition.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("[json: %s]\n", path);
  }
  return 0;
}
