// Observability overhead benchmark.  The instrumentation is compiled into
// every build, so what is left to measure is the price of its runtime
// gates, in one process, on one warm controller:
//
//   1. Disarmed: trace ring and spans off (the default `serve`).  The
//      always-on counters and 1-in-kLatencySamplePeriod latency samples
//      are part of this baseline.
//   2. Trace ring armed (`--trace-out`): every admit writes one event,
//      including one clock read.  Reported, not gated — the cost is the
//      host's clock source, which ranges from a few ns (bare metal) to
//      ~30 ns (virtualized vDSO); clock_read_ns makes it interpretable.
//   3. Spans armed (`serve --tracing`) with 1 admit in 64 traced (the
//      server's per-request pattern — a clock pair plus one span-ring
//      write, paid only by traced requests): p50 within 8% of the
//      disarmed cell.
//
// Every armed cell recomputes a decision checksum — machine choices,
// utilization bits, resident counts, folded with FNV-1a — that must match
// the disarmed run bit for bit: the instrumentation may observe, never
// steer.  Writes BENCH_obs.json to the cwd; exits 1 on a checksum
// mismatch or (unless --no-target-gate) a missed latency bound.
//
// Methodology: one deterministic controller is warmed until every admit
// reuses a freed slot (the HETSCHED_NOALLOC warm path).  Each timed rep
// admits a batch of kBatch tasks (one clock read per batch, so the clock
// does not dilute a ~40 ns admit), then departs them untimed to restore
// the freelist.  The per-admit sample is batch_ns / kBatch; reps reduce
// through stats::summarize like every other bench.  Transient machine
// noise (frequency scaling, co-tenants) would otherwise dominate a few-ns
// effect, so the measurement runs several independent rounds and reports
// the round with the smallest p50 — min-of-medians, the usual estimator
// for "the cost when the machine is quiet".
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gen/platform_gen.h"
#include "gen/taskset_gen.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "online/online_partitioner.h"
#include "util/rng.h"
#include "util/stats.h"

namespace hetsched {
namespace {

constexpr std::size_t kMachines = 64;
constexpr std::size_t kBatch = 4096;
// 1 admit in 64 traced in the span cell — the sampling rate a tracing
// client would realistically stamp, and a power of two so the modulo in
// the timed loop is a mask.
constexpr std::size_t kTracePeriod = 64;

TaskSet make_tasks(std::size_t n) {
  Rng rng(0x0B5);
  const Platform p = geometric_platform(
      kMachines, std::min(1.2, 1.0 + 8.0 / static_cast<double>(kMachines)));
  TasksetSpec spec;
  spec.n = n;
  spec.max_task_utilization = p.max_speed();
  // Light total load: the point is warm-path latency, not rejection.
  spec.total_utilization = 0.2 * p.total_speed();
  spec.periods = PeriodSpec::log_uniform(10, 1000);
  return generate_taskset(rng, spec);
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

// Deterministic decision replay over admit / depart / rebalance; the
// resulting checksum must be identical in every cell (the instrumentation
// may observe, never steer).
std::uint64_t decision_checksum(const TaskSet& tasks, const Platform& pf) {
  OnlinePartitioner ctl(pf, AdmissionKind::kEdf, 2.0);
  ctl.reserve(tasks.size());
  std::uint64_t h = 0xCBF29CE484222325ULL;
  std::vector<OnlineTaskId> ids;
  std::vector<Task> admitted;
  for (const Task& t : tasks) {
    const AdmitDecision d = ctl.admit(t);
    h = fnv1a(h, d.admitted ? 1 : 0);
    h = fnv1a(h, d.admitted ? d.machine : 0);
    h = fnv1a(h, std::bit_cast<std::uint64_t>(d.utilization));
    if (d.admitted) {
      ids.push_back(d.id);
      admitted.push_back(t);
    }
  }
  // Depart every other resident, rebalance, re-admit them (warm slots),
  // then fold the final state into the checksum.
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    h = fnv1a(h, ctl.depart(ids[i]) ? 1 : 0);
  }
  const RebalanceReport r1 = ctl.rebalance();
  h = fnv1a(h, (std::uint64_t{r1.applied} << 32) | r1.migrations);
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    const AdmitDecision d = ctl.admit(admitted[i]);
    h = fnv1a(h, d.admitted ? 1 : 0);
    h = fnv1a(h, d.admitted ? d.machine : 0);
  }
  h = fnv1a(h, ctl.resident_count());
  for (std::size_t j = 0; j < ctl.machine_count(); ++j) {
    h = fnv1a(h, ctl.machine_task_count(j));
    h = fnv1a(h, std::bit_cast<std::uint64_t>(ctl.machine_utilization(j)));
  }
  return h;
}

// Warm-admit latency: admit kBatch tasks into freed slots, one clock pair
// per batch; depart untimed between reps.  The loop carries the server's
// span instrumentation: while spans are armed every kTracePeriod-th admit
// is traced, otherwise the same code pays only the gate load.  Returns the
// summary of the round with the smallest p50 (see the header comment).
Summary warm_admit_summary(const TaskSet& tasks, const Platform& pf,
                           int reps, int rounds) {
  OnlinePartitioner ctl(pf, AdmissionKind::kEdf, 2.0);
  ctl.reserve(kBatch);
  std::vector<OnlineTaskId> ids;
  ids.reserve(kBatch);
  // Warm-up: reach the slot high-water mark, then free everything so all
  // subsequent admits reuse slots.
  for (std::size_t i = 0; i < kBatch; ++i) {
    const AdmitDecision d = ctl.admit(tasks[i % tasks.size()]);
    if (d.admitted) ids.push_back(d.id);
  }
  for (const OnlineTaskId id : ids) ctl.depart(id);
  ids.clear();

  Summary best;
  std::vector<double> samples;
  for (int round = 0; round < rounds; ++round) {
    samples.clear();
    samples.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps + 1; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < kBatch; ++i) {
        std::uint64_t sp_trace = 0;
        std::uint64_t sp_t0 = 0;
        if ((i & (kTracePeriod - 1)) == 0 && obs::span_enabled()) {
          sp_trace = i + 1;
          sp_t0 = obs::now_ns();
        }
        const AdmitDecision d = ctl.admit(tasks[i % tasks.size()]);
        if (d.admitted) ids.push_back(d.id);
        HETSCHED_SPAN_RECORD(sp_trace, obs::span_next_id(), 0,
                             obs::SpanStage::kWarmAdmit, sp_t0,
                             obs::now_ns());
      }
      const auto t1 = std::chrono::steady_clock::now();
      for (const OnlineTaskId id : ids) ctl.depart(id);
      ids.clear();
      if (r == 0) continue;  // rep 0 re-warms after the round gap
      samples.push_back(
          std::chrono::duration<double, std::nano>(t1 - t0).count() /
          static_cast<double>(kBatch));
    }
    const Summary s = summarize(samples);
    if (round == 0 || s.p50 < best.p50) best = s;
  }
  return best;
}

// Median cost of one steady_clock read.  The armed trace ring stamps one
// timestamp per admit, so on hosts with a slow clock source (virtualized
// vDSO: tens of ns) the clock dominates that cell's overhead — report it
// so the numbers are interpretable across machines.
double clock_read_cost_ns() {
  double best = 0;
  for (int round = 0; round < 5; ++round) {
    constexpr int kReads = 200000;
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t acc = 0;
    for (int i = 0; i < kReads; ++i) acc += obs::now_ns();
    const auto t1 = std::chrono::steady_clock::now();
    if (acc == 0) return 0;  // defeat dead-code elimination
    const double per =
        std::chrono::duration<double, std::nano>(t1 - t0).count() / kReads;
    if (round == 0 || per < best) best = per;
  }
  return best;
}

// One measured cell: its warm-admit summary and whether its decisions
// matched the disarmed run.
struct Cell {
  Summary s;
  bool checksum_match = true;
};

}  // namespace
}  // namespace hetsched

int main(int argc, char** argv) {
  using namespace hetsched;
  int reps = 31;
  int rounds = 51;  // ~250 ms: wide enough to catch a quiet window
  bool gate = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      reps = 9;
      rounds = 3;
    }
    if (arg == "--no-target-gate") gate = false;
  }

  std::printf("obs overhead benchmark: best of %d rounds x %d reps of %zu "
              "warm admits\n",
              rounds, reps, kBatch);

  const TaskSet tasks = make_tasks(kBatch);
  const Platform pf = geometric_platform(
      kMachines, std::min(1.2, 1.0 + 8.0 / static_cast<double>(kMachines)));

  const double clock_ns = clock_read_cost_ns();
  std::printf("steady_clock read: %.1f ns (one per admit with the trace "
              "ring armed)\n",
              clock_ns);

  const std::uint64_t checksum = decision_checksum(tasks, pf);
  // Measures one cell with `arm` flipping its runtime gate on and off.
  auto measure = [&](const char* label, void (*arm)(bool)) {
    Cell c;
    arm(true);
    c.s = warm_admit_summary(tasks, pf, reps, rounds);
    c.checksum_match = decision_checksum(tasks, pf) == checksum;
    arm(false);
    std::printf("warm admit ns/op (%s): %s, checksum %s\n", label,
                c.s.to_string().c_str(),
                c.checksum_match ? "match" : "MISMATCH");
    return c;
  };
  const Cell disarmed = measure("disarmed", [](bool) {});
  const Cell ring = measure("trace ring armed", obs::set_trace_enabled);
  const Cell spans =
      measure("spans armed, 1/64 traced", obs::set_span_enabled);
  std::printf("decision checksum: %016llx\n",
              static_cast<unsigned long long>(checksum));

  const auto pct_over = [&](const Cell& c) {
    return disarmed.s.p50 > 0
               ? (c.s.p50 - disarmed.s.p50) / disarmed.s.p50 * 100.0
               : 0.0;
  };
  const double ring_pct = pct_over(ring);
  const double traced_pct = pct_over(spans);
  const bool checksum_match = disarmed.checksum_match &&
                              ring.checksum_match && spans.checksum_match;
  const bool target_met = checksum_match && traced_pct < 8.0;

  char csbuf[32];
  std::snprintf(csbuf, sizeof(csbuf), "%016llx",
                static_cast<unsigned long long>(checksum));
  std::ostringstream json;
  json << "{\n  \"benchmark\": \"obs_overhead\",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"batch\": " << kBatch << ",\n"
       << "  \"clock_read_ns\": " << clock_ns << ",\n"
       << "  \"warm_admit_p50_ns\": " << disarmed.s.p50 << ",\n"
       << "  \"warm_admit_p95_ns\": " << disarmed.s.p95 << ",\n"
       << "  \"warm_admit_p99_ns\": " << disarmed.s.p99 << ",\n"
       << "  \"trace_ring_p50_ns\": " << ring.s.p50 << ",\n"
       << "  \"trace_ring_overhead_pct\": " << ring_pct << ",\n"
       << "  \"warm_admit_traced_p50_ns\": " << spans.s.p50 << ",\n"
       << "  \"trace_period\": " << kTracePeriod << ",\n"
       << "  \"traced_overhead_pct\": " << traced_pct << ",\n"
       << "  \"checksum_match\": " << (checksum_match ? "true" : "false")
       << ",\n  \"decision_checksum\": \"" << csbuf << "\",\n"
       << "  \"target\": \"spans armed (1/" << kTracePeriod
       << " traced) warm-admit p50 < 8% over disarmed; identical decisions "
          "in every cell\",\n"
       << "  \"target_met\": " << (target_met ? "true" : "false")
       << "\n}\n";
  if (std::ofstream f{"BENCH_obs.json"}) {
    f << json.str();
    std::printf("[json: BENCH_obs.json]\n");
  }

  if (!checksum_match) {
    std::fprintf(stderr, "an armed cell changed the decision checksum\n");
    return 1;
  }
  if (traced_pct >= 8.0) {
    std::fprintf(stderr,
                 "spans-armed warm-admit p50 overhead %.2f%% >= 8%% over "
                 "disarmed\n",
                 traced_pct);
    if (gate) return 1;
  }
  return 0;
}
