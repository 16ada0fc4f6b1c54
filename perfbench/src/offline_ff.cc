// offline-ff: the paper's first-fit test in-process on large seeded
// UUniFast instances (n = 16384 tasks, m = 128 machines), under EDF at
// alpha = 2 (Theorem I.1) and RMS-LL at alpha = 2.41 (Theorem I.2).
#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "admit/admission_test.h"
#include "gen/churn_gen.h"
#include "gen/platform_gen.h"
#include "gen/taskset_gen.h"
#include "io/text_format.h"
#include "ledger.h"
#include "partition/engine.h"
#include "online/online_partitioner.h"
#include "partition/first_fit.h"
#include "service.h"
#include "util/rng.h"

namespace perfbench {

namespace fs = std::filesystem;
using hetsched::AdmissionKind;
using hetsched::Instance;
using hetsched::PartitionEngine;
using hetsched::PartitionResult;

namespace {

constexpr std::size_t kTasks = 16384;
constexpr std::size_t kMachines = 128;
constexpr std::size_t kInstances = 64;
constexpr std::size_t kFindBatchSize = 1024;
constexpr double kAlphaHi = 4.0;

struct Config {
  AdmissionKind kind;
  double alpha;
};
constexpr Config kConfigs[] = {{AdmissionKind::kEdf, 2.0},
                               {AdmissionKind::kRmsLiuLayland, 2.41}};

// Instance k loads the platform to a stratified share of its capacity, so
// the accepted share barely depends on the seed while UUniFast randomizes
// how the load splits into tasks.
std::vector<std::string> write_instances(std::uint64_t seed,
                                         const std::string& dir) {
  std::vector<std::string> paths;
  for (std::size_t k = 0; k < kInstances; ++k) {
    hetsched::Rng rng(derive_seed(seed, 2, k));
    Instance inst;
    inst.platform = hetsched::uniform_platform(rng, kMachines, 1.0, 8.0);
    hetsched::TasksetSpec ts;
    ts.n = kTasks;
    ts.total_utilization =
        inst.platform.total_speed() *
        (0.9 + 1.2 * (static_cast<double>(k) + 0.5) / kInstances);
    inst.tasks = hetsched::generate_taskset(rng, ts);
    paths.push_back(dir + "/instance-" + std::to_string(k) + ".txt");
    hetsched::save_instance(inst, paths.back());
  }
  return paths;
}

bool load_all(const std::vector<std::string>& paths,
              std::vector<Instance>* out) {
  out->clear();
  for (const std::string& p : paths) {
    auto parsed = hetsched::load_instance(p);
    if (!parsed.ok()) return false;
    out->push_back(std::move(*parsed.value));
  }
  return true;
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace

RunResult run_offline_ff(const RunOptions& opt) {
  RunResult res;
  Metrics& m = res.metrics;
  pin_to(opt.gen_cpus);
  const std::string dir = opt.work_dir + "/instances";
  fs::create_directories(dir);
  const std::vector<std::string> paths = write_instances(opt.seed, dir);

  // Set-up: parse every instance and run one warm-up test; median of 5.
  std::vector<Instance> insts;
  std::vector<double> setups;
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t t0 = now_ns();
    if (!load_all(paths, &insts)) {
      res.fail_check("cannot parse a generated instance");
      return res;
    }
    const PartitionResult warm = hetsched::first_fit_partition(
        insts[0].tasks, insts[0].platform, kConfigs[0].kind, kConfigs[0].alpha);
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    res.info.set("warmup_feasible", warm.feasible ? 1.0 : 0.0);
  }
  m.set("setup_s", median(setups), "s");

  // Reference verdicts from the naive engine, outside any timed region.
  const std::size_t tests = insts.size() * std::size(kConfigs);
  std::vector<PartitionResult> reference(tests);
  for (std::size_t t = 0; t < tests; ++t) {
    const Instance& in = insts[t / std::size(kConfigs)];
    const Config& c = kConfigs[t % std::size(kConfigs)];
    reference[t] = hetsched::first_fit_partition(in.tasks, in.platform, c.kind,
                                                 c.alpha, PartitionEngine::kNaive);
  }
  auto check = [&](std::size_t t, const PartitionResult& r) {
    if (r.feasible != reference[t].feasible ||
        r.assignment != reference[t].assignment) {
      res.fail_check("first-fit verdict differs from the naive engine");
    }
  };

  // Timed: first_fit_partition per (instance, configuration), in rounds
  // that run every test once.  Untraced runs give the whole run to it;
  // traced runs give half to min_feasible_alpha below.
  std::vector<double> lat_us, round_p50_us, round_s;
  std::size_t accepted = 0;
  const double t_tests = (opt.trace ? 0.5 : 1.0) * opt.seconds;
  const std::uint64_t start = now_ns();
  for (std::size_t round = 0;
       now_ns() - start < static_cast<std::uint64_t>(t_tests * 1e9); ++round) {
    const std::size_t first = lat_us.size();
    const std::uint64_t r0 = now_ns();
    for (std::size_t t = 0; t < tests; ++t) {
      const Instance& in = insts[t / std::size(kConfigs)];
      const Config& c = kConfigs[t % std::size(kConfigs)];
      const std::uint64_t t0 = now_ns();
      const PartitionResult r =
          hetsched::first_fit_partition(in.tasks, in.platform, c.kind, c.alpha);
      lat_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      if (round == 0) {
        accepted += r.feasible ? 1 : 0;
        check(t, r);
      }
    }
    round_s.push_back(static_cast<double>(now_ns() - r0) * 1e-9);
    round_p50_us.push_back(
        median(std::vector<double>(lat_us.begin() + first, lat_us.end())));
  }

  // min_feasible_alpha, the heaviest single test: timed in traced runs
  // (tail.p99_peak_us), one checked pass otherwise.
  std::vector<double> alpha_us;
  hetsched::PartitionScratch scratch;
  const double t_alpha = opt.trace ? 0.5 * opt.seconds : 0.0;
  const std::uint64_t start2 = now_ns();
  for (std::size_t i = 0;
       i < tests || now_ns() - start2 < static_cast<std::uint64_t>(t_alpha * 1e9);
       ++i) {
    const std::size_t t = i % tests;
    const Instance& in = insts[t / std::size(kConfigs)];
    const Config& c = kConfigs[t % std::size(kConfigs)];
    const std::uint64_t t0 = now_ns();
    const std::optional<double> a = hetsched::min_feasible_alpha(
        in.tasks, in.platform, c.kind, kAlphaHi, scratch);
    alpha_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    if (i < tests && a &&
        !hetsched::first_fit_accepts(in.tasks, in.platform, c.kind, *a)) {
      res.fail_check("min_feasible_alpha returned a rejected alpha");
    }
  }

  res.attempted = lat_us.size() + alpha_us.size();
  res.failed = 0;
  // Floors, as on the service workloads: host state moves every round's
  // median by 10-25% for minutes at a time, and the floor moves least.
  // p50 is the median over tests of each test's fastest run (one run per
  // round); throughput is the fastest round's.
  std::vector<double> best_us(tests, 0.0);
  for (std::size_t t = 0; t < tests; ++t) {
    best_us[t] = lat_us[t];
    for (std::size_t i = t; i < lat_us.size(); i += tests) {
      best_us[t] = std::min(best_us[t], lat_us[i]);
    }
  }
  m.set("p50_us", median(best_us), "us");
  m.set("throughput_per_s",
        static_cast<double>(tests) / quantile(round_s, 0.0), "1/s");
  m.set("tail.p99_us", quantile(lat_us, 0.99), "us");
  m.set("tail.p99_peak_us", quantile(alpha_us, 0.99), "us");
  m.set("success_pct", 100.0, "%");
  m.set("acceptance_pct",
        100.0 * static_cast<double>(accepted) / static_cast<double>(tests), "%");
  m.set("peak_rss_mb", self_peak_rss_mb(), "MiB");
  res.info.set("workload", "offline-ff");
  res.info.set("instances", static_cast<double>(insts.size()));
  res.info.set("tasks_per_instance", static_cast<double>(kTasks));
  res.info.set("machines", static_cast<double>(kMachines));
  res.info.set("test_samples", static_cast<double>(lat_us.size()));
  double best_sum_us = 0.0;
  for (const double b : best_us) best_sum_us += b;
  res.info.set("best_sum_per_s", static_cast<double>(tests) * 1e6 / best_sum_us);
  res.info.set("min_alpha_samples", static_cast<double>(alpha_us.size()));
  // The spread of the rounds shows how much host noise the run saw.
  for (const auto& [name, per_round] :
       {std::pair{"round_p50_us", &round_p50_us}, std::pair{"round_ms", &round_s}}) {
    const double scale = per_round == &round_s ? 1e3 : 1.0;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%zu rounds, q0 %.2f q05 %.2f q10 %.2f q25 %.2f q50 %.2f max %.2f",
                  per_round->size(), scale * quantile(*per_round, 0.0),
                  scale * quantile(*per_round, 0.05), scale * quantile(*per_round, 0.1),
                  scale * quantile(*per_round, 0.25), scale * quantile(*per_round, 0.5),
                  scale * quantile(*per_round, 1.0));
    res.info.set(name, buf);
  }

  if (opt.trace) {
    // The same calls with a span around each, plus the batch entry points
    // the e2e loop does not time separately.
    Ledger ledger(true);
    std::vector<double> off_s, on_s;
    for (int rep = 0; rep < 2; ++rep) {
      for (const bool on : {false, true}) {
        // Both traced passes pay for spans; the last one's are kept.
        Ledger off(false), discarded(true);
        Ledger& lg = !on ? off : rep == 1 ? ledger : discarded;
        const std::uint64_t t0 = now_ns();
        for (std::size_t t = 0; t < tests; ++t) {
          const Instance& in = insts[t / std::size(kConfigs)];
          const Config& c = kConfigs[t % std::size(kConfigs)];
          const std::uint32_t h = lg.begin(Stage::kFirstFit, t);
          const PartitionResult r = hetsched::first_fit_partition(
              in.tasks, in.platform, c.kind, c.alpha);
          lg.end(h);
          if (r.feasible != reference[t].feasible) {
            res.fail_check("traced verdict differs from the naive engine");
          }
        }
        (on ? on_s : off_s).push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      }
    }
    for (std::size_t t = 0; t < tests; ++t) {
      const Instance& in = insts[t / std::size(kConfigs)];
      const Config& c = kConfigs[t % std::size(kConfigs)];
      std::uint32_t h = ledger.begin(Stage::kAccepts, t);
      const bool ok = hetsched::first_fit_accepts(in.tasks, in.platform, c.kind,
                                                  c.alpha, scratch);
      ledger.end(h);
      if (ok != reference[t].feasible) {
        res.fail_check("first_fit_accepts differs from the naive engine");
      }
      h = ledger.begin(Stage::kMinAlpha, t);
      hetsched::min_feasible_alpha(in.tasks, in.platform, c.kind, kAlphaHi,
                                   scratch);
      ledger.end(h);
    }
    // SlackTree descent: leftmost machine with slack >= w over m = 128.
    hetsched::Rng rng(derive_seed(opt.seed, 3, 0));
    std::vector<double> slack(kMachines), queries(kFindBatchSize);
    for (double& s : slack) s = rng.uniform(0.0, 8.0);
    for (double& w : queries) w = rng.uniform(0.0, 8.0);
    hetsched::SlackTree tree;
    tree.build(slack);
    std::size_t sink = 0;
    for (std::uint64_t b = 0; b < 200; ++b) {
      const std::uint32_t h = ledger.begin(Stage::kFindBatch, b);
      for (const double w : queries) sink += tree.find_first_at_least(w);
      ledger.end(h);
    }
    res.info.set("slacktree_checksum", static_cast<double>(sink % 1000003));
    // The tiered admission layer (src/admit), which the batch path never
    // escalates into: a seeded churn stream, 70% constrained deadlines,
    // through OnlinePartitioner under `auto` on 16 machines (geometric
    // 1.1).  The admit.* metrics come from these spans.
    {
      hetsched::Rng trng(derive_seed(opt.seed, 4, 0));
      hetsched::ChurnSpec cs;
      cs.arrivals = 4000;
      cs.arrival_rate = 4.0;
      cs.constrained_fraction = 0.7;
      const hetsched::ChurnTrace trace = hetsched::generate_churn_trace(trng, cs);
      hetsched::admit::AdmitConfig cfg;
      cfg.test = hetsched::admit::TestKind::kAuto;
      hetsched::OnlinePartitioner ctl(hetsched::geometric_platform(16, 1.1),
                                      AdmissionKind::kEdf, 1.0,
                                      PartitionEngine::kAuto, cfg);
      std::vector<hetsched::OnlineTaskId> ids(trace.arrivals,
                                              hetsched::kInvalidOnlineTaskId);
      std::size_t escalated = 0, esc_accept = 0;
      for (const hetsched::ChurnEvent& ev : trace.events) {
        if (ev.kind == hetsched::ChurnEvent::Kind::kArrival) {
          const std::uint32_t h = ledger.begin(Stage::kAdmit, ev.task);
          const hetsched::AdmitDecision d = ctl.admit(ev.params);
          ledger.end(h, d.tier);
          if (d.admitted) ids[ev.task] = d.id;
          if (d.tier > 0) {
            ++escalated;
            esc_accept += d.admitted ? 1 : 0;
          }
        } else if (ids[ev.task] != hetsched::kInvalidOnlineTaskId) {
          ctl.depart(ids[ev.task]);
        }
      }
      set_admit_metrics(ledger, escalated, esc_accept, m);
    }
    auto q = [](std::vector<double> v, double p) { return quantile(v, p); };
    const auto ff = ledger.durations(Stage::kFirstFit);
    m.set("partition.ff_us_p50", q(ff, 0.5) * 1e-3, "us");
    m.set("partition.ff_us_p99", q(ff, 0.99) * 1e-3, "us");
    m.set("partition.accepts_us_p50",
          q(ledger.durations(Stage::kAccepts), 0.5) * 1e-3, "us");
    m.set("partition.min_alpha_us_p50",
          q(ledger.durations(Stage::kMinAlpha), 0.5) * 1e-3, "us");
    m.set("partition.slacktree_find_ns_p50",
          q(ledger.durations(Stage::kFindBatch), 0.5) / kFindBatchSize, "ns");
    const double off_med = median(off_s);
    m.set("trace.overhead_pct",
          off_med > 0 ? (median(on_s) - off_med) / off_med * 100.0 : 0.0, "%");
    if (!opt.spans_out.empty()) ledger.write_jsonl(opt.spans_out);
  }
  fs::remove_all(dir);
  return res;
}

}  // namespace perfbench
