// Workload definitions and the two run modes of the benchmark binary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "admit/admission_test.h"
#include "common.h"
#include "gen/churn_gen.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cli;       // hetsched_cli executable
  std::string work_dir;  // per-run scratch directory (WAL, port files)
  std::string spans_out;  // where the traced run writes its spans
  std::vector<int> server_cpus;
  std::vector<int> gen_cpus;
};

// A service workload: seeded churn traces (one per shard, one connection
// per shard, four shards) driven open-loop against a separate
// `hetsched_cli serve --listen` process with one event loop.
struct ServiceSpec {
  std::string name;
  std::size_t machines = 8;
  double ratio = 1.5;
  hetsched::admit::AdmitConfig admit;  // kLegacy = implicit-deadline EDF
  bool wal = false;                    // --wal-dir + --wal-sync batch
  hetsched::ChurnSpec churn;           // per-shard trace model
  // Per shard: decisions written to the WAL by the untimed population run
  // (WAL workloads only) and untimed warm-up requests before measuring.
  std::size_t population_ops = 0;
  std::size_t warm_ops = 0;
  double nominal_rate = 0;  // total requests/s
  double peak_rate = 0;
  std::vector<double> ladder;  // ascending total requests/s
  double limit_us = 1000;      // p99 limit a ladder rate must meet
  double window_s = 0.5;       // nominal/top-rate latency window
  // A ladder step is three chunks of `chunk_samples` requests each (at
  // least `min_chunk_s` long), so every chunk p99 rests on the same count.
  std::size_t chunk_samples = 20000;
  double min_chunk_s = 0.05;
};

// Restricts the calling thread (and what it forks) to `cpus`.
void pin_to(const std::vector<int>& cpus);

ServiceSpec churn_wal_spec();
ServiceSpec constrained_auto_spec();

RunResult run_service(const ServiceSpec& spec, const RunOptions& opt);
RunResult run_offline_ff(const RunOptions& opt);

}  // namespace perfbench
