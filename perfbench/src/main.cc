// Benchmark binary: runs one named workload with a seed and prints every
// metric by name with its unit.  run.py builds this binary and calls it;
// see perfbench/NOTES.md for the workloads and the metric ledger.
//
//   hsbench --workload churn-wal|constrained-auto|offline-ff
//       --seed N --seconds S --trace 0|1 --cli PATH --work-dir DIR
//       [--server-cpus 0,1,2] [--gen-cpus 3] [--spans-out FILE]
//
// The last stdout line is the result object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics from the
// traced replay (--trace 1).  Exit 0 when every correctness check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "service.h"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"p50_us", "us"},      {"throughput_per_s", "1/s"},
    {"success_pct", "%"},  {"acceptance_pct", "%"},
    {"setup_s", "s"},      {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"net.decode_ns_p50", "ns"},
    {"net.encode_ns_p50", "ns"},
    {"net.frames_per_batch", "count"},
    {"net.inline_frac", "ratio"},
    {"net.server_cpu_us_per_op", "us"},
    {"net.retried_frac", "ratio"},
    {"net.partial_writes", "count"},
    {"net.rtt_idle_us_p50", "us"},
    {"net.unattributed_us_p50", "us"},
    {"online.admit_ns_p50", "ns"},
    {"online.admit_ns_p99", "ns"},
    {"online.admit_ns_p999", "ns"},
    {"online.depart_ns_p50", "ns"},
    {"online.depart_ns_p99", "ns"},
    {"admit.tier0_frac", "ratio"},
    {"admit.tier1_frac", "ratio"},
    {"admit.tier2_frac", "ratio"},
    {"admit.tier1_us_p99", "us"},
    {"admit.tier2_us_p50", "us"},
    {"admit.tier2_us_p99", "us"},
    {"admit.tier2_us_p999", "us"},
    {"admit.escalated_accept_frac", "ratio"},
    {"io.wal_append_ns_p50", "ns"},
    {"io.wal_commit_us_p50", "us"},
    {"io.wal_commit_us_p99", "us"},
    {"io.fsync_us_p50", "us"},
    {"io.fsync_us_p99", "us"},
    {"io.records_per_commit", "count"},
    {"io.wal_bytes_per_op", "B"},
    {"io.snapshot_write_ms", "ms"},
    {"shard_store.recover_ms", "ms"},
    {"partition.ff_us_p50", "us"},
    {"partition.ff_us_p99", "us"},
    {"partition.accepts_us_p50", "us"},
    {"partition.min_alpha_us_p50", "us"},
    {"partition.slacktree_find_ns_p50", "ns"},
    {"tail.p99_us", "us"},
    {"tail.p99_peak_us", "us"},
    {"loadgen.late_us_p99", "us"},
    {"trace.overhead_pct", "%"},
};

std::vector<int> parse_cpus(const std::string& s) {
  std::vector<int> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(std::atoi(tok.c_str()));
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: hsbench --workload W --seed N --seconds S "
               "--trace 0|1 --cli PATH --work-dir DIR [--server-cpus LIST] "
               "[--gen-cpus LIST] [--spans-out FILE]\n");
  return 2;
}

}  // namespace

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Info::json() const {
  std::string out = "{\"info\": {";
  bool first = true;
  for (const auto& [k, v] : text_) {
    out += (first ? "" : ", ") + json_string(k) + ": " + json_string(v);
    first = false;
  }
  for (const auto& [k, v] : num_) {
    out += (first ? "" : ", ") + json_string(k) + ": " + json_number(v);
    first = false;
  }
  return out + "}}";
}

int main_impl(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    if (k.rfind("--", 0) != 0) return usage();
    args[k.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1 || !args.count("workload") || !args.count("cli") ||
      !args.count("work-dir")) {
    return usage();
  }
  RunOptions opt;
  opt.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  opt.seconds = args.count("seconds") ? std::atof(args["seconds"].c_str()) : 10;
  opt.trace = args["trace"] == "1";
  opt.cli = args["cli"];
  opt.work_dir = args["work-dir"];
  opt.spans_out = args["spans-out"];
  opt.server_cpus = parse_cpus(args["server-cpus"]);
  opt.gen_cpus = parse_cpus(args["gen-cpus"]);
  if (opt.seconds <= 0) return usage();

  const std::string& w = args["workload"];
  RunResult res;
  if (w == "churn-wal") {
    res = run_service(churn_wal_spec(), opt);
  } else if (w == "constrained-auto") {
    res = run_service(constrained_auto_spec(), opt);
  } else if (w == "offline-ff") {
    res = run_offline_ff(opt);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", w.c_str());
    return 2;
  }
  // Every metric of the mode is printed; a layer a workload leaves idle
  // reads 0 (per-layer metrics only).
  std::string metrics;
  const auto emit = [&](const MetricDef& d) {
    const auto& vals = res.metrics.values();
    const auto it = vals.find(d.name);
    const double v = it == vals.end() ? 0.0 : it->second.first;
    metrics += (metrics.empty() ? "" : ", ") + json_string(d.name) +
               ": {\"value\": " + json_number(v) +
               ", \"unit\": " + json_string(d.unit) + "}";
  };
  if (opt.trace) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) {
      if (!res.metrics.values().count(d.name)) {
        res.fail_check(std::string("end-to-end metric not measured: ") + d.name);
      }
      emit(d);
    }
  }
  if (!res.correct) res.info.set("incorrect", res.why_incorrect);
  std::printf("%s\n", res.info.json().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              res.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(res.attempted, 1)),
              static_cast<unsigned long long>(res.failed), metrics.c_str());
  std::fflush(stdout);
  if (!res.correct) {
    std::fprintf(stderr, "correctness check failed: %s\n",
                 res.why_incorrect.c_str());
    return 1;
  }
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::main_impl(argc, argv); }
