// hetsched_cli — command-line front end for the library.
//
//   hetsched_cli test <file> [--admission KIND] [--alpha X] [--engine E]
//       Run the first-fit feasibility test and print the partition or the
//       failure certificate.
//   hetsched_cli certify <file>
//       Run all the paper's certificates (Theorems I.1-I.4 plus the
//       Andersson-Tovar baselines) and report each verdict.
//   hetsched_cli augment <file> [--admission KIND] [--engine E]
//       Report the minimum speed augmentation for first-fit acceptance and
//       the exact LP lower bound.
//   hetsched_cli simulate <file> [--policy edf|rm] [--alpha X]
//       Partition, then replay the exact schedule and print per-machine
//       statistics.
//   hetsched_cli sensitivity <file> [--admission KIND] [--alpha X]
//       For an accepted system, print each task's execution-budget slack
//       (the largest WCET scale factor that keeps the test accepting).
//   hetsched_cli generate --n N --m M --util U [--seed S] [--ratio R]
//       Emit a random instance in the text format (UUniFast-Discard tasks
//       on a geometric platform).
//   hetsched_cli generate-trace --arrivals N --m M [--rate L] [--seed S]
//       Emit a random churn trace (Poisson arrivals, bounded-Pareto
//       lifetimes) in the trace format.
//   hetsched_cli replay <tracefile> [--admission KIND] [--alpha X]
//       [--engine E] [--rebalance-every N] [--stats] [--trace-out FILE]
//       [--admission-test T] [--admit-band X] [--release-overhead N]
//       [--preempt-overhead N]
//       Replay a churn trace through the online admission controller and
//       report acceptance ratio, regret vs the clairvoyant batch re-pack,
//       and migration counts.  --stats appends the end-of-trace metrics
//       snapshot (see below); --trace-out records per-decision events and
//       writes them as JSONL.
//   hetsched_cli serve --listen <host:port> [--shards N] [--loops L]
//       [--admission KIND] [--alpha X] [--engine E] [--queue-depth D]
//       [--batch K] [--batch-min K]
//       [--machines M] [--ratio R | --platform FILE] [--port-file FILE]
//       [--stats-interval SECONDS] [--trace-out FILE] [--admission-test T]
//       [--admit-band X] [--release-overhead N] [--preempt-overhead N]
//       Run the sharded TCP admission service (src/net/, Linux only) on
//       the given address (port 0 picks an ephemeral port, written to
//       --port-file for scripts).  --listen is required: `serve` without
//       it exits 2 (use `replay` to run a trace through one controller).
//       Each shard serves an independent copy of the platform (--platform
//       takes an instance file; otherwise a geometric platform of
//       --machines M and --ratio R).  --loops sets the event-loop
//       (acceptor) thread count; 0 = one per core, capped by the shard
//       count.  Each loop has its own listen socket (SO_REUSEPORT when
//       there is more than one).  The per-round drain budget adapts
//       between --batch-min and --batch frames.  --stats-interval prints
//       a metrics snapshot every N seconds.  SIGINT/SIGTERM drain the
//       shard queues, flush responses and the final snapshot, and exit 0.
//       Durability: --wal-dir DIR logs every decision to per-shard WALs
//       before its response is sent and recovers from DIR on start;
//       --wal-sync always|batch|off picks the fsync policy (default
//       batch), --snapshot-every N bounds replay by snapshotting a shard
//       after N logged decisions (default 65536, 0 = never mid-run).
//       Observability: --http HOST:PORT serves GET /metrics and
//       GET /healthz on a side port (port written to --http-port-file);
//       --tracing arms span recording so traced frames (protocol minor
//       2) are sampled into `tracez`; --slo-us N sets the per-shard
//       latency SLO for the net_slo_ok/net_slo_breach burn counters
//       (default 1000).  SIGUSR1 dumps the per-shard flight recorder to
//       --flight-dump PATH (default <wal-dir>/flight.jsonl, or
//       ./flight.jsonl without a WAL dir) and keeps serving; the same
//       dump fires from a fatal-signal handler on SIGSEGV/SIGBUS/
//       SIGABRT before the process dies.
//   hetsched_cli stats <host:port> [--timeout-ms N]
//       Fetch and print the live metrics exposition from a running
//       serve --listen instance over the binary protocol (kGetStats).
//   hetsched_cli tracez <host:port> [--slowest K] [--timeout-ms N]
//       Fetch the K slowest reassembled traces (JSONL, one trace per
//       line) from a running server (kGetTracez; needs a server started
//       with --tracing to be non-empty).
//   hetsched_cli recover --wal-dir DIR [--shards N] [--admission KIND]
//       [--alpha X] [--engine E] [--machines M] [--ratio R |
//       --platform FILE] [--admission-test T] [--admit-band X]
//       [--release-overhead N] [--preempt-overhead N]
//       Offline crash recovery: rebuild every shard controller found in
//       DIR from its newest valid snapshot plus the WAL tail, verify the
//       decision stream record by record (seq + FNV-1a checksum), rotate
//       the logs (fresh snapshot, truncated WAL), and print a per-shard
//       summary.  The admission configuration must match what the logs
//       were written under: recover parses serve's controller flags with
//       the same code and defaults.
//       Exits non-zero if any shard's log fails verification.  When DIR
//       holds a flight-recorder dump (flight.jsonl — written by SIGUSR1
//       or the crash handler), its tail is printed with the summary.
//
// Metrics snapshot format (README "Observability"): Prometheus-style
// text — # HELP / # TYPE comments, counter and gauge samples, histogram
// cumulative buckets with _sum/_count — plus one "# percentiles <name>
// p50=... p95=... p99=... p999=..." comment per latency histogram.
//
// Instance file format: see src/io/text_format.h.
// Trace file format: see src/io/trace_format.h (arrive lines may carry an
// optional trailing <deadline> token for constrained-deadline tasks).
// Admission kinds: edf (default), rms-ll, rms-hb, rms-rta.
// Admission tests (--admission-test, replay/serve/recover): legacy
// (default, implicit deadlines only), bound, dbf-approx, qpa, rta, auto —
// the tiered constrained-deadline selector of src/admit/; auto escalates
// density-bound rejects through the approximate DBF to exact QPA only
// inside the --admit-band uncertainty band (default 0.5).
// --release-overhead / --preempt-overhead inflate every WCET by the
// admission-time overhead model before any test runs.
// Engines: auto (default), naive, tree — bit-identical results; "naive" is
// the paper's O(n m) scan, "tree" the O(n log m) segment tree.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "hetsched/hetsched.h"
#include "io/obs_jsonl.h"
#include "io/snapshot_format.h"
#include "io/text_format.h"
#include "io/trace_format.h"
#include "io/wal.h"
#include "net/client.h"
#include "net/http_introspect.h"
#include "net/server.h"
#include "net/shard_store.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace hetsched {
namespace {

int usage() {
  std::fprintf(stderr,
               "usage: hetsched_cli <test|certify|augment|simulate|"
               "sensitivity|generate|generate-trace|replay|serve|recover|"
               "stats|tracez> "
               "[args]\n  see the header of tools/hetsched_cli.cpp\n");
  return 2;
}

// Minimal --flag value parser; positional args collected separately.
// Boolean flags never consume the next token, so "replay --stats t.trace"
// keeps t.trace positional.  "--flag=value" and "--flag value" are
// equivalent.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  static bool boolean_flag(const std::string& key) {
    return key == "stats" || key == "quick" || key == "tracing";
  }

  static Args parse(int argc, char** argv, int from) {
    Args a;
    for (int i = from; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        const std::string key = arg.substr(2);
        const std::size_t eq = key.find('=');
        if (eq != std::string::npos) {
          a.flags[key.substr(0, eq)] = key.substr(eq + 1);
          continue;
        }
        const bool next_is_flag =
            i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) == 0;
        if (!boolean_flag(key) && i + 1 < argc && !next_is_flag) {
          a.flags[key] = argv[++i];
        } else {
          a.flags[key] = "";
        }
      } else {
        a.positional.push_back(arg);
      }
    }
    return a;
  }

  bool has(const std::string& key) const { return flags.count(key) > 0; }

  std::string get(const std::string& key, const std::string& dflt) const {
    const auto it = flags.find(key);
    return it == flags.end() ? dflt : it->second;
  }
  double get_double(const std::string& key, double dflt) const {
    const auto it = flags.find(key);
    return it == flags.end() ? dflt : std::atof(it->second.c_str());
  }
  long get_long(const std::string& key, long dflt) const {
    const auto it = flags.find(key);
    return it == flags.end() ? dflt : std::atol(it->second.c_str());
  }
};

std::optional<AdmissionKind> admission_from_name(const std::string& name) {
  if (name == "edf") return AdmissionKind::kEdf;
  if (name == "rms-ll") return AdmissionKind::kRmsLiuLayland;
  if (name == "rms-hb") return AdmissionKind::kRmsHyperbolic;
  if (name == "rms-rta") return AdmissionKind::kRmsResponseTime;
  return std::nullopt;
}

std::optional<PartitionEngine> engine_flag(const Args& args) {
  return engine_from_name(args.get("engine", "auto"));
}

// --admission-test=auto|bound|dbf-approx|qpa|rta (default: legacy, the
// implicit-deadline bound), plus the tiered-selector knobs --admit-band,
// --release-overhead, --preempt-overhead.  False = bad flag value.
bool admit_config_flag(const Args& args, admit::AdmitConfig* out) {
  const auto test = admit::test_from_name(args.get("admission-test", "legacy"));
  if (!test) {
    std::fprintf(stderr,
                 "error: --admission-test must be "
                 "legacy|bound|dbf-approx|qpa|rta|auto\n");
    return false;
  }
  out->test = *test;
  out->band = args.get_double("admit-band", out->band);
  out->release_overhead = args.get_long("release-overhead", 0);
  out->preempt_overhead = args.get_long("preempt-overhead", 0);
  if (out->band < 0 || out->release_overhead < 0 || out->preempt_overhead < 0) {
    std::fprintf(stderr, "error: admission-test knobs must be non-negative\n");
    return false;
  }
  return true;
}

std::optional<Instance> load_or_complain(const std::string& path) {
  auto parsed = load_instance(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.error->to_string().c_str());
    return std::nullopt;
  }
  return std::move(parsed.value);
}

// What a shard controller is built from.  serve --listen and recover parse
// it with the same code, so recover rebuilds shards under exactly the
// configuration serve logged them with.
struct ControllerConfig {
  Platform platform;
  AdmissionKind kind = AdmissionKind::kEdf;
  double alpha = 1.0;
  PartitionEngine engine = PartitionEngine::kAuto;
  admit::AdmitConfig admit;
};

// --platform FILE or --machines M --ratio R, --admission, --alpha,
// --engine, and the --admission-test flags.  Returns 0, or the exit code
// for a bad flag (2) or an unreadable platform file (1).
int controller_config_flags(const Args& args, ControllerConfig* out) {
  const auto kind = admission_from_name(args.get("admission", "edf"));
  if (!kind) return usage();
  const auto engine = engine_flag(args);
  if (!engine) return usage();
  out->kind = *kind;
  out->engine = *engine;
  out->alpha = args.get_double("alpha", 1.0);
  if (!admit_config_flag(args, &out->admit)) return 2;
  const std::string platform_file = args.get("platform", "");
  if (!platform_file.empty()) {
    const auto inst = load_or_complain(platform_file);
    if (!inst) return 1;
    out->platform = inst->platform;
  } else {
    const auto m = static_cast<std::size_t>(args.get_long("machines", 4));
    const double ratio = args.get_double("ratio", 1.5);
    if (m == 0 || ratio < 1.0) return usage();
    out->platform = geometric_platform(m, ratio);
  }
  return 0;
}

int cmd_test(const Args& args) {
  if (args.positional.empty()) return usage();
  const auto inst = load_or_complain(args.positional[0]);
  if (!inst) return 1;
  const auto kind = admission_from_name(args.get("admission", "edf"));
  if (!kind) return usage();
  const double alpha = args.get_double("alpha", 1.0);
  const auto engine = engine_flag(args);
  if (!engine) return usage();

  const PartitionResult res =
      first_fit_partition(inst->tasks, inst->platform, *kind, alpha, *engine);
  std::printf("%s\n", res.to_string().c_str());
  if (res.feasible) {
    for (std::size_t j = 0; j < inst->platform.size(); ++j) {
      std::printf("machine %zu (speed %s): load %.4f, %zu tasks\n", j,
                  inst->platform.speed_exact(j).to_string().c_str(),
                  res.machine_utilization[j],
                  res.tasks_per_machine[j].size());
    }
  }
  return res.feasible ? 0 : 1;
}

int cmd_certify(const Args& args) {
  if (args.positional.empty()) return usage();
  const auto inst = load_or_complain(args.positional[0]);
  if (!inst) return 1;

  struct Cert {
    const char* name;
    AdmissionKind kind;
    double alpha;
    const char* accept_means;
    const char* reject_means;
  };
  const Cert certs[] = {
      {"raw EDF (alpha=1)", AdmissionKind::kEdf, 1.0,
       "partitioned-EDF-schedulable as-is", "greedy test needs augmentation"},
      {"Thm I.1 EDF (alpha=2)", AdmissionKind::kEdf,
       EdfConstants::kAlphaPartitioned, "schedulable on 2x-faster cores",
       "no partitioned scheduler works"},
      {"Thm I.3 EDF (alpha=2.98)", AdmissionKind::kEdf, EdfConstants::kAlphaLp,
       "schedulable on 2.98x-faster cores",
       "even migrating schedulers fail"},
      {"A-T [2] EDF (alpha=3)", AdmissionKind::kEdf, 3.0,
       "schedulable on 3x-faster cores",
       "even migrating schedulers fail (prior art)"},
      {"raw RMS-LL (alpha=1)", AdmissionKind::kRmsLiuLayland, 1.0,
       "RM-partition certified as-is", "LL-certified partition needs speedup"},
      {"Thm I.2 RMS (alpha=2.414)", AdmissionKind::kRmsLiuLayland,
       RmsConstants::kAlphaPartitioned, "RM-schedulable on 2.414x cores",
       "no partitioned scheduler works"},
      {"Thm I.4 RMS (alpha=3.34)", AdmissionKind::kRmsLiuLayland,
       RmsConstants::kAlphaLp, "RM-schedulable on 3.34x cores",
       "even migrating schedulers fail"},
      {"A-T [3] RMS (alpha=3.41)", AdmissionKind::kRmsLiuLayland, 3.41,
       "RM-schedulable on 3.41x cores",
       "even migrating schedulers fail (prior art)"},
  };
  for (const Cert& c : certs) {
    const bool ok =
        first_fit_accepts(inst->tasks, inst->platform, c.kind, c.alpha);
    std::printf("%-28s %-7s (%s)\n", c.name, ok ? "ACCEPT" : "REJECT",
                ok ? c.accept_means : c.reject_means);
  }
  std::printf("LP (migrating) feasible: %s\n",
              lp_feasible_oracle(inst->tasks, inst->platform) ? "yes" : "no");
  return 0;
}

int cmd_augment(const Args& args) {
  if (args.positional.empty()) return usage();
  const auto inst = load_or_complain(args.positional[0]);
  if (!inst) return 1;
  const auto kind = admission_from_name(args.get("admission", "edf"));
  if (!kind) return usage();
  const auto engine = engine_flag(args);
  if (!engine) return usage();

  PartitionScratch scratch;
  const auto alpha = min_feasible_alpha(inst->tasks, inst->platform, *kind,
                                        32.0, scratch, *engine, 1e-6);
  const double lp = min_lp_augmentation(inst->tasks, inst->platform);
  if (alpha) {
    std::printf("first-fit %s minimum alpha: %.6f\n",
                to_string(*kind).c_str(), *alpha);
  } else {
    std::printf("first-fit %s: not feasible even at alpha = 32\n",
                to_string(*kind).c_str());
  }
  std::printf("LP lower bound (no scheduler below this): %.6f\n", lp);
  return 0;
}

int cmd_simulate(const Args& args) {
  if (args.positional.empty()) return usage();
  const auto inst = load_or_complain(args.positional[0]);
  if (!inst) return 1;
  const std::string policy_name = args.get("policy", "edf");
  const double alpha = args.get_double("alpha", 1.0);
  const bool rm = policy_name == "rm";
  if (!rm && policy_name != "edf") return usage();

  const AdmissionKind kind =
      rm ? AdmissionKind::kRmsLiuLayland : AdmissionKind::kEdf;
  const PartitionResult res =
      first_fit_partition(inst->tasks, inst->platform, kind, alpha);
  if (!res.feasible) {
    std::printf("partitioning failed (task w=%.4f fits nowhere)\n",
                res.failed_utilization);
    return 1;
  }
  std::vector<Rational> speeds;
  const Rational ar = rational_from_double(alpha, 1'000'000);
  for (std::size_t j = 0; j < inst->platform.size(); ++j) {
    speeds.push_back(inst->platform.speed_exact(j) * ar);
  }
  const PartitionSimOutcome sim = simulate_partition(
      res.tasks_per_machine, speeds,
      rm ? SchedPolicy::kFixedPriorityRm : SchedPolicy::kEdf);
  std::printf("verdict: %s\n",
              sim.schedulable ? "all deadlines met" : "DEADLINE MISS");
  for (std::size_t j = 0; j < sim.per_machine.size(); ++j) {
    const SimOutcome& o = sim.per_machine[j];
    std::printf(
        "machine %zu: horizon %lld, %lld jobs, %lld preempts, busy %s%s\n", j,
        static_cast<long long>(o.horizon),
        static_cast<long long>(o.jobs_released),
        static_cast<long long>(o.preemptions), o.busy_time.to_string().c_str(),
        o.horizon_exhausted ? " [job cap hit: no miss observed, not a proof]"
                            : "");
  }
  return sim.schedulable ? 0 : 1;
}

int cmd_sensitivity(const Args& args) {
  if (args.positional.empty()) return usage();
  const auto inst = load_or_complain(args.positional[0]);
  if (!inst) return 1;
  const auto kind = admission_from_name(args.get("admission", "edf"));
  if (!kind) return usage();
  const double alpha = args.get_double("alpha", 1.0);

  if (!first_fit_accepts(inst->tasks, inst->platform, *kind, alpha)) {
    std::printf("system not accepted at alpha=%.3f: no slack to report\n",
                alpha);
    return 1;
  }
  const auto slack = exec_sensitivity(inst->tasks, inst->platform, *kind,
                                      alpha);
  std::printf("per-task execution-budget slack (max WCET scale keeping the "
              "%s test at alpha=%.3f green):\n",
              to_string(*kind).c_str(), alpha);
  for (const TaskSlack& s : slack) {
    const Task& t = inst->tasks[s.task_index];
    std::printf("  task %zu (c=%lld p=%lld w=%.3f): x%.3f\n", s.task_index,
                static_cast<long long>(t.exec),
                static_cast<long long>(t.period), t.utilization(),
                s.max_exec_scale);
  }
  return 0;
}

int cmd_generate(const Args& args) {
  const auto n = static_cast<std::size_t>(args.get_long("n", 16));
  const auto m = static_cast<std::size_t>(args.get_long("m", 4));
  const double norm_util = args.get_double("util", 0.7);
  const double ratio = args.get_double("ratio", 1.5);
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  if (n == 0 || m == 0 || norm_util <= 0 || ratio < 1.0) return usage();

  Rng rng(seed);
  Instance inst;
  inst.platform = geometric_platform(m, ratio);
  TasksetSpec spec;
  spec.n = n;
  spec.max_task_utilization = inst.platform.max_speed();
  spec.total_utilization =
      std::min(norm_util * inst.platform.total_speed(),
               0.35 * static_cast<double>(n) * spec.max_task_utilization);
  spec.periods = PeriodSpec::log_uniform(10, 1000);
  inst.tasks = generate_taskset(rng, spec);
  std::printf("%s", format_instance(inst).c_str());
  return 0;
}

int cmd_generate_trace(const Args& args) {
  const auto arrivals = static_cast<std::size_t>(args.get_long("arrivals", 64));
  const auto m = static_cast<std::size_t>(args.get_long("m", 4));
  const double rate = args.get_double("rate", 1.0);
  const double ratio = args.get_double("ratio", 1.5);
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  if (arrivals == 0 || m == 0 || rate <= 0 || ratio < 1.0) return usage();

  Rng rng(seed);
  ChurnInstance inst;
  inst.platform = geometric_platform(m, ratio);
  ChurnSpec spec;
  spec.arrivals = arrivals;
  spec.arrival_rate = rate;
  inst.trace = generate_churn_trace(rng, spec);
  std::printf("%s", format_trace(inst).c_str());
  return 0;
}

// Flushes the obs trace ring to --trace-out (when requested): the shared
// tail of replay and serve.
int flush_trace_ring(const std::string& trace_out) {
  if (trace_out.empty()) return 0;
  obs::set_trace_enabled(false);
  const std::vector<obs::TraceEvent> events = obs::trace_drain();
  if (!save_trace_jsonl(events, trace_out)) {
    std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
    return 1;
  }
  std::printf("[trace: %s, %zu events, %llu dropped]\n", trace_out.c_str(),
              events.size(),
              static_cast<unsigned long long>(obs::trace_dropped()));
  return 0;
}

int cmd_replay(const Args& args) {
  if (args.positional.empty()) return usage();
  auto parsed = load_trace(args.positional[0]);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.error->to_string().c_str());
    return 1;
  }
  const auto kind = admission_from_name(args.get("admission", "edf"));
  if (!kind) return usage();
  const auto engine = engine_flag(args);
  if (!engine) return usage();
  const std::string trace_out = args.get("trace-out", "");
  if (!trace_out.empty()) obs::set_trace_enabled(true);

  ChurnOptions options;
  options.kind = *kind;
  options.alpha = args.get_double("alpha", 1.0);
  options.rebalance_every =
      static_cast<std::size_t>(args.get_long("rebalance-every", 0));
  options.engine = *engine;
  if (!admit_config_flag(args, &options.admit)) return 2;
  const ChurnResult res =
      run_churn(parsed.value->platform, parsed.value->trace, options);
  std::printf("replay %s/%s alpha=%.3f: %s\n", to_string(*kind).c_str(),
              admit::to_string(options.admit.test).c_str(), options.alpha,
              res.to_string().c_str());
  std::printf("online acceptance %.4f vs clairvoyant %.4f\n",
              res.online_acceptance(), res.clairvoyant_acceptance());

  if (flush_trace_ring(trace_out) != 0) return 1;
  if (args.has("stats")) {
    std::printf("--- metrics snapshot (end of trace) ---\n%s",
                obs::registry().expose().c_str());
  }
  return 0;
}

// Live-introspection clients (protocol minor 2): one synchronous info
// call against a running `serve --listen` instance, body to stdout.
int cmd_stats(const Args& args) {
  if (args.positional.empty()) return usage();
  const int timeout = static_cast<int>(args.get_long("timeout-ms", 5000));
  net::Client client;
  std::string error;
  if (!client.connect(args.positional[0], timeout, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  net::InfoResponse info;
  if (!client.call_info(net::Request::get_stats(1), &info, timeout)) {
    std::fprintf(stderr, "error: %s\n", client.last_error().c_str());
    return 1;
  }
  std::fputs(info.text.c_str(), stdout);
  return 0;
}

int cmd_tracez(const Args& args) {
  if (args.positional.empty()) return usage();
  const auto slowest =
      static_cast<std::uint64_t>(args.get_long("slowest", 10));
  const int timeout = static_cast<int>(args.get_long("timeout-ms", 5000));
  net::Client client;
  std::string error;
  if (!client.connect(args.positional[0], timeout, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  net::InfoResponse info;
  if (!client.call_info(net::Request::get_tracez(1, slowest), &info,
                        timeout)) {
    std::fprintf(stderr, "error: %s\n", client.last_error().c_str());
    return 1;
  }
  std::printf("# %llu trace(s), slowest first\n",
              static_cast<unsigned long long>(info.value));
  std::fputs(info.text.c_str(), stdout);
  return 0;
}

// The sharded TCP admission service of src/net/.
int cmd_serve(const Args& args) {
  if (!args.has("listen")) {
    std::fprintf(stderr,
                 "error: serve requires --listen: use `serve --listen "
                 "HOST:PORT` for the network service, or `replay "
                 "<tracefile>` to run a trace through one controller\n");
    return 2;
  }
  ControllerConfig cfg;
  if (const int rc = controller_config_flags(args, &cfg); rc != 0) return rc;

  net::ServerOptions options;
  options.listen_addr = args.get("listen", "127.0.0.1:0");
  options.shards = static_cast<std::size_t>(args.get_long("shards", 1));
  options.kind = cfg.kind;
  options.alpha = cfg.alpha;
  options.engine = cfg.engine;
  options.admit = cfg.admit;
  options.loops = static_cast<std::size_t>(args.get_long("loops", 0));
  options.queue_depth =
      static_cast<std::size_t>(args.get_long("queue-depth", 1024));
  options.batch = static_cast<std::size_t>(args.get_long("batch", 64));
  options.batch_min = static_cast<std::size_t>(args.get_long("batch-min", 1));
  options.wal_dir = args.get("wal-dir", "");
  if (!io::parse_wal_sync(args.get("wal-sync", "batch"), &options.wal_sync)) {
    std::fprintf(stderr, "error: --wal-sync must be always|batch|off\n");
    return 2;
  }
  options.snapshot_every =
      static_cast<std::size_t>(args.get_long("snapshot-every", 65536));
  options.slo_ns =
      static_cast<std::uint64_t>(args.get_long("slo-us", 1000)) * 1000;
  const auto stats_interval = args.get_long("stats-interval", 0);
  const std::string trace_out = args.get("trace-out", "");
  if (!trace_out.empty()) obs::set_trace_enabled(true);
  if (args.has("tracing")) obs::set_span_enabled(true);

  // Flight recorder: SIGUSR1 dumps here on demand, and the fatal-signal
  // handler writes the same file on the way down so `recover` finds the
  // last decisions next to the WALs they were logged in.
  const std::string flight_dump =
      args.get("flight-dump", options.wal_dir.empty()
                                  ? "flight.jsonl"
                                  : options.wal_dir + "/flight.jsonl");
  obs::flight_install_crash_handler(flight_dump.c_str());

  // Block the stop signals before spawning threads so every server thread
  // inherits the mask and delivery funnels into sigtimedwait below.
  // SIGUSR1 rides the same set: delivery lands in this loop, which dumps
  // the flight recorder and keeps serving.
  sigset_t stop_set;
  sigemptyset(&stop_set);
  sigaddset(&stop_set, SIGINT);
  sigaddset(&stop_set, SIGTERM);
  sigaddset(&stop_set, SIGUSR1);
  pthread_sigmask(SIG_BLOCK, &stop_set, nullptr);

  net::Server server(cfg.platform, options);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }

  // Optional HTTP side port for Prometheus scrapes and health probes.
  // Declared after `server` (it reads stats_text()) and left up through
  // the drain so /healthz flips to 503 while the server stops.
  net::HttpIntrospect http(server);
  const std::string http_addr = args.get("http", "");
  if (!http_addr.empty()) {
    if (!http.start(http_addr, &error)) {
      std::fprintf(stderr, "error: http: %s\n", error.c_str());
      server.request_stop();
      server.wait();
      return 1;
    }
    std::printf("introspection on http port %u: /metrics /healthz\n",
                http.port());
    const std::string http_port_file = args.get("http-port-file", "");
    if (!http_port_file.empty()) {
      std::ofstream pf(http_port_file);
      pf << http.port() << "\n";
    }
  }
  std::printf("listening on port %u: %zu shard(s) of %s/%s alpha=%.3f on %zu "
              "machines (%zu loop(s), queue %zu, batch %zu-%zu)\n",
              server.port(), server.shard_count(), to_string(cfg.kind).c_str(),
              admit::to_string(cfg.admit.test).c_str(), cfg.alpha,
              cfg.platform.size(), server.loop_count(), options.queue_depth,
              options.batch_min, options.batch);
  if (!options.wal_dir.empty()) {
    const net::ServerStats rs = server.stats();
    std::printf("durability: wal-dir %s, sync %s, snapshot every %zu "
                "(%llu record(s) replayed on start)\n",
                options.wal_dir.c_str(), io::to_string(options.wal_sync),
                options.snapshot_every,
                static_cast<unsigned long long>(rs.recovered));
  }
  std::fflush(stdout);

  const std::string port_file = args.get("port-file", "");
  if (!port_file.empty()) {
    std::ofstream pf(port_file);
    pf << server.port() << "\n";
  }

  // Wait for SIGINT/SIGTERM, waking every --stats-interval seconds for a
  // snapshot.  sigtimedwait keeps this loop signal-race-free: delivery
  // can only happen here, never mid-snapshot.  SIGUSR1 dumps the flight
  // recorder and keeps serving.
  while (server.running()) {
    int sig = 0;
    if (stats_interval > 0) {
      timespec ts{};
      ts.tv_sec = static_cast<time_t>(stats_interval);
      sig = sigtimedwait(&stop_set, nullptr, &ts);
      if (sig < 0 && errno == EAGAIN) {
        std::printf("--- metrics snapshot ---\n%s",
                    obs::registry().expose().c_str());
        std::fflush(stdout);
        continue;
      }
    } else {
      sig = sigwaitinfo(&stop_set, nullptr);
    }
    if (sig == SIGUSR1) {
      if (obs::flight_dump_path(flight_dump.c_str())) {
        std::printf("[flight recorder dumped to %s]\n", flight_dump.c_str());
      } else {
        std::fprintf(stderr, "error: cannot write %s\n", flight_dump.c_str());
      }
      std::fflush(stdout);
      continue;
    }
    if (sig > 0) break;
  }

  // Graceful drain: stop accepting, answer everything queued, join.
  server.request_stop();
  server.wait();
  const net::ServerStats s = server.stats();
  std::printf("served %llu frames over %llu connections: %llu admitted, "
              "%llu rejected, %llu retried, %llu departed, %llu stale, "
              "%llu rebalances, %llu bad\n",
              static_cast<unsigned long long>(s.frames_rx),
              static_cast<unsigned long long>(s.connections),
              static_cast<unsigned long long>(s.admitted),
              static_cast<unsigned long long>(s.rejected),
              static_cast<unsigned long long>(s.retried),
              static_cast<unsigned long long>(s.departed),
              static_cast<unsigned long long>(s.stale),
              static_cast<unsigned long long>(s.rebalances),
              static_cast<unsigned long long>(s.bad));
  if (!options.wal_dir.empty() || s.resizes > 0 || s.resize_failures > 0) {
    std::printf("durability: %llu wal record(s) in %llu commit(s), "
                "%llu snapshot(s), %llu resize(s) (%llu failed), "
                "%llu forwarded depart(s)\n",
                static_cast<unsigned long long>(s.wal_records),
                static_cast<unsigned long long>(s.wal_commits),
                static_cast<unsigned long long>(s.snapshots),
                static_cast<unsigned long long>(s.resizes),
                static_cast<unsigned long long>(s.resize_failures),
                static_cast<unsigned long long>(s.forwarded));
  }
  if (stats_interval > 0) {
    std::printf("--- metrics snapshot (final) ---\n%s",
                obs::registry().expose().c_str());
  }
  const int trace_rc = flush_trace_ring(trace_out);
  std::fflush(stdout);
  return trace_rc;
}

// Offline crash recovery (recover-then-exit): rebuild every shard found
// in --wal-dir, verify the decision stream record by record, rotate the
// logs, and summarize.  Shares the recovery engine with serve's startup
// path (net/shard_store.h), so "recover then serve" and "serve with
// --wal-dir" land in bit-identical states.
int cmd_recover(const Args& args) {
  const std::string dir = args.get("wal-dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "error: recover requires --wal-dir DIR\n");
    return 2;
  }
  ControllerConfig cfg;
  if (const int rc = controller_config_flags(args, &cfg); rc != 0) return rc;

  std::size_t shard_count =
      static_cast<std::size_t>(args.get_long("shards", 0));
  const std::size_t discovered = io::discover_shard_count(dir);
  if (discovered > shard_count) shard_count = discovered;
  if (shard_count == 0) {
    std::printf("recover: %s holds no shard state\n", dir.c_str());
    return 0;
  }

  std::vector<std::unique_ptr<OnlinePartitioner>> controllers;
  std::vector<OnlinePartitioner*> ptrs;
  controllers.reserve(shard_count);
  ptrs.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    controllers.push_back(std::make_unique<OnlinePartitioner>(
        cfg.platform, cfg.kind, cfg.alpha, cfg.engine, cfg.admit));
    ptrs.push_back(controllers.back().get());
  }
  const net::ShardSetRecovery rec = net::recover_shard_set(
      dir, ptrs, /*rotate=*/true, io::WalSync::kBatch);
  if (!rec.ok) {
    std::fprintf(stderr, "recover: FAILED: %s\n", rec.error.c_str());
    return 1;
  }
  std::printf("recover: %zu shard(s) from %s, next epoch %u\n", shard_count,
              dir.c_str(), rec.next_epoch);
  for (std::size_t i = 0; i < rec.shards.size(); ++i) {
    const net::ShardRecoveryInfo& info = rec.shards[i];
    std::printf(
        "  shard %zu: %s, %zu resident, seq %llu, checksum %016llx "
        "(snapshot cut %llu, %llu replayed, %llu reconciled, %llu "
        "forward(s)%s)\n",
        i, info.active ? "active" : "merged-away",
        controllers[i]->resident_count(),
        static_cast<unsigned long long>(info.decision_seq),
        static_cast<unsigned long long>(info.decision_checksum),
        static_cast<unsigned long long>(info.snapshot_seq),
        static_cast<unsigned long long>(info.replayed),
        static_cast<unsigned long long>(info.reconciled),
        static_cast<unsigned long long>(info.forwards.size()),
        info.truncated_bytes > 0 ? ", torn tail truncated" : "");
  }

  // A flight-recorder dump in the WAL directory (SIGUSR1 or the crash
  // handler wrote it) is part of the post-mortem: surface its tail next
  // to the recovery summary instead of making the operator go find it.
  const std::string flight_path = dir + "/flight.jsonl";
  std::ifstream flight(flight_path);
  if (flight) {
    std::vector<std::string> tail;
    std::string fline;
    std::size_t entries = 0;
    while (std::getline(flight, fline)) {
      if (fline.empty()) continue;
      ++entries;
      tail.push_back(fline);
      if (tail.size() > 4) tail.erase(tail.begin());
    }
    std::printf("flight recorder: %zu entr%s in %s%s\n", entries,
                entries == 1 ? "y" : "ies", flight_path.c_str(),
                entries > 0 ? ", newest last:" : "");
    for (const std::string& t : tail) std::printf("  %s\n", t.c_str());
  }
  return 0;
}

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const Args args = Args::parse(argc, argv, 2);
  if (cmd == "test") return cmd_test(args);
  if (cmd == "certify") return cmd_certify(args);
  if (cmd == "augment") return cmd_augment(args);
  if (cmd == "simulate") return cmd_simulate(args);
  if (cmd == "sensitivity") return cmd_sensitivity(args);
  if (cmd == "generate") return cmd_generate(args);
  if (cmd == "generate-trace") return cmd_generate_trace(args);
  if (cmd == "replay") return cmd_replay(args);
  if (cmd == "serve") return cmd_serve(args);
  if (cmd == "recover") return cmd_recover(args);
  if (cmd == "stats") return cmd_stats(args);
  if (cmd == "tracez") return cmd_tracez(args);
  return usage();
}

}  // namespace
}  // namespace hetsched

int main(int argc, char** argv) { return hetsched::run(argc, argv); }
