// Service workloads: open-loop load against a separate server process,
// the correctness gates, and the in-process traced replay.
#include "service.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "gen/platform_gen.h"
#include "io/snapshot_format.h"
#include "io/wal.h"
#include "ledger.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/shard_store.h"
#include "net/trace_replay.h"
#include "online/online_partitioner.h"
#include "util/rng.h"

namespace perfbench {

namespace fs = std::filesystem;
using hetsched::AdmitDecision;
using hetsched::OnlinePartitioner;
using hetsched::OnlineTaskId;
using hetsched::Platform;
using hetsched::Task;
using hetsched::net::MsgType;
using hetsched::net::Request;
using hetsched::net::Response;
using hetsched::net::Status;

void pin_to(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(static_cast<std::size_t>(c), &set);
  sched_setaffinity(0, sizeof(set), &set);
}

ServiceSpec churn_wal_spec() {
  ServiceSpec s;
  s.name = "churn-wal";
  s.machines = 8;
  s.ratio = 1.5;
  s.wal = true;
  s.churn.arrival_rate = 24.0;
  s.population_ops = 20000;
  s.warm_ops = 4000;
  s.nominal_rate = 40000;
  s.peak_rate = 120000;
  // The knee of this build sits at 1.0-2.2M/s depending on the host's
  // state, which no bound can absorb; a top step just under the slow-state
  // knee gates every regression that brings the knee below it.
  for (double r = 150000; r <= 1e6; r *= 1.1) s.ladder.push_back(r);
  s.limit_us = 1000;  // the server's default --slo-us
  s.window_s = 0.05;
  s.chunk_samples = 10000;
  s.min_chunk_s = 0.02;
  return s;
}

ServiceSpec constrained_auto_spec() {
  ServiceSpec s;
  s.name = "constrained-auto";
  s.machines = 16;
  s.ratio = 1.1;
  s.admit.test = hetsched::admit::TestKind::kAuto;
  s.churn.arrival_rate = 4.0;
  s.churn.constrained_fraction = 0.7;
  s.warm_ops = 1500;
  s.nominal_rate = 2000;
  s.peak_rate = 6000;
  for (double r = 4000; r <= 40000; r *= 1.1) s.ladder.push_back(r);
  s.limit_us = 5000;
  s.window_s = 0.5;
  s.chunk_samples = 1000;
  s.min_chunk_s = 0.1;
  return s;
}

namespace {

// Four shards, one connection each: the most a single generator thread
// drives here.  The server runs one event loop: with three, SO_REUSEPORT
// placed each connection on a random loop, frames for a shard another
// loop owns took the cross-loop queue, and p50 moved 25-34 us with the
// placement alone.
constexpr std::size_t kShards = 4;
constexpr int kSetupLaunches = 5;  // setup_s is their median

// ---------------------------------------------------------------------------
// Inputs: per-shard request streams with their predicted answers.

struct Op {
  MsgType type = MsgType::kAdmit;
  std::int64_t exec = 0, period = 0, deadline = 0;
  std::uint64_t depart_id = 0;
  Response expect;             // the answer an offline replay gives
  std::uint8_t tier = 0;       // admit verdict tier (offline)
  std::uint64_t checksum = 0;  // controller decision checksum after the op
};

Request to_request(const Op& op, std::uint16_t shard, std::uint64_t id) {
  if (op.type == MsgType::kDepart) return Request::depart(shard, id, op.depart_id);
  if (op.deadline != 0) {
    return Request::admit(shard, id, op.exec, op.period, op.deadline);
  }
  return Request::admit(shard, id, op.exec, op.period);
}

Platform spec_platform(const ServiceSpec& spec) {
  return hetsched::geometric_platform(spec.machines, spec.ratio);
}

std::unique_ptr<OnlinePartitioner> make_controller(const ServiceSpec& spec) {
  return std::make_unique<OnlinePartitioner>(
      spec_platform(spec), hetsched::AdmissionKind::kEdf, 1.0,
      hetsched::PartitionEngine::kAuto, spec.admit);
}

// Applies `op` (as sent, depart ids included) to `ctl` and returns the
// response the server builds for it (net::Server::process_request).
Response apply_op(OnlinePartitioner& ctl, const Op& op, std::uint8_t* tier) {
  Response r;
  r.type = op.type;
  if (op.type == MsgType::kAdmit) {
    const AdmitDecision d = ctl.admit(Task{op.exec, op.period, op.deadline});
    r.value = std::bit_cast<std::uint64_t>(d.utilization);
    if (d.admitted) {
      r.status = Status::kAdmitted;
      r.machine = static_cast<std::uint32_t>(d.machine);
      r.task_id = d.id;
    } else {
      r.status = Status::kRejected;
    }
    if (tier != nullptr) *tier = d.tier;
  } else {
    r.status = ctl.depart(op.depart_id) ? Status::kDeparted : Status::kStaleId;
  }
  return r;
}

bool same_answer(const Response& a, const Response& b) {
  return a.type == b.type && a.status == b.status && a.machine == b.machine &&
         a.task_id == b.task_id && a.value == b.value;
}

// The client-side decision fold of net/trace_replay.h, over every answer.
std::uint64_t fold_answer(std::uint64_t h, const Response& r) {
  using hetsched::net::fnv1a;
  if (r.type == MsgType::kAdmit) {
    const bool ok = r.status == Status::kAdmitted;
    h = fnv1a(h, ok ? 1 : 0);
    h = fnv1a(h, ok ? r.machine : 0);
    return fnv1a(h, r.value);
  }
  return fnv1a(h, r.status == Status::kDeparted ? 1 : 0);
}

// Seeded churn trace for one shard, turned into `n_ops` requests with the
// answers an offline OnlinePartitioner gives.  Departures of rejected
// arrivals are not sent (no server id exists for them).
std::vector<Op> build_stream(const ServiceSpec& spec, std::uint64_t seed,
                             std::size_t shard, std::size_t n_ops) {
  hetsched::Rng rng(derive_seed(seed, 1, shard));
  hetsched::ChurnSpec cs = spec.churn;
  // Each arrival yields an admit and, unless rejected, a later depart.
  cs.arrivals = n_ops * 3 / 5 + 1000;
  const hetsched::ChurnTrace trace = hetsched::generate_churn_trace(rng, cs);
  auto ctl = make_controller(spec);
  std::vector<OnlineTaskId> ids(trace.arrivals, hetsched::kInvalidOnlineTaskId);
  std::vector<Op> ops;
  ops.reserve(n_ops);
  for (const hetsched::ChurnEvent& ev : trace.events) {
    if (ops.size() == n_ops) break;
    Op op;
    if (ev.kind == hetsched::ChurnEvent::Kind::kArrival) {
      op.type = MsgType::kAdmit;
      op.exec = ev.params.exec;
      op.period = ev.params.period;
      op.deadline = ev.params.deadline;
    } else {
      if (ids[ev.task] == hetsched::kInvalidOnlineTaskId) continue;
      op.type = MsgType::kDepart;
      op.depart_id = ids[ev.task];
    }
    op.expect = apply_op(*ctl, op, &op.tier);
    if (op.type == MsgType::kAdmit && op.expect.status == Status::kAdmitted) {
      ids[ev.task] = op.expect.task_id;
    }
    op.checksum = ctl->decision_checksum();
    ops.push_back(op);
  }
  return ops;
}

// ---------------------------------------------------------------------------
// The server process.

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Forks and execs `argv`, pinned to `cpus`, output to `log`.  The child
// dies with the benchmark (PR_SET_PDEATHSIG), so no failure path of it
// leaves a server behind.
pid_t spawn(const std::vector<std::string>& argv, const std::vector<int>& cpus,
            const std::string& log) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid != 0) return pid;
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() != parent) _exit(127);
  pin_to(cpus);
  const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    dup2(fd, 1);
    dup2(fd, 2);
    close(fd);
  }
  execv(args[0], args.data());
  _exit(127);
}

// Waits up to `timeout_ms` for `pid`; returns its wait status or -1.
int wait_for(pid_t pid, int timeout_ms) {
  const std::uint64_t deadline = now_ns() + std::uint64_t(timeout_ms) * 1000000;
  for (;;) {
    int status = 0;
    const pid_t r = waitpid(pid, &status, WNOHANG);
    if (r == pid) return status;
    if (r < 0 || now_ns() > deadline) return -1;
    usleep(1000);
  }
}

class ServerProc {
 public:
  ServerProc() = default;
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;
  ~ServerProc() { kill_now(); }

  // Launches and waits until a GET_STATS request is answered; returns the
  // seconds from launch to that first answer (negative on failure).
  double launch(const std::vector<std::string>& argv,
                const std::vector<int>& cpus, const std::string& port_file,
                const std::string& log, std::string* error) {
    fs::remove(port_file);
    const std::uint64_t t0 = now_ns();
    pid_ = spawn(argv, cpus, log);
    if (pid_ < 0) {
      *error = "fork failed";
      return -1;
    }
    std::uint64_t port = 0;
    while (port == 0) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        *error = "server exited during start-up: " + read_file(log);
        return -1;
      }
      if (now_ns() - t0 > 60'000'000'000ULL) {
        *error = "server did not write its port file";
        return -1;
      }
      std::ifstream pf(port_file);
      if (!(pf >> port)) {
        port = 0;
        usleep(200);
      }
    }
    addr_ = "127.0.0.1:" + std::to_string(port);
    hetsched::net::Client c;
    hetsched::net::InfoResponse info;
    if (!c.connect(addr_, 5000, error) ||
        !c.call_info(Request::get_stats(1), &info, 5000)) {
      if (error->empty()) *error = "first GET_STATS failed: " + c.last_error();
      return -1;
    }
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  const std::string& addr() const { return addr_; }
  pid_t pid() const { return pid_; }

  // SIGTERM (graceful drain) and wait; returns the exit code or -1.
  int terminate() {
    if (pid_ < 0) return -1;
    kill(pid_, SIGTERM);
    const int status = wait_for(pid_, 20000);
    if (status < 0) {
      kill_now();
      return -1;
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  void kill_now() {
    if (pid_ < 0) return;
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  std::string addr_;
};

// GET_STATS through the public protocol: hetsched_server_* counters.
std::map<std::string, double> server_stats(const std::string& addr,
                                           std::string* error) {
  std::map<std::string, double> out;
  hetsched::net::Client c;
  hetsched::net::InfoResponse info;
  if (!c.connect(addr, 5000, error) ||
      !c.call_info(Request::get_stats(1), &info, 5000)) {
    if (error->empty()) *error = "GET_STATS failed: " + c.last_error();
    return out;
  }
  std::istringstream in(info.text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("hetsched_server_", 0) != 0) continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

double stat_delta(const std::map<std::string, double>& a,
                  const std::map<std::string, double>& b,
                  const std::string& name) {
  const std::string key = "hetsched_server_" + name + "_total";
  const auto ia = a.find(key);
  const auto ib = b.find(key);
  if (ia == a.end() || ib == b.end()) return 0;
  return ib->second - ia->second;
}

// CPU time of every thread of `pid`, in ns (/proc/<pid>/task/*/schedstat).
double process_cpu_ns(pid_t pid) {
  double total = 0;
  std::error_code ec;
  for (const auto& t :
       fs::directory_iterator("/proc/" + std::to_string(pid) + "/task", ec)) {
    std::ifstream in(t.path() / "schedstat");
    double ns = 0;
    if (in >> ns) total += ns;
  }
  return total;
}

// Peak resident set size of `pid` in MiB (VmHWM).
double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0;
}

std::string fs_type(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

// ---------------------------------------------------------------------------
// The open-loop generator: one thread, one connection per shard.

struct Flight {
  std::size_t op = 0;
  std::size_t k = 0;  // position in the phase's send order
  std::uint64_t intended = 0;
};

struct Answer {
  std::size_t op = 0;
  Response resp;
};

struct Conn {
  hetsched::net::Client client;
  std::uint16_t shard = 0;
  const std::vector<Op>* ops = nullptr;
  std::size_t next = 0;  // next op index to send
  std::deque<Flight> inflight;
  std::vector<Answer> answers;
  bool retried = false;  // a RETRY_LATER dropped a request on this shard
};

struct Phase {
  bool ok = true;
  std::string error;
  std::uint64_t sent = 0, failed = 0, arrivals = 0, admitted = 0;
  std::vector<double> lat_us;  // by send order
  std::vector<double> late_us;
  std::vector<std::pair<std::uint16_t, std::size_t>> sent_ops;  // by k
  double seconds = 0;
};

constexpr double kMissedUs = 1e12;

// A phase's reported tail: the lower quartile of its windows' p99s.  On a
// shared virtual machine, host noise lifts the p99 of whole windows 2-5x
// for seconds at a time, and runs differ in how much of them it covers.
// The lower quartile moves less than the median window, yet still 0.07-0.5
// of its median across ten-run sets, so the tails carry no bound.
double window_stat(const std::vector<double>& per_window) {
  return quantile(per_window, 0.25);
}

bool is_failure(Status s) {
  return s == Status::kRetryLater || s == Status::kBadRequest ||
         s == Status::kBadShard;
}

// Sends `total` requests.  rate > 0: request k is due at t0 + k / rate,
// round-robin over the connections, and latency runs from that due time.
// rate == 0: each connection sends its share as fast as a window of
// `window` requests in flight allows (untimed warm-up and population).
Phase run_phase(std::vector<Conn>& conns, double rate, std::size_t total,
                std::size_t window) {
  Phase ph;
  const std::size_t S = conns.size();
  ph.lat_us.assign(total, 0.0);
  ph.sent_ops.resize(total);
  if (rate > 0) ph.late_us.reserve(total);
  const double gap_ns = rate > 0 ? 1e9 / rate : 0;
  const std::uint64_t t0 = now_ns() + 100000;
  std::vector<std::size_t> quota(S, 0);
  for (std::size_t k = 0; k < total; ++k) ++quota[k % S];
  std::size_t k = 0;
  std::size_t answered = 0;
  std::uint64_t last_progress = now_ns();
  std::vector<pollfd> pfds(S);
  auto handle = [&](Conn& c, const Response& r, std::uint64_t at) {
    // Decisions come back in request order; a RETRY_LATER answered while
    // earlier frames of the shard wait in its queue may overtake them.
    auto it = c.inflight.begin();
    while (it != c.inflight.end() && it->op != r.request_id) ++it;
    if (it == c.inflight.end() ||
        (it != c.inflight.begin() && r.status != Status::kRetryLater)) {
      ph.ok = false;
      ph.error = "response out of order on shard " + std::to_string(c.shard);
      return;
    }
    const Flight f = *it;
    c.inflight.erase(it);
    c.answers.push_back({f.op, r});
    ph.lat_us[f.k] = static_cast<double>(at - f.intended) * 1e-3;
    if (is_failure(r.status)) {
      ++ph.failed;
      ph.lat_us[f.k] = kMissedUs;  // a failed request misses every limit
    }
    if (r.status == Status::kRetryLater) c.retried = true;
    if (r.type == MsgType::kAdmit && r.status != Status::kRetryLater) {
      ++ph.arrivals;
      if (r.status == Status::kAdmitted) ++ph.admitted;
    }
    ++answered;
  };
  const std::uint64_t start = now_ns();
  while (ph.ok && answered < total) {
    std::uint64_t now = now_ns();
    // Send everything due.
    if (rate > 0) {
      while (k < total) {
        const auto due = t0 + static_cast<std::uint64_t>(
                                  static_cast<double>(k) * gap_ns);
        if (due > now) break;
        Conn& c = conns[k % S];
        if (c.next >= c.ops->size()) {
          ph.ok = false;
          ph.error = "request stream exhausted";
          break;
        }
        c.client.queue_request(to_request((*c.ops)[c.next], c.shard, c.next));
        c.inflight.push_back({c.next, k, due});
        ph.sent_ops[k] = {c.shard, c.next};
        ph.late_us.push_back(static_cast<double>(now - due) * 1e-3);
        ++c.next;
        ++k;
      }
    } else {
      for (std::size_t s = 0; s < S; ++s) {
        Conn& c = conns[s];
        while (quota[s] > 0 && c.inflight.size() < window) {
          if (c.next >= c.ops->size()) {
            ph.ok = false;
            ph.error = "request stream exhausted";
            break;
          }
          c.client.queue_request(
              to_request((*c.ops)[c.next], c.shard, c.next));
          c.inflight.push_back({c.next, k, now});
          ph.sent_ops[k] = {c.shard, c.next};
          ++c.next;
          ++k;
          --quota[s];
        }
      }
    }
    for (Conn& c : conns) {
      if (c.client.pending_bytes() > 0 && !c.client.try_flush()) {
        ph.ok = false;
        ph.error = "send failed: " + c.client.last_error();
      }
    }
    if (!ph.ok) break;
    // Wait for answers, or until the next request is due.
    int timeout_ns = 1'000'000;
    if (rate > 0 && k < total) {
      const auto due = t0 + static_cast<std::uint64_t>(
                                static_cast<double>(k) * gap_ns);
      now = now_ns();
      const std::int64_t left = static_cast<std::int64_t>(due) -
                                static_cast<std::int64_t>(now) - 60000;
      timeout_ns = static_cast<int>(std::clamp<std::int64_t>(left, 0, 1'000'000));
    }
    for (std::size_t s = 0; s < S; ++s) {
      pfds[s].fd = conns[s].client.fd();
      pfds[s].events = static_cast<short>(
          POLLIN | (conns[s].client.pending_bytes() > 0 ? POLLOUT : 0));
      pfds[s].revents = 0;
    }
    timespec ts{0, timeout_ns};
    const int n = ppoll(pfds.data(), S, &ts, nullptr);
    const std::uint64_t at = now_ns();
    if (n > 0) {
      for (std::size_t s = 0; s < S && ph.ok; ++s) {
        if ((pfds[s].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
        Response r;
        int got = 0;
        while ((got = conns[s].client.try_recv_response(&r)) == 1 && ph.ok) {
          handle(conns[s], r, at);
          last_progress = at;
        }
        if (got < 0) {
          ph.ok = false;
          ph.error = "receive failed: " + conns[s].client.last_error();
        }
      }
    }
    if (k == total && at - last_progress > 20'000'000'000ULL) {
      ph.ok = false;
      ph.error = "timed out waiting for answers";
    }
  }
  ph.sent = k;
  ph.seconds = static_cast<double>(now_ns() - start) * 1e-9;
  return ph;
}

// One request at a time per shard: the idle round trip.
bool idle_rtt(std::vector<Conn>& conns, std::size_t per_shard,
              std::vector<double>* rtt_us, std::string* error) {
  for (std::size_t i = 0; i < per_shard; ++i) {
    for (Conn& c : conns) {
      if (c.next >= c.ops->size()) {
        *error = "request stream exhausted";
        return false;
      }
      Response r;
      const std::uint64_t t0 = now_ns();
      if (!c.client.call(to_request((*c.ops)[c.next], c.shard, c.next), &r,
                         5000)) {
        *error = "idle round trip failed: " + c.client.last_error();
        return false;
      }
      rtt_us->push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      c.answers.push_back({c.next, r});
      if (r.status == Status::kRetryLater) c.retried = true;
      ++c.next;
      usleep(200);
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Correctness: every answer equals the offline replay's.

struct ShardVerdict {
  bool ok = true;
  std::string error;
  std::uint64_t decisions = 0;  // decided ops, population included
  std::uint64_t checksum = 0;   // controller decision checksum after them
  std::uint64_t served_fold = 0, offline_fold = 0;
};

// Population ops were answered by the untimed population run; `answers`
// are the measured server's, in per-shard decision order.
ShardVerdict verify_shard(const ServiceSpec& spec, const std::vector<Op>& ops,
                          std::size_t population,
                          const std::vector<Answer>& answers, bool retried) {
  ShardVerdict v;
  v.served_fold = v.offline_fold = hetsched::net::kFnv1aSeed;
  std::unique_ptr<OnlinePartitioner> ctl;
  if (retried) {
    // A dropped request changed the stream the server decided, so replay
    // exactly what it decided instead of trusting the prediction.
    ctl = make_controller(spec);
    for (std::size_t i = 0; i < population; ++i) apply_op(*ctl, ops[i], nullptr);
  }
  v.decisions = population;
  v.checksum = population > 0 ? ops[population - 1].checksum : 0;
  std::vector<Answer> sorted = answers;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Answer& x, const Answer& y) { return x.op < y.op; });
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const Answer& a = sorted[i];
    if (a.op != population + i) {
      v.ok = false;
      v.error = "answers skip a request";
      return v;
    }
    if (a.resp.status == Status::kRetryLater) continue;
    const Response want =
        retried ? apply_op(*ctl, ops[a.op], nullptr) : ops[a.op].expect;
    Response got = a.resp;
    got.request_id = 0;
    if (!same_answer(got, want)) {
      v.ok = false;
      v.error = "answer to request " + std::to_string(a.op) +
                " differs from the offline replay";
      return v;
    }
    v.served_fold = fold_answer(v.served_fold, a.resp);
    v.offline_fold = fold_answer(v.offline_fold, want);
    ++v.decisions;
    v.checksum = retried ? ctl->decision_checksum() : ops[a.op].checksum;
  }
  if (v.served_fold != v.offline_fold) {
    v.ok = false;
    v.error = "served decision checksum differs from the offline replay";
  }
  return v;
}

// Runs `hetsched_cli recover` on a copy of the WAL directory and returns
// per-shard (seq, checksum).
bool recover_copy(const ServiceSpec& spec, const RunOptions& opt,
                  const std::string& wal_dir,
                  std::vector<std::pair<std::uint64_t, std::uint64_t>>* out,
                  std::string* error) {
  const std::string copy = opt.work_dir + "/recover-check";
  fs::remove_all(copy);
  fs::copy(wal_dir, copy, fs::copy_options::recursive);
  std::vector<std::string> argv = {
      opt.cli, "recover", "--wal-dir", copy, "--shards",
      std::to_string(kShards), "--machines", std::to_string(spec.machines),
      "--ratio", std::to_string(spec.ratio)};
  if (spec.admit.tiered()) {
    argv.push_back("--admission-test");
    argv.push_back(hetsched::admit::to_string(spec.admit.test));
  }
  const std::string log = opt.work_dir + "/recover.log";
  const pid_t pid = spawn(argv, opt.gen_cpus, log);
  const int status = wait_for(pid, 60000);
  if (status < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    if (status < 0) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
    *error = "hetsched_cli recover failed: " + read_file(log);
    return false;
  }
  out->assign(kShards, {0, 0});
  std::istringstream in(read_file(log));
  std::string line;
  std::size_t found = 0;
  while (std::getline(in, line)) {
    unsigned shard = 0;
    unsigned long long seq = 0, sum = 0;
    const char* p = std::strstr(line.c_str(), "shard ");
    const char* q = std::strstr(line.c_str(), "seq ");
    const char* r = std::strstr(line.c_str(), "checksum ");
    if (p == nullptr || q == nullptr || r == nullptr) continue;
    if (std::sscanf(p, "shard %u:", &shard) != 1 ||
        std::sscanf(q, "seq %llu", &seq) != 1 ||
        std::sscanf(r, "checksum %llx", &sum) != 1 || shard >= kShards) {
      continue;
    }
    (*out)[shard] = {seq, sum};
    ++found;
  }
  fs::remove_all(copy);
  if (found != kShards) {
    *error = "recover reported " + std::to_string(found) + " shard(s)";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Traced run: the served request stream replayed in-process through the
// layers' public functions, in the order the server calls them.

struct Replay {
  double wall_s = 0;
  bool ok = true;
  std::string error;
  // Per shard, per replayed request in order: the in-process stage sum.
  std::vector<std::vector<double>> stage_sum_ns;
  std::uint64_t wal_bytes = 0;
};

// Replays ops [from[s], to[s]) of every shard in batches of `batch` frames
// per shard, round-robin: decode -> admit/depart -> WAL append -> encode
// per frame, one commit per batch, and a pace_sync per shard every
// `pace_every` requests.  Answers are checked against the prediction.
Replay replay_stream(const std::vector<std::vector<Op>>& streams,
                     std::vector<std::unique_ptr<OnlinePartitioner>>& ctls,
                     const std::vector<std::size_t>& from,
                     const std::vector<std::size_t>& to, std::size_t batch,
                     std::size_t pace_every, const std::string& wal_dir,
                     Ledger& ledger) {
  Replay rp;
  const std::size_t S = streams.size();
  std::vector<std::unique_ptr<hetsched::io::WalWriter>> wals;
  if (!wal_dir.empty()) {
    fs::remove_all(wal_dir);
    fs::create_directories(wal_dir);
    for (std::size_t s = 0; s < S; ++s) {
      wals.push_back(std::make_unique<hetsched::io::WalWriter>());
      if (!wals.back()->open(hetsched::io::wal_path(wal_dir,
                                                    static_cast<std::uint32_t>(s)),
                             2, hetsched::io::WalSync::kBatch)) {
        rp.ok = false;
        rp.error = "cannot open replay WAL";
        return rp;
      }
      wals.back()->set_paced(true);
    }
  }
  std::vector<std::size_t> pos = from;
  rp.stage_sum_ns.resize(S);
  unsigned char wire[hetsched::net::kDeadlineFrameSize];
  unsigned char out[hetsched::net::kFrameSize];
  std::size_t since_pace = 0;
  std::uint64_t rid = 0;
  const std::uint64_t t_start = now_ns();
  bool more = true;
  while (more && rp.ok) {
    more = false;
    for (std::size_t s = 0; s < S && rp.ok; ++s) {
      const std::size_t end = std::min(to[s], pos[s] + batch);
      if (pos[s] >= end) continue;
      more = true;
      std::vector<double>& sums = rp.stage_sum_ns[s];
      const std::size_t first_req = sums.size();
      for (; pos[s] < end; ++pos[s]) {
        const Op& op = streams[s][pos[s]];
        const std::size_t wire_len =
            hetsched::net::encode_request(to_request(op, 0, pos[s]), wire);
        ++rid;
        const std::uint32_t req = ledger.begin(Stage::kRequest, rid);
        Request in;
        std::size_t used = 0;
        std::uint32_t h = ledger.begin(Stage::kDecode, rid, req);
        const auto dr = hetsched::net::decode_request(wire, wire_len, &in, &used);
        ledger.end(h);
        if (dr != hetsched::net::DecodeResult::kOk) {
          rp.ok = false;
          rp.error = "replay decode failed";
          break;
        }
        OnlinePartitioner& ctl = *ctls[s];
        Response resp;
        resp.type = in.type;
        resp.request_id = in.request_id;
        std::uint8_t tier = 0;
        if (in.type == MsgType::kAdmit) {
          h = ledger.begin(Stage::kAdmit, rid, req);
          const AdmitDecision d = ctl.admit(Task{in.exec(), in.period(),
                                                 in.deadline_val()});
          ledger.end(h, d.tier);
          tier = d.tier;
          resp.value = std::bit_cast<std::uint64_t>(d.utilization);
          if (d.admitted) {
            resp.status = Status::kAdmitted;
            resp.machine = static_cast<std::uint32_t>(d.machine);
            resp.task_id = d.id;
          } else {
            resp.status = Status::kRejected;
          }
          if (!wals.empty()) {
            h = ledger.begin(Stage::kWalAppend, rid, req);
            wals[s]->append_admit(in.exec(), in.period(), ctl.decision_seq(),
                                  ctl.decision_checksum(), in.deadline_val(),
                                  tier);
            ledger.end(h);
          }
        } else {
          h = ledger.begin(Stage::kDepart, rid, req);
          const bool ok = ctl.depart(in.task_id());
          ledger.end(h);
          resp.status = ok ? Status::kDeparted : Status::kStaleId;
          if (!wals.empty()) {
            h = ledger.begin(Stage::kWalAppend, rid, req);
            wals[s]->append_depart(in.task_id(), ctl.decision_seq(),
                                   ctl.decision_checksum());
            ledger.end(h);
          }
        }
        h = ledger.begin(Stage::kEncode, rid, req);
        hetsched::net::encode_response(resp, out);
        ledger.end(h);
        ledger.end(req);
        resp.request_id = 0;
        if (!same_answer(resp, op.expect)) {
          rp.ok = false;
          rp.error = "replayed decision differs from the prediction";
          break;
        }
        if (ledger.enabled()) {
          const Span& sp = ledger.spans()[req - 1];
          sums.push_back(static_cast<double>(sp.t1 - sp.t0));
        }
        ++since_pace;
      }
      if (!wals.empty() && rp.ok) {
        const std::uint32_t h = ledger.begin(Stage::kCommit, rid);
        const bool ok = wals[s]->commit();
        ledger.end(h);
        if (!ok) {
          rp.ok = false;
          rp.error = "replay WAL commit failed";
        }
        // The commit is shared by the batch: spread it over its requests.
        if (ledger.enabled() && sums.size() > first_req) {
          const Span& sp = ledger.spans()[h - 1];
          const double share = static_cast<double>(sp.t1 - sp.t0) /
                               static_cast<double>(sums.size() - first_req);
          for (std::size_t i = first_req; i < sums.size(); ++i) sums[i] += share;
        }
      }
      if (!wals.empty() && since_pace >= pace_every) {
        since_pace = 0;
        for (auto& w : wals) {
          const std::uint32_t h = ledger.begin(Stage::kPaceSync, rid);
          if (!w->pace_sync()) {
            rp.ok = false;
            rp.error = "replay pace_sync failed";
          }
          ledger.end(h);
        }
      }
    }
  }
  rp.wall_s = static_cast<double>(now_ns() - t_start) * 1e-9;
  for (std::size_t s = 0; s < wals.size(); ++s) {
    wals[s]->close();
    std::error_code ec;
    rp.wal_bytes += fs::file_size(
        hetsched::io::wal_path(wal_dir, static_cast<std::uint32_t>(s)), ec);
  }
  return rp;
}

struct TracedInputs {
  std::vector<std::size_t> warm_from, nominal_from, nominal_to;
  std::size_t batch = 1;
  std::size_t pace_every = 1;
  std::string seeded_wal;  // population WAL directory ("" = none)
};

std::vector<std::unique_ptr<OnlinePartitioner>> fresh_controllers(
    const ServiceSpec& spec) {
  std::vector<std::unique_ptr<OnlinePartitioner>> ctls;
  for (std::size_t s = 0; s < kShards; ++s) {
    ctls.push_back(make_controller(spec));
  }
  return ctls;
}

void traced_service(const ServiceSpec& spec, const RunOptions& opt,
                    const std::vector<std::vector<Op>>& streams,
                    const TracedInputs& in, RunResult* res,
                    std::vector<std::vector<double>>* stage_sum_ns) {
  Metrics& m = res->metrics;
  Ledger ledger(true);
  // Controllers at the start of the warm-up: recovered from a copy of the
  // seeded WAL directory (timed: recover_shard_set), or fresh.
  auto ctls = fresh_controllers(spec);
  if (!in.seeded_wal.empty()) {
    const std::string copy = opt.work_dir + "/traced-recover";
    fs::remove_all(copy);
    fs::copy(in.seeded_wal, copy, fs::copy_options::recursive);
    std::vector<OnlinePartitioner*> ptrs;
    for (auto& c : ctls) ptrs.push_back(c.get());
    const std::uint32_t h = ledger.begin(Stage::kRecover, 0);
    const hetsched::net::ShardSetRecovery rec = hetsched::net::recover_shard_set(
        copy, ptrs, /*rotate=*/false, hetsched::io::WalSync::kBatch);
    ledger.end(h);
    if (!rec.ok) {
      res->fail_check("traced recovery failed: " + rec.error);
      return;
    }
    // Snapshot writes as the server's rotation performs them (durable).
    for (int rep = 0; rep < 3; ++rep) {
      for (std::size_t s = 0; s < ctls.size(); ++s) {
        hetsched::io::SnapshotFileMeta meta;
        meta.shard = static_cast<std::uint32_t>(s);
        meta.epoch = 2;
        meta.decision_seq = ctls[s]->decision_seq();
        meta.decision_checksum = ctls[s]->decision_checksum();
        const std::vector<std::uint8_t> bytes = ctls[s]->serialize_snapshot();
        std::string err;
        const std::uint32_t hs = ledger.begin(Stage::kSnapshotWrite, 0);
        const std::string path = hetsched::io::write_snapshot_file(
            copy, meta, bytes, 1, /*durable=*/true, &err);
        ledger.end(hs);
        if (path.empty()) {
          res->fail_check("snapshot write failed: " + err);
          return;
        }
      }
    }
    fs::remove_all(copy);
    for (std::size_t s = 0; s < ctls.size(); ++s) {
      if (ctls[s]->decision_checksum() !=
          streams[s][spec.population_ops - 1].checksum) {
        res->fail_check("traced recovery landed on another decision stream");
        return;
      }
    }
  }
  // Warm-up (untraced), then the nominal phase's requests: untraced and
  // traced, alternating, each from the same controller snapshot.
  {
    Ledger off(false);
    const Replay w = replay_stream(streams, ctls, in.warm_from,
                                   in.nominal_from, in.batch, in.pace_every,
                                   "", off);
    if (!w.ok) {
      res->fail_check(w.error);
      return;
    }
  }
  std::vector<OnlinePartitioner::Snapshot> snaps;
  for (auto& c : ctls) snaps.push_back(c->snapshot());
  const std::string wal_dir = spec.wal ? opt.work_dir + "/replay-wal" : "";
  std::vector<double> off_s, on_s;
  Replay traced;
  for (int rep = 0; rep < 2; ++rep) {
    for (const bool on : {false, true}) {
      for (std::size_t s = 0; s < ctls.size(); ++s) ctls[s]->restore(snaps[s]);
      // Both traced replays pay for spans; the last one's are kept.
      Ledger off(false), discarded(true);
      Ledger& lg = !on ? off : rep == 1 ? ledger : discarded;
      Replay r = replay_stream(streams, ctls, in.nominal_from,
                               in.nominal_to, in.batch, in.pace_every, wal_dir,
                               lg);
      if (!r.ok) {
        res->fail_check(r.error);
        return;
      }
      (on ? on_s : off_s).push_back(r.wall_s);
      if (on && rep == 1) traced = std::move(r);
    }
  }
  if (!wal_dir.empty()) fs::remove_all(wal_dir);
  *stage_sum_ns = traced.stage_sum_ns;
  auto q = [](std::vector<double> v, double p) { return quantile(v, p); };
  const auto dec = ledger.durations(Stage::kDecode);
  const auto enc = ledger.durations(Stage::kEncode);
  const auto adm = ledger.durations(Stage::kAdmit);
  const auto dep = ledger.durations(Stage::kDepart);
  m.set("net.decode_ns_p50", q(dec, 0.5), "ns");
  m.set("net.encode_ns_p50", q(enc, 0.5), "ns");
  m.set("online.admit_ns_p50", q(adm, 0.5), "ns");
  m.set("online.admit_ns_p99", q(adm, 0.99), "ns");
  m.set("online.admit_ns_p999", q(adm, 0.999), "ns");
  m.set("online.depart_ns_p50", q(dep, 0.5), "ns");
  m.set("online.depart_ns_p99", q(dep, 0.99), "ns");
  std::size_t escalated = 0, esc_accept = 0;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    for (std::size_t i = in.nominal_from[s]; i < in.nominal_to[s]; ++i) {
      const Op& op = streams[s][i];
      if (op.type != MsgType::kAdmit || op.tier == 0) continue;
      ++escalated;
      if (op.expect.status == Status::kAdmitted) ++esc_accept;
    }
  }
  set_admit_metrics(ledger, escalated, esc_accept, m);
  const auto app = ledger.durations(Stage::kWalAppend);
  const auto com = ledger.durations(Stage::kCommit);
  const auto pace = ledger.durations(Stage::kPaceSync);
  m.set("io.wal_append_ns_p50", q(app, 0.5), "ns");
  m.set("io.wal_commit_us_p50", q(com, 0.5) * 1e-3, "us");
  m.set("io.wal_commit_us_p99", q(com, 0.99) * 1e-3, "us");
  m.set("io.fsync_us_p50", q(pace, 0.5) * 1e-3, "us");
  m.set("io.fsync_us_p99", q(pace, 0.99) * 1e-3, "us");
  std::size_t replayed = 0;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    replayed += in.nominal_to[s] - in.nominal_from[s];
  }
  m.set("io.wal_bytes_per_op",
        replayed > 0 ? static_cast<double>(traced.wal_bytes) /
                           static_cast<double>(replayed)
                     : 0.0,
        "B");
  m.set("io.snapshot_write_ms",
        q(ledger.durations(Stage::kSnapshotWrite), 0.5) * 1e-6, "ms");
  m.set("shard_store.recover_ms",
        q(ledger.durations(Stage::kRecover), 0.5) * 1e-6, "ms");
  const double off_med = median(off_s);
  m.set("trace.overhead_pct",
        off_med > 0 ? (median(on_s) - off_med) / off_med * 100.0 : 0.0, "%");
  res->info.set("traced_spans", static_cast<double>(ledger.spans().size()));
  res->info.set("traced_requests", static_cast<double>(replayed));
  if (!opt.spans_out.empty()) ledger.write_jsonl(opt.spans_out);
}

}  // namespace

// ---------------------------------------------------------------------------

RunResult run_service(const ServiceSpec& spec, const RunOptions& opt) {
  RunResult res;
  Metrics& m = res.metrics;
  const std::size_t S = kShards;
  const double T = opt.seconds;
  // Nominal and top-rate latencies are taken per window (see
  // window_stat() and the p50 below).  The ladder gets what is left of
  // the run.
  const double t_nominal = 0.45 * T, t_peak = 0.15 * T;
  constexpr int kRounds = 6;  // nominal/top-rate rounds, interleaved
  const std::size_t round_windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(t_nominal / kRounds / spec.window_s));
  const std::size_t peak_round_windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(t_peak / kRounds / spec.window_s));
  const double t_ladder = 0.4 * T;
  constexpr std::size_t kRttPerShard = 50;
  const auto count = [](double rate, double secs) {
    return static_cast<std::size_t>(std::ceil(rate * secs));
  };
  std::size_t budget = count(spec.nominal_rate, t_nominal) +
                       count(spec.peak_rate, t_peak);
  const auto step_s = [&](double rate) {
    return 3 * std::max(spec.min_chunk_s,
                        static_cast<double>(spec.chunk_samples) / rate);
  };
  {
    double spent = 0;
    for (const double r : spec.ladder) {
      if (spent >= t_ladder) break;
      budget += count(r, step_s(r));
      spent += step_s(r);
    }
  }
  // A quarter more than one pass needs, for retried ladder steps; the
  // ladder ends early if the streams run out.
  const std::size_t per_shard = spec.population_ops + spec.warm_ops +
                                kRttPerShard + budget * 5 / 4 / S + 64;

  // Inputs from the seed: one churn stream per shard, predicted offline.
  std::vector<std::vector<Op>> streams(S);
  {
    std::vector<std::thread> th;
    for (std::size_t s = 0; s < S; ++s) {
      th.emplace_back([&, s] {
        streams[s] = build_stream(spec, opt.seed, s, per_shard);
      });
    }
    for (auto& t : th) t.join();
  }
  for (const auto& st : streams) {
    if (st.size() < per_shard) {
      res.fail_check("trace too short for the run's request budget");
      return res;
    }
  }
  pin_to(opt.gen_cpus);

  const std::string port_file = opt.work_dir + "/server.port";
  const std::string seeded = opt.work_dir + "/seeded-wal";
  auto server_argv = [&](const std::string& wal_dir) {
    std::vector<std::string> a = {
        opt.cli, "serve", "--listen", "127.0.0.1:0", "--shards",
        std::to_string(S), "--loops", "1",
        "--machines", std::to_string(spec.machines), "--ratio",
        std::to_string(spec.ratio), "--port-file", port_file};
    if (!wal_dir.empty()) {
      a.insert(a.end(), {"--wal-dir", wal_dir, "--wal-sync", "batch"});
    }
    if (spec.admit.tiered()) {
      a.insert(a.end(),
               {"--admission-test", hetsched::admit::to_string(spec.admit.test)});
    }
    return a;
  };
  auto connect_all = [&](const ServerProc& srv, std::vector<Conn>* conns,
                         std::size_t first_op, std::string* err) {
    *conns = std::vector<Conn>(S);
    for (std::size_t s = 0; s < S; ++s) {
      Conn& c = (*conns)[s];
      c.shard = static_cast<std::uint16_t>(s);
      c.ops = &streams[s];
      c.next = first_op;
      if (!c.client.connect(srv.addr(), 5000, err)) return false;
    }
    return true;
  };
  std::string err;

  // Seeded resident population: written to the WAL by an untimed server
  // run, so every measured start performs real recovery.
  if (spec.wal && spec.population_ops > 0) {
    fs::remove_all(seeded);
    fs::create_directories(seeded);
    ServerProc pop;
    if (pop.launch(server_argv(seeded), opt.server_cpus, port_file,
                   opt.work_dir + "/population.log", &err) < 0) {
      res.fail_check("population server: " + err);
      return res;
    }
    std::vector<Conn> conns;
    if (!connect_all(pop, &conns, 0, &err)) {
      res.fail_check("population connect: " + err);
      return res;
    }
    const Phase ph = run_phase(conns, 0, spec.population_ops * S, 64);
    if (!ph.ok || ph.failed > 0) {
      res.fail_check("population run failed: " + ph.error);
      return res;
    }
    for (std::size_t s = 0; s < S; ++s) {
      const ShardVerdict v =
          verify_shard(spec, streams[s], 0, conns[s].answers, false);
      if (!v.ok) {
        res.fail_check("population shard " + std::to_string(s) + ": " + v.error);
        return res;
      }
    }
    conns.clear();
    if (pop.terminate() != 0) {
      res.fail_check("population server did not exit cleanly");
      return res;
    }
  }

  // Set-up: launch to first answered request, recovery included.
  std::vector<double> setups;
  ServerProc srv;
  std::string wal_dir;
  for (int i = 0; i < kSetupLaunches; ++i) {
    srv.kill_now();
    if (spec.wal) {
      wal_dir = opt.work_dir + "/wal-" + std::to_string(i);
      fs::remove_all(wal_dir);
      if (spec.population_ops > 0) {
        fs::copy(seeded, wal_dir, fs::copy_options::recursive);
      } else {
        fs::create_directories(wal_dir);
      }
    }
    const double s = srv.launch(server_argv(wal_dir), opt.server_cpus,
                                port_file,
                                opt.work_dir + "/server.log", &err);
    if (s < 0) {
      res.fail_check("server launch: " + err);
      return res;
    }
    setups.push_back(s);
    if (i + 1 < kSetupLaunches && spec.wal) {
      srv.kill_now();
      fs::remove_all(wal_dir);
    }
  }
  m.set("setup_s", median(setups), "s");

  std::vector<Conn> conns;
  if (!connect_all(srv, &conns, spec.population_ops, &err)) {
    res.fail_check("connect: " + err);
    return res;
  }
  std::vector<std::size_t> warm_from(S, spec.population_ops);
  Phase warm = run_phase(conns, 0, spec.warm_ops * S, 64);
  if (!warm.ok) {
    res.fail_check("warm-up: " + warm.error);
    return res;
  }
  std::vector<double> rtt;
  if (!idle_rtt(conns, kRttPerShard, &rtt, &err)) {
    res.fail_check(err);
    return res;
  }

  // Nominal and top rate, interleaved in rounds so that a burst of host
  // noise lands on both alike.  Server counters and CPU time are read
  // around each nominal round.
  Phase nominal, peak;
  std::vector<double> nominal_p50s, nominal_p99s, peak_p99s;
  double frames = 0, batches = 0, inlined = 0, records = 0, commits = 0;
  double server_cpu_ns = 0;
  std::map<std::string, double> st0;
  std::vector<std::size_t> nominal_from(S), nominal_to(S);
  for (std::size_t s = 0; s < S; ++s) nominal_from[s] = conns[s].next;
  const auto merge = [](Phase& into, Phase&& part) {
    into.ok = into.ok && part.ok;
    if (!part.ok) into.error = part.error;
    into.sent += part.sent;
    into.failed += part.failed;
    into.arrivals += part.arrivals;
    into.admitted += part.admitted;
    into.lat_us.insert(into.lat_us.end(), part.lat_us.begin(), part.lat_us.end());
    into.late_us.insert(into.late_us.end(), part.late_us.begin(),
                        part.late_us.end());
    into.sent_ops.insert(into.sent_ops.end(), part.sent_ops.begin(),
                         part.sent_ops.end());
  };
  const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  for (int round = 0; round < kRounds && nominal.ok && peak.ok; ++round) {
    const auto before = server_stats(srv.addr(), &err);
    const double cpu0 = process_cpu_ns(srv.pid());
    Phase a = run_phase(conns, spec.nominal_rate,
                        count(spec.nominal_rate, t_nominal / kRounds), SIZE_MAX);
    server_cpu_ns += process_cpu_ns(srv.pid()) - cpu0;
    const auto after = server_stats(srv.addr(), &err);
    if (before.empty() || after.empty()) {
      res.fail_check("GET_STATS: " + err);
      return res;
    }
    if (round == 0) st0 = before;
    frames += stat_delta(before, after, "frames_rx");
    batches += stat_delta(before, after, "batches");
    inlined += stat_delta(before, after, "frames_inline");
    records += stat_delta(before, after, "wal_records");
    commits += stat_delta(before, after, "wal_commits");
    append(nominal_p50s, chunk_quantile(a.lat_us, round_windows, 0.5));
    append(nominal_p99s, chunk_quantile(a.lat_us, round_windows, 0.99));
    merge(nominal, std::move(a));
    Phase b = run_phase(conns, spec.peak_rate,
                        count(spec.peak_rate, t_peak / kRounds), SIZE_MAX);
    append(peak_p99s, chunk_quantile(b.lat_us, peak_round_windows, 0.99));
    merge(peak, std::move(b));
  }
  for (std::size_t s = 0; s < S; ++s) nominal_to[s] = conns[s].next;
  if (!nominal.ok || !peak.ok) {
    res.fail_check("nominal/top-rate phase: " + nominal.error + peak.error);
    return res;
  }

  // A ladder rate passes when at least two of its three chunks meet the
  // p99 limit (a failed request misses it): one disk or scheduler stall
  // cannot decide a step, a saturated server fails every chunk.  A rate
  // that misses is tried once more, so a burst of host noise needs to hit
  // twice.  The knee is the rate delivered at the highest passing step
  // before three consecutive misses.
  double knee = 0;
  int misses = 0;
  std::uint64_t ladder_attempted = 0, ladder_failed = 0;
  std::string ladder_log;
  double ladder_spent = 0;
  for (const double r : spec.ladder) {
    if (ladder_spent >= t_ladder) break;
    ladder_spent += step_s(r);
    bool pass = false;
    Phase step;
    std::string tries;
    const std::size_t need = count(r, step_s(r));
    const auto have = [&] {
      for (const Conn& c : conns) {
        if (c.ops->size() - c.next < need / S + 1) return false;
      }
      return true;
    };
    if (!have()) break;  // streams spent: the ladder ends here
    for (int attempt = 0; attempt < 2 && !pass && have(); ++attempt) {
      step = run_phase(conns, r, need, SIZE_MAX);
      if (!step.ok) {
        res.fail_check("ladder step: " + step.error);
        return res;
      }
      ladder_attempted += step.sent;
      ladder_failed += step.failed;
      const std::vector<double> p99s = chunk_quantile(step.lat_us, 3, 0.99);
      const auto good = std::count_if(p99s.begin(), p99s.end(), [&](double p) {
        return p <= spec.limit_us;
      });
      pass = good >= 2;
      tries += attempt == 0 ? "" : "|";
      for (std::size_t c = 0; c < p99s.size(); ++c) {
        tries += (c == 0 ? "" : "/") + std::to_string(static_cast<long>(p99s[c]));
      }
    }
    ladder_log += (ladder_log.empty() ? "" : " ") + std::to_string(static_cast<long>(r)) +
                  ":" + tries + (pass ? "" : "x");
    if (pass) {
      knee = static_cast<double>(step.sent) / step.seconds;  // delivered
      misses = 0;
    } else if (++misses == 3) {
      break;
    }
  }
  const double rss = peak_rss_mb(srv.pid());
  const auto st2 = server_stats(srv.addr(), &err);
  for (Conn& c : conns) c.client.close();
  const int exit_code = srv.terminate();
  if (exit_code != 0) res.fail_check("server did not exit cleanly");

  // Correctness: every answer against the offline replay; after a WAL
  // run, recovery of a copy must land on the served decision streams.
  std::vector<ShardVerdict> verdicts;
  for (std::size_t s = 0; s < S; ++s) {
    verdicts.push_back(verify_shard(spec, streams[s], spec.population_ops,
                                    conns[s].answers, conns[s].retried));
    if (!verdicts.back().ok) {
      res.fail_check("shard " + std::to_string(s) + ": " + verdicts.back().error);
    }
  }
  if (spec.wal && res.correct) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> rec;
    if (!recover_copy(spec, opt, wal_dir, &rec, &err)) {
      res.fail_check(err);
    } else {
      for (std::size_t s = 0; s < S; ++s) {
        if (rec[s].second != verdicts[s].checksum) {
          res.fail_check("recovered checksum of shard " + std::to_string(s) +
                         " differs from the served stream");
        }
        if (rec[s].first < verdicts[s].decisions) {
          res.fail_check("recovered fewer decisions than were acknowledged");
        }
      }
    }
  }

  // End-to-end metrics.
  const std::uint64_t attempted = nominal.sent + peak.sent + ladder_attempted;
  const std::uint64_t failed = nominal.failed + peak.failed + ladder_failed;
  res.attempted = attempted;
  res.failed = failed;
  // p50: the quietest window's median.  Host state moves every window's
  // median by 10-20% for minutes at a time; the floor moves least.
  m.set("p50_us", quantile(nominal_p50s, 0.0), "us");
  m.set("tail.p99_us", window_stat(nominal_p99s), "us");
  m.set("tail.p99_peak_us", window_stat(peak_p99s), "us");
  // The spread of the windows shows how much host noise the run saw.
  for (const auto& [name, per_window] :
       {std::pair{"nominal_p50", &nominal_p50s}, std::pair{"nominal_p99", &nominal_p99s},
        std::pair{"peak_p99", &peak_p99s}}) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%zu windows, q0 %.2f q05 %.2f q10 %.2f q25 %.2f q50 %.2f max %.1f",
                  per_window->size(), quantile(*per_window, 0.0),
                  quantile(*per_window, 0.05), quantile(*per_window, 0.1),
                  quantile(*per_window, 0.25), quantile(*per_window, 0.5),
                  quantile(*per_window, 1.0));
    res.info.set(std::string(name) + "_windows_us", buf);
  }
  m.set("throughput_per_s", knee, "1/s");
  m.set("success_pct",
        100.0 * (1.0 - static_cast<double>(failed) /
                           static_cast<double>(std::max<std::uint64_t>(attempted, 1))),
        "%");
  m.set("acceptance_pct",
        100.0 * static_cast<double>(nominal.admitted) /
            static_cast<double>(std::max<std::uint64_t>(nominal.arrivals, 1)),
        "%");
  m.set("peak_rss_mb", rss, "MiB");

  // Per-layer metrics from the server's own counters and /proc.
  m.set("net.frames_per_batch", batches > 0 ? frames / batches : 0, "count");
  m.set("net.inline_frac", frames > 0 ? inlined / frames : 0, "ratio");
  m.set("net.server_cpu_us_per_op",
        nominal.sent > 0 ? server_cpu_ns * 1e-3 / static_cast<double>(nominal.sent)
                         : 0,
        "us");
  const double all_frames = st2.empty() ? 0 : stat_delta(st0, st2, "frames_rx");
  m.set("net.retried_frac",
        all_frames > 0 ? stat_delta(st0, st2, "retried") / all_frames : 0, "ratio");
  m.set("net.partial_writes", st2.empty() ? 0 : stat_delta(st0, st2, "partial_writes"),
        "count");
  m.set("net.rtt_idle_us_p50", median(rtt), "us");
  m.set("io.records_per_commit", commits > 0 ? records / commits : 0, "count");
  m.set("loadgen.late_us_p99", quantile(nominal.late_us, 0.99), "us");

  res.info.set("workload", spec.name);
  res.info.set("transport", "tcp loopback 127.0.0.1");
  res.info.set("wal_fs", spec.wal ? fs_type(opt.work_dir) : "none");
  res.info.set("nominal_rate_per_s", spec.nominal_rate);
  res.info.set("peak_rate_per_s", spec.peak_rate);
  res.info.set("nominal_samples", static_cast<double>(nominal.lat_us.size()));
  res.info.set("peak_samples", static_cast<double>(peak.lat_us.size()));
  res.info.set("ladder_p99_us", ladder_log);
  res.info.set("setup_samples", static_cast<double>(setups.size()));
  res.info.set("server_exit", static_cast<double>(exit_code));

  if (opt.trace) {
    // The replay starts where the nominal rounds start and covers at most
    // kTracedPerShard requests of each shard, which bounds the span
    // ledger and its file.
    constexpr std::size_t kTracedPerShard = 25000;
    TracedInputs tin;
    tin.warm_from = warm_from;
    tin.nominal_from = nominal_from;
    tin.nominal_to = nominal_to;
    for (std::size_t s = 0; s < S; ++s) {
      tin.nominal_to[s] = std::min(nominal_to[s], nominal_from[s] + kTracedPerShard);
    }
    tin.batch = static_cast<std::size_t>(
        std::max(1.0, std::round(batches > 0 ? frames / batches : 1)));
    tin.pace_every = static_cast<std::size_t>(
        std::max(1.0, spec.nominal_rate * 0.010));  // the pacer's 10 ms tick
    tin.seeded_wal = spec.wal && spec.population_ops > 0 ? seeded : "";
    std::vector<std::vector<double>> sums;
    traced_service(spec, opt, streams, tin, &res, &sums);
    // Unattributed: end-to-end latency minus the in-process stage sum of
    // the same request (nominal rounds, matched by shard and request).
    std::vector<double> unattributed;
    for (std::size_t k = 0; k < nominal.sent_ops.size(); ++k) {
      const auto [s, op] = nominal.sent_ops[k];
      const std::size_t idx = op - nominal_from[s];
      if (s < sums.size() && idx < sums[s].size()) {
        unattributed.push_back(nominal.lat_us[k] - sums[s][idx] * 1e-3);
      }
    }
    m.set("net.unattributed_us_p50", median(unattributed), "us");
  }
  return res;
}

}  // namespace perfbench
