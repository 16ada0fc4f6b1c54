// Test client for `hetsched_cli serve --listen`: replays one seeded churn
// trace per shard, each shard on its own connection and thread, and prints
// the totals as one line.
//
//   net_drive --connect H:P [--shards S] [--arrivals N]
//
// N arrivals in total (default 1000) are split evenly over shards 0..S-1
// (1 <= S <= kMaxShards, default 1).  Exits 0 when every replay completes
// with no bad answer, 1 on a transport failure or a bad answer, 2 on a
// usage error.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "gen/churn_gen.h"
#include "net/client.h"
#include "net/server.h"
#include "net/trace_replay.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace hetsched;
  using namespace hetsched::net;

  std::string addr;
  std::size_t shards = 1;
  std::size_t arrivals = 1000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for '%s'\n", arg.c_str());
      return 2;
    }
    const char* value = argv[++i];
    if (arg == "--connect") {
      addr = value;
    } else if (arg == "--shards") {
      shards = static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
    } else if (arg == "--arrivals") {
      arrivals = static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (addr.empty() || shards < 1 || shards > kMaxShards || arrivals < 1) {
    std::fputs("usage: net_drive --connect H:P [--shards S] [--arrivals N]\n",
               stderr);
    return 2;
  }

  std::vector<ReplaySummary> sums(shards);
  std::vector<std::string> errors(shards);
  std::vector<std::thread> workers;
  for (std::size_t s = 0; s < shards; ++s) {
    workers.emplace_back([&, s] {
      Rng rng(0x10AD + s * 0x9E3779B97F4A7C15ULL);
      ChurnSpec spec;
      spec.arrivals = arrivals / shards + (s < arrivals % shards ? 1 : 0);
      const ChurnTrace trace = generate_churn_trace(rng, spec);
      Client client;
      if (!client.connect(addr, 5000, &errors[s])) return;
      sums[s] = replay_trace_over_client(
          client, trace, static_cast<std::uint16_t>(s), 256, 10000);
      if (!sums[s].ok) errors[s] = client.last_error();
    });
  }
  for (std::thread& t : workers) t.join();

  ReplaySummary total;
  total.ok = true;
  for (std::size_t s = 0; s < shards; ++s) {
    if (!sums[s].ok) {
      std::fprintf(stderr, "shard %zu: %s\n", s,
                   errors[s].empty() ? "replay failed" : errors[s].c_str());
      total.ok = false;
    }
    total.requests += sums[s].requests;
    total.admitted += sums[s].admitted;
    total.rejected += sums[s].rejected;
    total.departed += sums[s].departed;
    total.retried += sums[s].retried;
    total.bad += sums[s].bad;
  }
  std::printf(
      "drive: %llu requests, %llu admitted, %llu rejected, %llu departed, "
      "%llu retried, %llu bad\n",
      static_cast<unsigned long long>(total.requests),
      static_cast<unsigned long long>(total.admitted),
      static_cast<unsigned long long>(total.rejected),
      static_cast<unsigned long long>(total.departed),
      static_cast<unsigned long long>(total.retried),
      static_cast<unsigned long long>(total.bad));
  return total.ok && total.bad == 0 ? 0 : 1;
}
