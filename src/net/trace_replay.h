// Bridge between io/trace_format churn traces and the wire protocol:
// replay a text trace against a live server and prove the served decision
// sequence bit-identical to an offline replay on the same platform.
//
// Both sides fold the same FNV-1a checksum (the decision_checksum fold of
// bench/bench_obs_overhead.cpp):
//
//   per arrival:    h = fnv1a(h, admitted ? 1 : 0)
//                   h = fnv1a(h, admitted ? machine : 0)
//                   h = fnv1a(h, bit pattern of the task utilization)
//   per departure of an ADMITTED task:
//                   h = fnv1a(h, departed-ok ? 1 : 0)
//
// Departures of rejected arrivals are skipped on both sides (the client
// never learned a server id for them, and the offline controller never
// held the task).  The served checksum is comparable to the offline one
// only when retries == 0 — a kRetryLater answer drops the request from
// the decision stream, so integration tests size the shard queue at least
// as large as the pipeline window and assert retries == 0.
#pragma once

#include <cstddef>
#include <cstdint>

#include "admit/admission_test.h"
#include "core/platform.h"
#include "gen/churn_gen.h"
#include "net/client.h"
#include "partition/admission.h"
#include "partition/engine.h"
#include "util/fnv.h"

namespace hetsched::net {

// FNV-1a over the 8 bytes of `v`, little-endian byte order — the shared
// util/fnv.h fold, so checksums stay comparable repo-wide (bench, WAL,
// controller decision checksum).
inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  return ::hetsched::fnv1a_u64(h, v);
}

inline constexpr std::uint64_t kFnv1aSeed = kFnv1aOffsetBasis;

// Replays the trace through a local OnlinePartitioner and returns the
// decision checksum — the reference value a served replay must reproduce.
// `admit_cfg` selects the tiered admission test (src/admit); the default
// kLegacy matches a server started without --admission-test.
std::uint64_t offline_decision_checksum(
    const Platform& platform, const ChurnTrace& trace, AdmissionKind kind,
    double alpha, PartitionEngine engine = PartitionEngine::kAuto,
    const admit::AdmitConfig& admit_cfg = {});

struct ReplaySummary {
  bool ok = false;  // transport-level success (every request answered)
  std::uint64_t checksum = kFnv1aSeed;
  std::uint64_t requests = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t departed = 0;
  std::uint64_t stale = 0;
  std::uint64_t retried = 0;  // > 0 makes `checksum` incomparable
  std::uint64_t bad = 0;
};

// Drives the trace through `client` with up to `window` requests in
// flight (>= 1), routing everything to `shard`.  A departure waits until
// its arrival's response assigned a server-side task id.  `timeout_ms` is
// a no-progress budget: the replay fails if the server makes no progress
// for that long, not if the whole trace takes longer.  The client must
// already be connected.
ReplaySummary replay_trace_over_client(Client& client,
                                       const ChurnTrace& trace,
                                       std::uint16_t shard, std::size_t window,
                                       int timeout_ms);

}  // namespace hetsched::net
