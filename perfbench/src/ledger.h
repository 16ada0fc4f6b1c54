// Span ledger for the traced run.
//
// The traced run replays a workload's inputs in-process through the
// layers' public functions and records one span around each call, from
// the benchmark's own code: a name (Stage), start, end, the span that
// caused it, and the id of the request it belongs to.  Spans stay in a
// preallocated vector while the replay runs and are written out as JSONL
// when the run ends.  A disabled ledger records nothing, so the same
// replay code measures the untraced baseline that trace.overhead_pct
// compares against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Stage : std::uint8_t {
  kRequest,        // one request, decode through encode
  kDecode,         // net::decode_request
  kAdmit,          // OnlinePartitioner::admit (tag = verdict tier)
  kDepart,         // OnlinePartitioner::depart
  kWalAppend,      // io::WalWriter::append_*
  kEncode,         // net::encode_response
  kCommit,         // io::WalWriter::commit, once per batch
  kPaceSync,       // io::WalWriter::pace_sync
  kRecover,        // net::recover_shard_set
  kSnapshotWrite,  // io::write_snapshot_file
  kFirstFit,       // first_fit_partition
  kAccepts,        // first_fit_accepts (scratch)
  kMinAlpha,       // min_feasible_alpha (scratch)
  kFindBatch,      // SlackTree::find_first_at_least x kFindBatchSize
  kCount,
};

const char* stage_name(Stage s);

struct Span {
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::uint64_t request = 0;  // shared by every span of one request
  std::uint32_t parent = 0;   // index + 1 of the causing span; 0 = root
  Stage stage = Stage::kRequest;
  std::uint8_t tag = 0;
};

class Ledger {
 public:
  explicit Ledger(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void reserve(std::size_t n) { spans_.reserve(n); }

  // Opens a span and returns its handle (index + 1; 0 when disabled).
  std::uint32_t begin(Stage stage, std::uint64_t request,
                      std::uint32_t parent = 0);
  void end(std::uint32_t handle, std::uint8_t tag = 0);

  const std::vector<Span>& spans() const { return spans_; }

  // Durations in ns of every span of `stage` (optionally only those with
  // `tag`); self == true subtracts the time covered by child spans.
  std::vector<double> durations(Stage stage, bool self = false,
                                int tag = -1) const;

  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

class Metrics;

// The admit.* metrics from kAdmit spans (tagged with the verdict tier):
// tier shares of all admits, tier latencies, and the share of escalated
// verdicts (tier >= 1) that admitted.
void set_admit_metrics(const Ledger& ledger, std::size_t escalated,
                       std::size_t escalated_accepted, Metrics& m);

}  // namespace perfbench
