#include "ledger.h"

#include <cstdio>

#include "common.h"

namespace perfbench {

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kRequest: return "request";
    case Stage::kDecode: return "net.decode";
    case Stage::kAdmit: return "online.admit";
    case Stage::kDepart: return "online.depart";
    case Stage::kWalAppend: return "io.wal_append";
    case Stage::kEncode: return "net.encode";
    case Stage::kCommit: return "io.commit";
    case Stage::kPaceSync: return "io.pace_sync";
    case Stage::kRecover: return "shard_store.recover";
    case Stage::kSnapshotWrite: return "io.snapshot_write";
    case Stage::kFirstFit: return "partition.first_fit";
    case Stage::kAccepts: return "partition.accepts";
    case Stage::kMinAlpha: return "partition.min_alpha";
    case Stage::kFindBatch: return "partition.slacktree_find";
    case Stage::kCount: break;
  }
  return "?";
}

std::uint32_t Ledger::begin(Stage stage, std::uint64_t request,
                            std::uint32_t parent) {
  if (!enabled_) return 0;
  Span s;
  s.stage = stage;
  s.request = request;
  s.parent = parent;
  s.t0 = now_ns();
  spans_.push_back(s);
  return static_cast<std::uint32_t>(spans_.size());
}

void Ledger::end(std::uint32_t handle, std::uint8_t tag) {
  if (handle == 0) return;
  Span& s = spans_[handle - 1];
  s.t1 = now_ns();
  s.tag = tag;
}

std::vector<double> Ledger::durations(Stage stage, bool self, int tag) const {
  std::vector<double> child(self ? spans_.size() : 0, 0.0);
  if (self) {
    for (const Span& s : spans_) {
      if (s.parent != 0) {
        child[s.parent - 1] += static_cast<double>(s.t1 - s.t0);
      }
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.stage != stage || (tag >= 0 && s.tag != tag)) continue;
    double d = static_cast<double>(s.t1 - s.t0);
    if (self) d -= child[i];
    out.push_back(d);
  }
  return out;
}

bool Ledger::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"parent\":%u,\"request\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%llu,\"end_ns\":%llu,\"tag\":%u}\n",
                 i + 1, s.parent, static_cast<unsigned long long>(s.request),
                 stage_name(s.stage), static_cast<unsigned long long>(s.t0),
                 static_cast<unsigned long long>(s.t1),
                 static_cast<unsigned>(s.tag));
  }
  return std::fclose(f) == 0;
}

void set_admit_metrics(const Ledger& ledger, std::size_t escalated,
                       std::size_t escalated_accepted, Metrics& m) {
  const auto all = ledger.durations(Stage::kAdmit);
  const auto t0 = ledger.durations(Stage::kAdmit, false, 0);
  const auto t1 = ledger.durations(Stage::kAdmit, false, 1);
  const auto t2 = ledger.durations(Stage::kAdmit, false, 2);
  const double admits = static_cast<double>(std::max<std::size_t>(all.size(), 1));
  m.set("admit.tier0_frac", static_cast<double>(t0.size()) / admits, "ratio");
  m.set("admit.tier1_frac", static_cast<double>(t1.size()) / admits, "ratio");
  m.set("admit.tier2_frac", static_cast<double>(t2.size()) / admits, "ratio");
  m.set("admit.tier1_us_p99", quantile(t1, 0.99) * 1e-3, "us");
  m.set("admit.tier2_us_p50", quantile(t2, 0.5) * 1e-3, "us");
  m.set("admit.tier2_us_p99", quantile(t2, 0.99) * 1e-3, "us");
  m.set("admit.tier2_us_p999", quantile(t2, 0.999) * 1e-3, "us");
  m.set("admit.escalated_accept_frac",
        escalated > 0 ? static_cast<double>(escalated_accepted) /
                            static_cast<double>(escalated)
                      : 0.0,
        "ratio");
}

}  // namespace perfbench
