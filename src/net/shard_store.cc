#include "net/shard_store.h"

#include <cstdio>

#include "obs/metrics.h"

namespace hetsched::net {

namespace {

struct RecoveryMetrics {
  obs::Counter replayed = obs::registry().counter(
      "hetsched_wal_replayed_records_total",
      "WAL records re-applied during crash recovery");
  obs::Counter reconciled = obs::registry().counter(
      "hetsched_wal_reconciled_moves_total",
      "Move-outs applied by cross-shard recovery reconciliation");
};
const RecoveryMetrics& recovery_metrics() {
  static const RecoveryMetrics m;
  return m;
}

std::string shard_error(std::size_t shard, const std::string& what) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "shard %zu: ", shard);
  return buf + what;
}

}  // namespace

ShardSetRecovery recover_shard_set(const std::string& dir,
                                   std::span<OnlinePartitioner* const>
                                       controllers,
                                   bool rotate, io::WalSync sync) {
  ShardSetRecovery out;
  const std::size_t n = controllers.size();
  out.shards.resize(n);
  std::vector<std::vector<io::WalRecord>> logs(n);
  std::uint32_t max_epoch = 0;

  // Pass 1 — per shard: newest valid snapshot, then WAL tail replay with
  // per-record (seq, checksum) parity assertions.
  for (std::size_t s = 0; s < n; ++s) {
    OnlinePartitioner& c = *controllers[s];
    ShardRecoveryInfo& info = out.shards[s];
    const std::uint32_t shard32 = static_cast<std::uint32_t>(s);

    for (const std::string& path : io::list_snapshots(dir, shard32)) {
      io::SnapshotFileMeta meta;
      std::vector<std::uint8_t> payload;
      std::string snap_err;
      if (!io::read_snapshot_file(path, &meta, &payload, &snap_err)) continue;
      if (meta.shard != shard32) continue;
      if (!c.restore_bytes(payload.data(), payload.size())) {
        // The file-level CRC already passed, so a payload whose identity
        // header names a *different* configuration is config drift, not
        // disk rot: refuse loudly.  Skipping it like a torn file would
        // silently restart empty once rotation has truncated the WAL the
        // state came from.
        if (c.snapshot_config_mismatch(payload.data(), payload.size())) {
          out.error = shard_error(
              s, path + ": snapshot was written by a differently configured "
                        "controller (admission test / platform drift)");
          return out;
        }
        continue;
      }
      if (c.decision_seq() != meta.decision_seq ||
          c.decision_checksum() != meta.decision_checksum) {
        out.error = shard_error(s, path + ": payload decision stream "
                                          "disagrees with file header");
        return out;
      }
      info.active = meta.active;
      info.forwards = meta.forwards;
      info.snapshot_seq = meta.decision_seq;
      if (meta.epoch > max_epoch) max_epoch = meta.epoch;
      break;
    }

    std::string wal_err;
    if (!io::wal_load(io::wal_path(dir, shard32), &logs[s],
                      &info.truncated_bytes, &wal_err)) {
      out.error = shard_error(s, wal_err);
      return out;
    }

    for (const io::WalRecord& rec : logs[s]) {
      if (rec.epoch > max_epoch) max_epoch = rec.epoch;
      if (rec.seq <= info.snapshot_seq) continue;
      // Every operation — including each migrated task of a move record —
      // advances decision_seq by exactly one, so the record must continue
      // the controller's stream with no gap.  A gap means lost history
      // (e.g. a deleted snapshot the tail depended on): refuse.
      const std::uint64_t step =
          (rec.type == io::WalRecordType::kMoveIn ||
           rec.type == io::WalRecordType::kMoveOut)
              ? rec.moved.size()
              : 1;
      if (rec.seq != c.decision_seq() + step) {
        out.error = shard_error(s, "WAL decision-sequence gap (lost history)");
        return out;
      }
      switch (rec.type) {
        case io::WalRecordType::kAdmit: {
          const AdmitDecision d =
              c.admit(Task{rec.exec, rec.period, rec.deadline});
          // The checksum parity below proves the verdict matched; the
          // persisted tier additionally pins *which* test decided it, so
          // a config drift that happens to agree on the verdict via a
          // different tier still fails loudly.
          if (d.tier != rec.tier()) {
            out.error = shard_error(
                s, "replayed admission tier disagrees with the WAL record");
            return out;
          }
          break;
        }
        case io::WalRecordType::kDepart:
          (void)c.depart(rec.task_id);  // stale outcome is checksum-folded
          break;
        case io::WalRecordType::kRebalance:
          (void)c.rebalance();
          break;
        case io::WalRecordType::kMoveIn:
          for (const io::WalMovedTask& mt : rec.moved) {
            const AdmitDecision d =
                c.admit_migrated(Task{mt.exec, mt.period, mt.deadline});
            if (!d.admitted || d.id != mt.new_id) {
              out.error =
                  shard_error(s, "move-in replay diverged from the record");
              return out;
            }
          }
          break;
        case io::WalRecordType::kMoveOut:
          for (const io::WalMovedTask& mt : rec.moved) {
            if (!c.depart_migrated(mt.old_id)) {
              out.error =
                  shard_error(s, "move-out replay diverged from the record");
              return out;
            }
            info.forwards.push_back({mt.old_id, rec.peer, mt.new_id});
          }
          if ((rec.flags & io::kWalFlagDeactivate) != 0) info.active = false;
          break;
      }
      if (c.decision_seq() != rec.seq || c.decision_checksum() != rec.checksum) {
        out.error = shard_error(
            s, "replay decision stream diverged from the WAL record — the "
               "log does not reproduce the acknowledged decisions");
        return out;
      }
      ++info.replayed;
      HETSCHED_COUNT(recovery_metrics().replayed);
    }
  }

  // Pass 2 — cross-shard reconciliation: a MoveIn in a replayed tail whose
  // source shard still holds the moved tenants proves the crash landed
  // between the target's fsync and the source's.  Both shards were
  // quiesced for the resize, so the missing MoveOut is after everything in
  // the source's log; applying its effects now reproduces the pre-crash
  // state.
  for (std::size_t t = 0; t < n; ++t) {
    for (const io::WalRecord& rec : logs[t]) {
      if (rec.type != io::WalRecordType::kMoveIn) continue;
      if (rec.seq <= out.shards[t].snapshot_seq) continue;
      if (rec.peer >= n) {
        out.error = shard_error(t, "move-in names an unknown source shard");
        return out;
      }
      const std::size_t src = rec.peer;
      OnlinePartitioner& sc = *controllers[src];
      std::size_t live = 0;
      for (const io::WalMovedTask& mt : rec.moved) {
        if (sc.machine_of(mt.old_id).has_value()) ++live;
      }
      if (live == 0) continue;  // the source's own log already moved them
      if (live != rec.moved.size()) {
        out.error = shard_error(src, "partially applied shard move");
        return out;
      }
      for (const io::WalMovedTask& mt : rec.moved) {
        if (!sc.depart_migrated(mt.old_id)) {
          out.error = shard_error(src, "reconciliation move-out diverged");
          return out;
        }
        out.shards[src].forwards.push_back(
            {mt.old_id, static_cast<std::uint32_t>(t), mt.new_id});
      }
      if ((rec.flags & io::kWalFlagDeactivate) != 0) {
        out.shards[src].active = false;
      }
      ++out.shards[src].reconciled;
      HETSCHED_COUNT(recovery_metrics().reconciled);
    }
  }

  for (std::size_t s = 0; s < n; ++s) {
    out.shards[s].decision_seq = controllers[s]->decision_seq();
    out.shards[s].decision_checksum = controllers[s]->decision_checksum();
  }
  out.next_epoch = max_epoch + 1;

  // Pass 3 — rotation: fresh snapshot first (the new recovery base), WAL
  // truncation only once that snapshot is durable, older snapshots pruned
  // last.  A crash anywhere in this sequence leaves a recoverable state.
  if (rotate) {
    for (std::size_t s = 0; s < n; ++s) {
      io::SnapshotFileMeta meta;
      meta.shard = static_cast<std::uint32_t>(s);
      meta.epoch = out.next_epoch;
      meta.decision_seq = out.shards[s].decision_seq;
      meta.decision_checksum = out.shards[s].decision_checksum;
      meta.active = out.shards[s].active;
      meta.forwards = out.shards[s].forwards;
      const std::vector<std::uint8_t> payload =
          controllers[s]->serialize_snapshot();
      std::string err;
      const std::string path =
          io::write_snapshot_file(dir, meta, payload, 0, /*durable=*/true,
                                  &err);
      if (path.empty()) {
        out.error = shard_error(s, err);
        return out;
      }
      io::WalWriter w;
      if (!w.open(io::wal_path(dir, static_cast<std::uint32_t>(s)),
                  out.next_epoch, sync) ||
          !w.truncate_restart(out.next_epoch)) {
        out.error = shard_error(s, "WAL rotation failed");
        return out;
      }
      w.close();
      io::prune_snapshots_except(dir, static_cast<std::uint32_t>(s), path);
    }
  }
  out.ok = true;
  return out;
}

}  // namespace hetsched::net
