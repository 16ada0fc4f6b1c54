// Regenerates the committed seed corpus under fuzz/corpus/ using the real
// encoders — the same distillation of the dur_test/net_test fixtures the
// harnesses round-trip against:
//
//   corpus/frame/     valid request/response frames (every MsgType,
//                     compact, traced minor-2, and constrained-deadline
//                     minor-3 images, an info reply), a pipelined
//                     mixed-length unit, and truncated prefixes for
//                     every frame size
//   corpus/wal/       a multi-record WAL (admit/depart/rebalance), a
//                     resize WAL (MoveOut with the deactivate flag), a
//                     constrained WAL (deadline-bearing admits with
//                     nonzero tiers and a constrained move record), and
//                     a torn-tail copy recovery must truncate
//   corpus/snapshot/  published snapshot files (with and without a
//                     forwarding table) whose payload is a real
//                     OnlinePartitioner::serialize_snapshot() image
//   corpus/trace/     churn traces in the text grammar, validated by
//                     parse_trace_string before they are written
//   corpus/instance/  task-system instances in the text grammar (exact
//                     rational and decimal speeds, CRLF ends, tab and
//                     glued-comment lexing, a task-free platform),
//                     validated by parse_instance_string
//
// Usage: make_corpus [corpus-root]   (default: fuzz/corpus)
// The output is deterministic, so regenerating after an encoder change
// yields a reviewable diff of the seeds.
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "admit/admission_test.h"
#include "core/platform.h"
#include "core/task.h"
#include "io/snapshot_format.h"
#include "io/text_format.h"
#include "io/trace_format.h"
#include "io/wal.h"
#include "net/protocol.h"
#include "online/online_partitioner.h"

namespace {

namespace fs = std::filesystem;
namespace io = hetsched::io;
namespace net = hetsched::net;

int g_failures = 0;

void write_file(const fs::path& path, const void* data, std::size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  if (!out) {
    std::fprintf(stderr, "make_corpus: failed to write %s\n",
                 path.string().c_str());
    ++g_failures;
  } else {
    std::printf("  %-40s %zu bytes\n", path.string().c_str(), size);
  }
}

void write_frames(const fs::path& dir) {
  unsigned char buf[net::kDeadlineFrameSize * 3];
  const auto one = [&](const char* name, const net::Request& r) {
    const std::size_t n = net::encode_request(r, buf);
    write_file(dir / name, buf, n);
  };
  one("admit.bin", net::Request::admit(0, 1, 2, 10));
  one("depart.bin", net::Request::depart(1, 2, 7));
  one("rebalance.bin", net::Request::rebalance(2, 3));
  one("split.bin", net::Request::split(0, 4));
  one("merge.bin", net::Request::merge(3, 1, 5));

  // Protocol minor 2: the traced 44-byte request image and the
  // introspection request types.
  net::Request traced = net::Request::admit(0, 6, 4, 15);
  traced.trace_id = 0xF00DFACEULL;
  one("admit_traced.bin", traced);
  one("get_stats.bin", net::Request::get_stats(11));
  one("get_tracez.bin", net::Request::get_tracez(12, 5));

  // Protocol minor 3: the constrained-deadline 52-byte admit image — once
  // bare (trace id slot legitimately zero) and once traced, so the fuzzer
  // starts from both canonical long-form variants.
  one("admit_deadline.bin", net::Request::admit(0, 14, 4, 15, 9));
  one("admit_deadline_traced.bin",
      net::Request::admit(1, 15, 5, 20, 12).traced(0xFEEDULL));

  net::Response resp;
  resp.type = net::MsgType::kAdmit;
  resp.status = net::Status::kAdmitted;
  resp.machine = 2;
  resp.request_id = 1;
  resp.task_id = 7;
  resp.value = std::bit_cast<std::uint64_t>(0.2);
  net::encode_response(resp, buf);
  write_file(dir / "resp_admitted.bin", buf, net::kFrameSize);

  resp.status = net::Status::kRetryLater;
  resp.machine = 0;
  resp.task_id = 0;
  resp.value = 0;
  net::encode_response(resp, buf);
  write_file(dir / "resp_retry.bin", buf, net::kFrameSize);

  // An info response (GET_STATS reply) with a short Prometheus-style
  // body: the variable-length codec's seed.
  net::InfoResponse info;
  info.type = net::MsgType::kGetStats;
  info.request_id = 11;
  info.value = 2;
  info.text = "# TYPE hetsched_server_frames_rx_total counter\n";
  std::vector<unsigned char> info_buf;
  net::encode_info_response(info, &info_buf);
  write_file(dir / "resp_info.bin", info_buf.data(), info_buf.size());

  // Two frames back to back (traced then compact): the decoder's
  // consumed-loop seed, now with mixed frame lengths.
  net::Request first = net::Request::admit(0, 8, 3, 20);
  first.trace_id = 0xBEEF;
  const std::size_t n1 = net::encode_request(first, buf);
  const std::size_t n2 =
      net::encode_request(net::Request::depart(0, 9, 1), buf + n1);
  write_file(dir / "pipelined.bin", buf, n1 + n2);

  // All three request lengths in one unit: deadline, compact, traced.
  const std::size_t d1 =
      net::encode_request(net::Request::admit(0, 16, 2, 9, 6), buf);
  const std::size_t d2 =
      net::encode_request(net::Request::admit(0, 17, 2, 9), buf + d1);
  const std::size_t d3 = net::encode_request(
      net::Request::admit(0, 18, 2, 9).traced(0xAB), buf + d1 + d2);
  write_file(dir / "pipelined_deadline.bin", buf, d1 + d2 + d3);

  // A header plus a payload prefix: the kNeedMore path.
  net::encode_request(net::Request::admit(0, 10, 5, 25), buf);
  write_file(dir / "truncated.bin", buf, net::kHeaderSize + 11);

  // A compact frame's worth of bytes whose prefix promises the traced
  // payload: kNeedMore even though kFrameSize bytes are buffered.
  net::Request cut = net::Request::admit(0, 13, 6, 30);
  cut.trace_id = 0xCAFE;
  net::encode_request(cut, buf);
  write_file(dir / "truncated_traced.bin", buf, net::kFrameSize);

  // A traced frame's worth of bytes whose prefix promises the deadline
  // payload: kNeedMore even though kTracedFrameSize bytes are buffered.
  net::encode_request(net::Request::admit(0, 19, 7, 35, 21), buf);
  write_file(dir / "truncated_deadline.bin", buf, net::kTracedFrameSize);
}

void write_wals(const fs::path& dir) {
  // WalWriter appends to an existing log (that is its job), so clear the
  // previous seeds first or an in-place regeneration doubles the files.
  fs::remove(dir / "basic.bin");
  fs::remove(dir / "resize.bin");
  fs::remove(dir / "constrained.bin");
  const std::string basic = (dir / "basic.bin").string();
  {
    io::WalWriter w;
    if (!w.open(basic, 1, io::WalSync::kOff)) {
      std::fprintf(stderr, "make_corpus: cannot open %s\n", basic.c_str());
      ++g_failures;
      return;
    }
    w.append_admit(2, 10, 1, 0x1111);
    w.append_admit(9, 10, 2, 0x2222);
    w.append_depart(1, 3, 0x3333);
    w.append_rebalance(4, 0x4444);
    w.commit(true);
    w.close();
    std::printf("  %-40s (WalWriter)\n", basic.c_str());
  }
  {
    const std::string resize = (dir / "resize.bin").string();
    io::WalWriter w;
    if (!w.open(resize, 2, io::WalSync::kOff)) {
      std::fprintf(stderr, "make_corpus: cannot open %s\n", resize.c_str());
      ++g_failures;
      return;
    }
    const io::WalMovedTask moved[] = {{1, 101, 2, 10}, {2, 102, 9, 10}};
    w.append_move(io::WalRecordType::kMoveOut, 1, io::kWalFlagDeactivate,
                  moved, 5, 0x5555);
    w.commit(true);
    w.close();
    std::printf("  %-40s (WalWriter)\n", resize.c_str());
  }
  {
    // Constrained records (admission subsystem): deadline-bearing admits
    // with nonzero decision tiers in the flags, a legacy admit in the
    // same log (length-discriminated bodies), and a constrained move.
    const std::string constrained = (dir / "constrained.bin").string();
    io::WalWriter w;
    if (!w.open(constrained, 3, io::WalSync::kOff)) {
      std::fprintf(stderr, "make_corpus: cannot open %s\n",
                   constrained.c_str());
      ++g_failures;
      return;
    }
    w.append_admit(5, 10, 1, 0x6666, /*deadline=*/5, hetsched::admit::kTierBound);
    w.append_admit(4, 10, 2, 0x7777, /*deadline=*/9, hetsched::admit::kTierExact);
    w.append_admit(2, 10, 3, 0x8888);  // implicit: 16-byte legacy body
    const io::WalMovedTask cmoved[] = {{1, 101, 5, 10, 5}, {2, 102, 4, 10, 9}};
    w.append_move(io::WalRecordType::kMoveOut, 1, io::kWalFlagDeactivate,
                  cmoved, 4, 0x9999);
    w.commit(true);
    w.close();
    std::printf("  %-40s (WalWriter)\n", constrained.c_str());
  }
  // Torn tail: the basic WAL minus its last 3 bytes; recovery keeps the
  // whole-record prefix and truncates the rest.
  std::ifstream in(basic, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  if (bytes.size() > 3) {
    write_file(dir / "torn.bin", bytes.data(), bytes.size() - 3);
  }
}

void write_snapshots(const fs::path& dir) {
  // A real controller image as the opaque payload.
  hetsched::Platform platform = hetsched::Platform::from_speeds({1.0, 2.0});
  hetsched::OnlinePartitioner controller(platform,
                                         hetsched::AdmissionKind::kEdf, 1.0);
  (void)controller.admit(hetsched::Task{2, 10});
  (void)controller.admit(hetsched::Task{9, 10});
  const std::vector<std::uint8_t> payload = controller.serialize_snapshot();

  std::string error;
  io::SnapshotFileMeta meta;
  meta.shard = 0;
  meta.epoch = 1;
  meta.decision_seq = 2;
  meta.decision_checksum = 0xABCD;
  const std::string plain =
      io::write_snapshot_file(dir.string(), meta, payload, 0, false, &error);
  if (plain.empty()) {
    std::fprintf(stderr, "make_corpus: snapshot write failed: %s\n",
                 error.c_str());
    ++g_failures;
  } else {
    std::printf("  %-40s (write_snapshot_file)\n", plain.c_str());
  }

  meta.shard = 1;
  meta.epoch = 3;
  meta.decision_seq = 9;
  meta.active = false;  // merged away: forwards route its former tenants
  meta.forwards = {{7, 0, 70}, {8, 2, 80}};
  const std::string merged =
      io::write_snapshot_file(dir.string(), meta, payload, 0, false, &error);
  if (merged.empty()) {
    std::fprintf(stderr, "make_corpus: snapshot write failed: %s\n",
                 error.c_str());
    ++g_failures;
  } else {
    std::printf("  %-40s (write_snapshot_file)\n", merged.c_str());
  }
}

void write_traces(const fs::path& dir) {
  const auto one = [&](const char* name, const std::string& text) {
    const auto parsed = hetsched::parse_trace_string(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "make_corpus: seed trace %s does not parse\n",
                   name);
      ++g_failures;
      return;
    }
    write_file(dir / name, text.data(), text.size());
  };
  one("basic.trace",
      "platform 1 1 2.5\n"
      "arrive 0.5 0 2 10\n"
      "arrive 1.25 1 9 10\n"
      "depart 3.5 0\n");
  one("rational.trace",
      "# heterogeneous speeds as exact rationals\n"
      "platform 3/2 1 7/4\n"
      "arrive 0 0 1 4\n"
      "arrive 0 1 3 8\n"
      "depart 2 1\n"
      "arrive 2 2 1 2\n");
  one("empty_events.trace", "platform 1\n");
  one("constrained.trace",
      "# optional sixth token: constrained deadline (0 < d <= period)\n"
      "platform 1 1\n"
      "arrive 0 0 5 10 5\n"
      "arrive 0.5 1 4 10 9\n"
      "arrive 1 2 2 10\n"
      "depart 2 0\n");
}

void write_instances(const fs::path& dir) {
  const auto one = [&](const char* name, const std::string& text) {
    const auto parsed = hetsched::parse_instance_string(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "make_corpus: seed instance %s does not parse\n",
                   name);
      ++g_failures;
      return;
    }
    write_file(dir / name, text.data(), text.size());
  };
  one("basic.inst",
      "# big.LITTLE with one fast core\n"
      "platform 1 1 2.5\n"
      "task 2 10\n"
      "task 9 10\n");
  one("rational.inst",
      "platform 3/2 1 7/4 .25\n"
      "task 1 4\n"
      "task 3 8\n"
      "task 1 2\n");
  one("no_tasks.inst", "platform 1\n");
  one("lexing.inst",
      "\tplatform\v2\f1/3\r\n"
      "\r\n"
      "task 5 7#glued comment\r\n"
      "  # indented comment\n"
      "task\t1\t1000000");
}

}  // namespace

int main(int argc, char** argv) {
  const fs::path root = argc > 1 ? argv[1] : "fuzz/corpus";
  for (const char* sub : {"frame", "wal", "snapshot", "trace", "instance"}) {
    std::error_code ec;
    fs::create_directories(root / sub, ec);
    if (ec) {
      std::fprintf(stderr, "make_corpus: mkdir %s failed: %s\n",
                   (root / sub).string().c_str(), ec.message().c_str());
      return 1;
    }
  }
  std::printf("make_corpus: writing seeds under %s\n", root.string().c_str());
  write_frames(root / "frame");
  write_wals(root / "wal");
  write_snapshots(root / "snapshot");
  write_traces(root / "trace");
  write_instances(root / "instance");
  if (g_failures != 0) {
    std::fprintf(stderr, "make_corpus: %d failure(s)\n", g_failures);
    return 1;
  }
  return 0;
}
