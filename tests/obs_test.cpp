// Tests for the observability layer (src/obs): bucket mapping against
// util/stats.h's Histogram, registry aggregation across threads (the
// TSan-matrix workload for `ctest -L obs`), trace ring semantics, JSONL
// serialization, and the instrumentation macros.
#include "obs/metrics.h"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/platform.h"
#include "core/task.h"
#include "io/obs_jsonl.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "online/online_partitioner.h"
#include "partition/audit.h"
#include "util/stats.h"

namespace hetsched {
namespace {

TEST(ObsBuckets, EdgeCases) {
  EXPECT_EQ(obs::latency_bucket(0), 0u);
  EXPECT_EQ(obs::latency_bucket(1), 0u);
  EXPECT_EQ(obs::latency_bucket(2), 1u);
  EXPECT_EQ(obs::latency_bucket(3), 1u);
  EXPECT_EQ(obs::latency_bucket(4), 2u);
  EXPECT_EQ(obs::latency_bucket(1023), 9u);
  EXPECT_EQ(obs::latency_bucket(1024), 10u);
  EXPECT_EQ(obs::latency_bucket(~std::uint64_t{0}), 63u);
}

TEST(ObsBuckets, EdgesAreConsistent) {
  for (std::size_t b = 0; b < obs::kHistogramBuckets; ++b) {
    EXPECT_EQ(obs::latency_bucket(obs::bucket_lo_ns(b) == 0
                                      ? 0
                                      : obs::bucket_lo_ns(b)),
              b);
    if (b + 1 < obs::kHistogramBuckets) {
      EXPECT_EQ(obs::latency_bucket(obs::bucket_hi_ns(b)), b + 1);
    }
  }
}

// The log-spaced ns buckets must agree, sample for sample, with a
// stats::Histogram(0, 64, 64) fed log2(ns) — the design contract that
// makes the two histogram implementations cross-checkable.
TEST(ObsBuckets, CrossCheckAgainstStatsHistogram) {
  obs::LatencyHistogram h =
      obs::registry().histogram("test_crosscheck_ns", "cross-check");
  Histogram reference(0, 64, 64);

  const obs::HistogramSnapshot before = obs::registry().histogram_snapshot(h);
  std::vector<std::uint64_t> samples;
  std::uint64_t v = 1;
  for (int i = 0; i < 200; ++i) {
    samples.push_back(v);
    v = v * 3 + 1;  // spreads across many octaves, deterministic
    if (v > (std::uint64_t{1} << 40)) v = (v % 977) + 1;
  }
  for (const std::uint64_t ns : samples) {
    h.record_ns(ns);
    reference.add(std::log2(static_cast<double>(ns)));
  }

  const obs::HistogramSnapshot after = obs::registry().histogram_snapshot(h);
  EXPECT_EQ(after.count - before.count, samples.size());
  for (std::size_t b = 0; b < obs::kHistogramBuckets; ++b) {
    EXPECT_EQ(after.buckets[b] - before.buckets[b], reference.bin_count(b))
        << "bucket " << b;
  }
}

TEST(ObsRegistry, RegistrationIsIdempotent) {
  obs::Counter a = obs::registry().counter("test_idem_total", "first");
  obs::Counter b = obs::registry().counter("test_idem_total", "second");
  EXPECT_EQ(a.id(), b.id());
  obs::Gauge g1 = obs::registry().gauge("test_idem_gauge", "");
  obs::Gauge g2 = obs::registry().gauge("test_idem_gauge", "");
  EXPECT_EQ(g1.id(), g2.id());
}

TEST(ObsRegistry, CounterAndGaugeRoundTrip) {
  obs::Counter c = obs::registry().counter("test_roundtrip_total", "");
  const std::uint64_t before = obs::registry().counter_value(c);
  c.inc();
  c.add(41);
  EXPECT_EQ(obs::registry().counter_value(c), before + 42);

  obs::Gauge g = obs::registry().gauge("test_roundtrip_gauge", "");
  g.set(-7);
  EXPECT_EQ(obs::registry().gauge_value(g), -7);
  g.add(10);
  EXPECT_EQ(obs::registry().gauge_value(g), 3);
}

// The TSan-matrix workload: concurrent writers on one counter and one
// histogram, with threads exiting (exercising the retired-block fold)
// while a reader polls snapshots.  Totals must be exact after join.
TEST(ObsRegistry, ConcurrentWritersExactAfterJoin) {
  obs::Counter c = obs::registry().counter("test_mt_total", "");
  obs::LatencyHistogram h = obs::registry().histogram("test_mt_ns", "");
  const std::uint64_t c0 = obs::registry().counter_value(c);
  const std::uint64_t h0 = obs::registry().histogram_snapshot(h).count;

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  for (int wave = 0; wave < 2; ++wave) {  // second wave re-attaches blocks
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          c.inc();
          h.record_ns(static_cast<std::uint64_t>(t * kPerThread + i));
        }
      });
    }
    // Concurrent reader: snapshots must be well-formed (monotone counts),
    // not exact, while writers run.
    const obs::HistogramSnapshot mid = obs::registry().histogram_snapshot(h);
    EXPECT_GE(mid.count, h0);
    for (std::thread& th : threads) th.join();
  }

  EXPECT_EQ(obs::registry().counter_value(c) - c0,
            std::uint64_t{2 * kThreads * kPerThread});
  const obs::HistogramSnapshot snap = obs::registry().histogram_snapshot(h);
  EXPECT_EQ(snap.count - h0, std::uint64_t{2 * kThreads * kPerThread});
}

TEST(ObsRegistry, SnapshotPercentilesAreOrdered) {
  obs::LatencyHistogram h =
      obs::registry().histogram("test_percentile_ns", "");
  for (std::uint64_t ns = 1; ns <= 4096; ++ns) h.record_ns(ns);
  const obs::HistogramSnapshot snap = obs::registry().histogram_snapshot(h);
  const double p50 = snap.percentile_ns(50);
  const double p99 = snap.percentile_ns(99);
  const double p999 = snap.percentile_ns(99.9);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, p999);
  // The p50 of 1..4096 is ~2048; the log-bucket estimate may be off by at
  // most one octave.
  EXPECT_GE(p50, 1024.0);
  EXPECT_LE(p50, 4096.0);
}

TEST(ObsRegistry, ExposeFormat) {
  obs::Counter c = obs::registry().counter("test_expose_total", "help text");
  c.inc();
  const std::string text = obs::registry().expose();
  EXPECT_EQ(text.rfind("# HELP ", 0), 0u);
  EXPECT_NE(text.find("# HELP test_expose_total help text"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_expose_total counter"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Instrumentation macros.
// ---------------------------------------------------------------------

// The macros must actually bump.
TEST(ObsMacros, MacrosBumpWhenEnabled) {
  static const obs::Counter c =
      obs::registry().counter("test_macro_total", "");
  const std::uint64_t before = obs::registry().counter_value(c);
  HETSCHED_COUNT(c);
  HETSCHED_COUNT_ADD(c, 4);
  EXPECT_EQ(obs::registry().counter_value(c), before + 5);
}

// ---------------------------------------------------------------------
// Trace ring.
// ---------------------------------------------------------------------

TEST(ObsTrace, RecordDrainRoundTrip) {
  obs::trace_drain();  // clear anything earlier tests left behind
  obs::set_trace_enabled(true);
  obs::trace_record(obs::TraceKind::kAdmit, true, 3, 42);
  obs::trace_record(obs::TraceKind::kDepart, false, 0, 7);
  obs::trace_record(obs::TraceKind::kRebalance, true, 0, 2);
  obs::set_trace_enabled(false);

  const std::vector<obs::TraceEvent> events = obs::trace_drain();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, obs::TraceKind::kAdmit);
  EXPECT_TRUE(events[0].ok);
  EXPECT_EQ(events[0].machine, 3u);
  EXPECT_EQ(events[0].value, 42u);
  EXPECT_EQ(events[1].kind, obs::TraceKind::kDepart);
  EXPECT_FALSE(events[1].ok);
  EXPECT_EQ(events[2].kind, obs::TraceKind::kRebalance);
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);
  EXPECT_LE(events[0].t_ns, events[1].t_ns);
  // Drain cleared: nothing left.
  EXPECT_TRUE(obs::trace_drain().empty());
}

TEST(ObsTrace, OverwritesAreCountedAsDropped) {
  obs::trace_drain();
  const std::uint64_t dropped0 = obs::trace_dropped();
  obs::set_trace_enabled(true);
  const std::size_t n = obs::kTraceCapacity + 100;
  for (std::size_t i = 0; i < n; ++i) {
    obs::trace_record(obs::TraceKind::kAdmit, true, 0, i);
  }
  obs::set_trace_enabled(false);
  EXPECT_EQ(obs::trace_dropped() - dropped0, 100u);
  const std::vector<obs::TraceEvent> events = obs::trace_drain();
  ASSERT_EQ(events.size(), obs::kTraceCapacity);
  // The survivors are the most recent kTraceCapacity events, in order.
  EXPECT_EQ(events.front().value, 100u);
  EXPECT_EQ(events.back().value, n - 1);
}

TEST(ObsTrace, ConcurrentRecordersKeepGlobalSeqUnique) {
  obs::trace_drain();
  obs::set_trace_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;  // fits each thread's ring
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::trace_record(obs::TraceKind::kAdmit, true,
                          static_cast<std::uint32_t>(t),
                          static_cast<std::uint64_t>(i));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  obs::set_trace_enabled(false);
  const std::vector<obs::TraceEvent> events = obs::trace_drain();
  EXPECT_EQ(events.size(), std::size_t{kThreads * kPerThread});
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);  // strictly increasing
  }
}

// Regression: events recorded by a thread that has since exited must
// survive into the next drain.  The per-thread ring is folded into the
// retired list at thread exit; losing that fold silently truncates every
// --trace-out written after a worker pool shuts down.
TEST(ObsTrace, ThreadExitRetainsEvents) {
  obs::trace_drain();
  obs::set_trace_enabled(true);
  std::thread worker([] {
    obs::trace_record(obs::TraceKind::kAdmit, true, 1, 1001);
    obs::trace_record(obs::TraceKind::kDepart, true, 1, 1002);
  });
  worker.join();  // ring owner is gone before the drain
  obs::set_trace_enabled(false);
  const std::vector<obs::TraceEvent> events = obs::trace_drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].value, 1001u);
  EXPECT_EQ(events[1].value, 1002u);
}

TEST(ObsTraceJson, EventFormat) {
  obs::TraceEvent ev;
  ev.seq = 17;
  ev.t_ns = 123456789;
  ev.kind = obs::TraceKind::kAdmit;
  ev.ok = true;
  ev.machine = 3;
  ev.value = 42;
  EXPECT_EQ(trace_event_json(ev),
            "{\"seq\":17,\"t_ns\":123456789,\"kind\":\"admit\",\"ok\":true,"
            "\"machine\":3,\"value\":42}");
  std::ostringstream out;
  const std::vector<obs::TraceEvent> events = {ev, ev};
  EXPECT_EQ(write_trace_jsonl(events, out), 2u);
  EXPECT_EQ(out.str(), trace_event_json(ev) + "\n" + trace_event_json(ev) +
                           "\n");
}

// ---------------------------------------------------------------------
// Span ring (obs/span.h).
// ---------------------------------------------------------------------

TEST(ObsSpan, GateIsOffByDefaultAndToggles) {
  // Nothing in this binary arms spans before this test, so the default
  // must still be visible: recording without set_span_enabled is the
  // common case (every untraced production start) and must stay free.
  EXPECT_FALSE(obs::span_enabled());
  obs::set_span_enabled(true);
  EXPECT_TRUE(obs::span_enabled());
  obs::set_span_enabled(false);
  EXPECT_FALSE(obs::span_enabled());
}

TEST(ObsSpan, RecordDrainRoundTrip) {
  obs::span_drain();  // clear anything earlier tests left behind
  const std::uint64_t root = obs::span_next_id();
  obs::span_record(7, root, 0, obs::SpanStage::kDecode, 100, 150);
  obs::span_record(7, obs::span_next_id(), root, obs::SpanStage::kWarmAdmit,
                   150, 190);
  obs::span_record(9, obs::span_next_id(), 0, obs::SpanStage::kDecode, 120,
                   130);
  const std::vector<obs::SpanRecord> spans = obs::span_drain();
  ASSERT_EQ(spans.size(), 3u);
  // span_drain orders by t0.
  EXPECT_EQ(spans[0].trace_id, 7u);
  EXPECT_EQ(spans[0].stage, obs::SpanStage::kDecode);
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_EQ(spans[1].trace_id, 9u);
  EXPECT_EQ(spans[2].trace_id, 7u);
  EXPECT_EQ(spans[2].parent_id, root);
  EXPECT_EQ(spans[2].stage, obs::SpanStage::kWarmAdmit);
  EXPECT_TRUE(obs::span_drain().empty());  // drain cleared
}

TEST(ObsSpan, SpanIdsAreUniqueAndNonzero) {
  const std::uint64_t a = obs::span_next_id();
  const std::uint64_t b = obs::span_next_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST(ObsSpan, OverwritesAreCountedAsDropped) {
  obs::span_drain();
  const std::uint64_t dropped0 = obs::span_dropped();
  const std::size_t n = obs::kSpanCapacity + 50;
  for (std::size_t i = 0; i < n; ++i) {
    obs::span_record(1, i + 1, 0, obs::SpanStage::kDecode, i, i + 1);
  }
  EXPECT_EQ(obs::span_dropped() - dropped0, 50u);
  EXPECT_EQ(obs::span_drain().size(), obs::kSpanCapacity);
}

// Regression twin of ObsTrace.ThreadExitRetainsEvents for the span ring:
// spans recorded on a pipeline thread that exited (loop shutdown) must
// still appear in the next tracez drain.
TEST(ObsSpan, ThreadExitRetainsSpans) {
  obs::span_drain();
  std::thread worker([] {
    obs::span_record(11, 1, 0, obs::SpanStage::kDecode, 10, 20);
    obs::span_record(11, 2, 0, obs::SpanStage::kEncode, 20, 30);
  });
  worker.join();
  const std::vector<obs::SpanRecord> spans = obs::span_drain();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].trace_id, 11u);
  EXPECT_EQ(spans[1].stage, obs::SpanStage::kEncode);
}

TEST(ObsSpan, SlowestTracesGroupsRanksAndDiscardsTorn) {
  std::vector<obs::SpanRecord> spans;
  auto add = [&](std::uint64_t trace, std::uint64_t t0, std::uint64_t t1) {
    obs::SpanRecord sp;
    sp.trace_id = trace;
    sp.span_id = spans.size() + 1;
    sp.stage = obs::SpanStage::kDecode;
    sp.t0_ns = t0;
    sp.t1_ns = t1;
    spans.push_back(sp);
  };
  add(1, 100, 110);  // trace 1: duration 10
  add(2, 100, 150);
  add(2, 150, 400);  // trace 2: duration 300 (slowest)
  add(3, 100, 200);  // trace 3: duration 100
  add(4, 500, 400);  // torn (t1 < t0): discarded
  add(0, 100, 200);  // zero trace id: discarded
  const std::vector<obs::TraceSummary> top =
      obs::slowest_traces(std::move(spans), 2);
  ASSERT_EQ(top.size(), 2u);  // k truncation; traces 4-and-0 never appear
  EXPECT_EQ(top[0].trace_id, 2u);
  EXPECT_EQ(top[0].duration_ns(), 300u);
  ASSERT_EQ(top[0].spans.size(), 2u);
  EXPECT_LE(top[0].spans[0].t0_ns, top[0].spans[1].t0_ns);
  EXPECT_EQ(top[1].trace_id, 3u);
}

TEST(ObsSpanJson, RecordAndTracezFormat) {
  obs::SpanRecord sp;
  sp.trace_id = 7;
  sp.span_id = 3;
  sp.parent_id = 0;
  sp.stage = obs::SpanStage::kWarmAdmit;
  sp.t0_ns = 100;
  sp.t1_ns = 180;
  EXPECT_EQ(span_record_json(sp),
            "{\"trace_id\":7,\"span_id\":3,\"parent_id\":0,"
            "\"stage\":\"warm-admit\",\"t0_ns\":100,\"t1_ns\":180}");
  obs::TraceSummary tr;
  tr.trace_id = 7;
  tr.t0_ns = 100;
  tr.t1_ns = 180;
  tr.spans = {sp};
  const std::string body = render_tracez_jsonl({tr});
  EXPECT_EQ(body, "{\"trace_id\":7,\"duration_ns\":80,\"t0_ns\":100,"
                  "\"spans\":[" +
                      span_record_json(sp) + "]}\n");
}

// The macro must gate on BOTH the runtime switch and a nonzero trace id.
TEST(ObsSpan, MacroGatesOnSwitchAndTraceId) {
  obs::span_drain();
  obs::set_span_enabled(false);
  HETSCHED_SPAN_RECORD(5, 1, 0, obs::SpanStage::kDecode, 1, 2);
  EXPECT_TRUE(obs::span_drain().empty());  // disabled: nothing
  obs::set_span_enabled(true);
  HETSCHED_SPAN_RECORD(0, 1, 0, obs::SpanStage::kDecode, 1, 2);
  EXPECT_TRUE(obs::span_drain().empty());  // untraced: nothing
  HETSCHED_SPAN_RECORD(5, 1, 0, obs::SpanStage::kDecode, 1, 2);
  obs::set_span_enabled(false);
  EXPECT_EQ(obs::span_drain().size(), 1u);
}

// ---------------------------------------------------------------------
// Flight recorder (obs/flight_recorder.h).
// ---------------------------------------------------------------------

TEST(ObsFlight, RecordCollectRoundTrip) {
  obs::FlightRecorder rec;
  rec.set_shard(7);
  rec.record(/*kind=*/1, /*status=*/0, /*machine=*/2, /*request_id=*/41,
             /*value=*/99, /*trace_id=*/5);
  rec.record(2, 1, 0, 42, 0, 0);
  EXPECT_EQ(rec.recorded(), 2u);
  obs::FlightEntry out[4];
  ASSERT_EQ(rec.collect(out, 4), 2u);
  EXPECT_EQ(out[0].seq, 0u);
  EXPECT_EQ(out[0].shard, 7u);
  EXPECT_EQ(out[0].kind, 1u);
  EXPECT_EQ(out[0].status, 0u);
  EXPECT_EQ(out[0].machine, 2u);
  EXPECT_EQ(out[0].request_id, 41u);
  EXPECT_EQ(out[0].value, 99u);
  EXPECT_EQ(out[0].trace_id, 5u);
  EXPECT_EQ(out[1].seq, 1u);
  EXPECT_EQ(out[1].kind, 2u);
  EXPECT_LE(out[0].t_ns, out[1].t_ns);
}

TEST(ObsFlight, WrapKeepsTheNewestEntries) {
  obs::FlightRecorder rec;
  const std::size_t n = obs::kFlightCapacity + 10;
  for (std::size_t i = 0; i < n; ++i) {
    rec.record(1, 0, 0, /*request_id=*/i, 0, 0);
  }
  std::vector<obs::FlightEntry> out(obs::kFlightCapacity + 16);
  ASSERT_EQ(rec.collect(out.data(), out.size()), obs::kFlightCapacity);
  EXPECT_EQ(out[0].request_id, 10u);  // the 10 oldest were overwritten
  EXPECT_EQ(out[obs::kFlightCapacity - 1].request_id, n - 1);
}

TEST(ObsFlight, DumpWritesParseableJsonl) {
  obs::FlightRecorder rec;
  rec.set_shard(3);
  rec.record(1, 0, 2, 41, 99, 5);
  const std::string path = testing::TempDir() + "/flight_dump_test.jsonl";
  ASSERT_TRUE(obs::flight_dump_path(path.c_str()));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t ours = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    // Other live recorders (none in this binary, but be order-robust) may
    // contribute lines; ours is identified by its field values.
    if (line.find("\"shard\":3") != std::string::npos) {
      ++ours;
      EXPECT_NE(line.find("\"kind\":1"), std::string::npos);
      EXPECT_NE(line.find("\"request_id\":41"), std::string::npos);
      EXPECT_NE(line.find("\"value\":99"), std::string::npos);
      EXPECT_NE(line.find("\"trace_id\":5"), std::string::npos);
    }
  }
  EXPECT_EQ(ours, 1u);
}

TEST(ObsFlight, MacroRecordsWhenCompiledIn) {
  obs::FlightRecorder rec;
  HETSCHED_FLIGHT_RECORD(rec, 1, 0, 0, 7, 0, 0);
  EXPECT_EQ(rec.recorded(), 1u);
}

// ---------------------------------------------------------------------
// Instrumented paths end to end.
// ---------------------------------------------------------------------

// Exact outcome counts from the OnlinePartitioner instrumentation.  Audit
// builds replay decisions through shadow oracles built on the same
// instrumented paths, inflating the counters, so the exact-count asserts
// only hold in non-audit builds.
#if !HETSCHED_AUDIT_ENABLED
TEST(ObsInstrumentation, AdmitDepartCountsAreExact) {
  obs::Counter warm =
      obs::registry().counter("hetsched_admit_warm_total", "");
  obs::Counter cold =
      obs::registry().counter("hetsched_admit_cold_total", "");
  obs::Counter departs = obs::registry().counter("hetsched_depart_total", "");
  const std::uint64_t warm0 = obs::registry().counter_value(warm);
  const std::uint64_t cold0 = obs::registry().counter_value(cold);
  const std::uint64_t dep0 = obs::registry().counter_value(departs);

  OnlinePartitioner ctl(Platform::from_speeds({1.0, 1.0}),
                        AdmissionKind::kEdf, 1.0);
  const Task t{1, 10};
  const AdmitDecision a = ctl.admit(t);
  const AdmitDecision b = ctl.admit(t);
  ASSERT_TRUE(a.admitted);
  ASSERT_TRUE(b.admitted);
  EXPECT_EQ(obs::registry().counter_value(cold) - cold0, 2u);
  ASSERT_TRUE(ctl.depart(a.id));
  EXPECT_EQ(obs::registry().counter_value(departs) - dep0, 1u);
  const AdmitDecision c2 = ctl.admit(t);  // reuses a's slot -> warm
  ASSERT_TRUE(c2.admitted);
  EXPECT_EQ(obs::registry().counter_value(warm) - warm0, 1u);
}

TEST(ObsInstrumentation, AdmitTraceEventsMatchDecisions) {
  obs::trace_drain();
  obs::set_trace_enabled(true);
  OnlinePartitioner ctl(Platform::from_speeds({1.0}), AdmissionKind::kEdf,
                        1.0);
  const AdmitDecision a = ctl.admit(Task{3, 4});   // fits
  const AdmitDecision b = ctl.admit(Task{9, 10});  // cannot fit
  ASSERT_TRUE(a.admitted);
  ASSERT_FALSE(b.admitted);
  ctl.depart(a.id);
  obs::set_trace_enabled(false);
  const std::vector<obs::TraceEvent> events = obs::trace_drain();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, obs::TraceKind::kAdmit);
  EXPECT_TRUE(events[0].ok);
  EXPECT_EQ(events[0].machine, a.machine);
  EXPECT_EQ(events[1].kind, obs::TraceKind::kAdmit);
  EXPECT_FALSE(events[1].ok);
  EXPECT_EQ(events[2].kind, obs::TraceKind::kDepart);
  EXPECT_TRUE(events[2].ok);
}
#endif  // !HETSCHED_AUDIT_ENABLED

}  // namespace
}  // namespace hetsched
