#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "drbac/credential.hpp"
#include "minilang/value.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "switchboard/authorizer.hpp"
#include "switchboard/channel.hpp"
#include "switchboard/network.hpp"
#include "util/thread_pool.hpp"

namespace psf::obs {
namespace {

using minilang::Value;
using util::kMillisecond;

// ----------------------------------------------------------------- metrics

TEST(Metrics, CounterGaugeBasics) {
  Registry registry;
  Counter& c = registry.counter("test.counter");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);

  Gauge& g = registry.gauge("test.gauge");
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
  g.add(10);
  EXPECT_EQ(g.value(), 3);
}

TEST(Metrics, RegistryReturnsSameHandleForSameName) {
  Registry registry;
  Counter& a = registry.counter("test.same");
  Counter& b = registry.counter("test.same");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
  // Kinds have separate namespaces: a gauge named like a counter is distinct.
  Gauge& g = registry.gauge("test.same");
  g.set(5);
  EXPECT_EQ(a.value(), 1u);
}

TEST(Metrics, CountersAreExactUnderConcurrency) {
  Registry registry;
  constexpr int kThreads = 8;
  constexpr int kIncsPerThread = 10'000;
  {
    util::ThreadPool pool(kThreads);
    std::vector<std::future<void>> done;
    for (int t = 0; t < kThreads; ++t) {
      done.push_back(pool.submit([&registry] {
        // Re-looking up each time also exercises sharded registration.
        Counter& c = registry.counter("test.concurrent");
        Histogram& h = registry.histogram("test.concurrent_us");
        for (int i = 0; i < kIncsPerThread; ++i) {
          c.inc();
          h.observe(i % 100);
        }
      }));
    }
    for (auto& f : done) f.get();
  }
  EXPECT_EQ(registry.counter("test.concurrent").value(),
            static_cast<std::uint64_t>(kThreads) * kIncsPerThread);
  EXPECT_EQ(registry.histogram("test.concurrent_us").count(),
            static_cast<std::uint64_t>(kThreads) * kIncsPerThread);
}

TEST(Metrics, HistogramPercentilesOnKnownDistribution) {
  Registry registry;
  Histogram& h = registry.histogram(
      "test.uniform", {10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  for (int v = 1; v <= 100; ++v) h.observe(v);

  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.sum, 5050);
  EXPECT_EQ(snap.min, 1);
  EXPECT_EQ(snap.max, 100);
  // Uniform 1..100: percentile p lands in the bucket containing p.
  EXPECT_NEAR(static_cast<double>(snap.percentile(50)), 50.0, 10.0);
  EXPECT_NEAR(static_cast<double>(snap.percentile(95)), 95.0, 10.0);
  EXPECT_NEAR(static_cast<double>(snap.percentile(99)), 99.0, 10.0);
}

TEST(Metrics, HistogramOverflowBucketReportsObservedMax) {
  Registry registry;
  Histogram& h = registry.histogram("test.overflow", {10});
  h.observe(5);
  h.observe(12'345);  // beyond the last bound -> +Inf bucket
  EXPECT_EQ(h.percentile(99), 12'345);
}

TEST(Metrics, ResetZeroesValuesButKeepsHandles) {
  Registry registry;
  Counter& c = registry.counter("test.reset");
  Histogram& h = registry.histogram("test.reset_us");
  c.inc(9);
  h.observe(3);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(&c, &registry.counter("test.reset"));
}

// --------------------------------------------------------------- exporters

TEST(Export, PrometheusTextShape) {
  Registry registry;
  registry.counter("test.export.hits").inc(3);
  registry.gauge("test.export.depth").set(-2);
  registry.histogram("test.export.lat_us", {10, 100}).observe(42);

  const std::string text = to_prometheus_text(registry.snapshot());
  EXPECT_NE(text.find("# TYPE test_export_hits counter"), std::string::npos);
  EXPECT_NE(text.find("test_export_hits 3"), std::string::npos);
  EXPECT_NE(text.find("test_export_depth -2"), std::string::npos);
  // Cumulative buckets + the implicit +Inf bucket + sum/count series.
  EXPECT_NE(text.find("test_export_lat_us_bucket{le=\"100\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("test_export_lat_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("test_export_lat_us_count 1"), std::string::npos);
  EXPECT_NE(text.find("test_export_lat_us_p95"), std::string::npos);
}

// -------------------------------------------------------------- exemplars

TEST(Metrics, ExemplarCapturedAboveThresholdLinksActiveTrace) {
  SpanCollector::instance().clear();
  Registry registry;
  Histogram& h = registry.histogram("test.exemplar.lat_us", {10, 100, 1000});
  h.set_exemplar_threshold(100);

  // Below threshold, and above threshold with no active span: no exemplar.
  h.observe(5);
  h.observe(500);
  EXPECT_FALSE(h.snapshot().tail_exemplar().valid);

  TraceId trace = 0;
  {
    ScopedSpan span("test.exemplar");
    trace = span.context().trace_id;
    h.observe(500);
  }
  const Histogram::Exemplar ex = h.snapshot().tail_exemplar();
  ASSERT_TRUE(ex.valid);
  EXPECT_EQ(ex.trace_id, trace);
  EXPECT_EQ(ex.value, 500);
  // Capture pinned the trace so its spans survive ring eviction.
  EXPECT_TRUE(SpanCollector::instance().is_pinned(trace));
  // The exemplar resolves to real spans.
  EXPECT_FALSE(SpanCollector::instance().spans_for_trace(trace).empty());
}

TEST(Metrics, ExemplarThresholdSurvivesRegistryReset) {
  Registry registry;
  Histogram& h = registry.histogram("test.exemplar.reset_us", {10, 100});
  h.set_exemplar_threshold(42);
  registry.reset();
  // Threshold is configuration, not a value; reset keeps it but clears any
  // captured exemplars.
  EXPECT_EQ(h.exemplar_threshold(), 42);
  EXPECT_FALSE(h.snapshot().tail_exemplar().valid);
}

// Writers capture exemplars while snapshots and resets race them. Every
// valid exemplar a snapshot returns must be one whole capture: the
// (trace_id, span_id, value) of a single observe, never a mix of two.
TEST(Metrics, ExemplarCaptureRacingSnapshotNeverTorn) {
  SpanCollector::instance().clear();
  Registry registry;
  Histogram& h = registry.histogram("test.exemplar.race_us", {10, 100});
  h.set_exemplar_threshold(100);
  using Triple = std::tuple<std::uint64_t, std::uint64_t, std::int64_t>;
  constexpr int kWriters = 3;
  constexpr std::int64_t kObserves = 4000;

  std::vector<std::vector<Triple>> produced(kWriters);
  std::atomic<int> writing{kWriters};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (std::int64_t i = 0; i < kObserves; ++i) {
        // 100 lands in the 100 bucket, everything larger in +Inf.
        const std::int64_t v = 100 + i * kWriters + w;
        ScopedSpan span("test.exemplar.race");
        produced[static_cast<std::size_t>(w)].emplace_back(
            span.context().trace_id, span.context().span_id, v);
        h.observe(v);
      }
      writing.fetch_sub(1, std::memory_order_relaxed);
    });
  }
  std::vector<Triple> seen;
  threads.emplace_back([&] {
    int round = 0;
    while (writing.load(std::memory_order_relaxed) > 0) {
      for (const auto& e : h.snapshot().exemplars) {
        if (e.valid) seen.emplace_back(e.trace_id, e.span_id, e.value);
      }
      // Rewinding lifts the 1 ms rate limit, so captures keep coming.
      if (++round % 8 == 0) registry.reset();
    }
  });
  for (auto& t : threads) t.join();
  for (const auto& e : h.snapshot().exemplars) {
    if (e.valid) seen.emplace_back(e.trace_id, e.span_id, e.value);
  }

  std::set<Triple> all;
  for (const auto& writer : produced) all.insert(writer.begin(), writer.end());
  ASSERT_FALSE(seen.empty()) << "no exemplar was ever captured";
  for (const Triple& t : seen) {
    EXPECT_TRUE(all.count(t) == 1)
        << "torn exemplar: trace " << std::get<0>(t) << " span "
        << std::get<1>(t) << " value " << std::get<2>(t);
  }
}

TEST(Export, PrometheusExemplarSyntaxRoundTrips) {
  SpanCollector::instance().clear();
  Registry registry;
  Histogram& h = registry.histogram("test.exemplar.export_us", {10, 100});
  h.set_exemplar_threshold(100);
  TraceId trace = 0;
  {
    ScopedSpan span("test.exemplar.export");
    trace = span.context().trace_id;
    h.observe(5000);  // lands in +Inf, captures the exemplar
  }

  const std::string text = to_prometheus_text(registry.snapshot());
  // OpenMetrics exemplar suffix on the +Inf bucket line:
  //   name_bucket{le="+Inf"} 1 # {trace_id="...",span_id="..."} 5000
  const std::string line_start = "test_exemplar_export_us_bucket{le=\"+Inf\"}";
  const std::size_t line = text.find(line_start);
  ASSERT_NE(line, std::string::npos);
  const std::size_t eol = text.find('\n', line);
  const std::string bucket_line = text.substr(line, eol - line);
  const std::size_t marker = bucket_line.find(" # {trace_id=\"");
  ASSERT_NE(marker, std::string::npos) << bucket_line;

  // Round-trip: parse the trace id back out and resolve it to spans.
  const std::size_t id_begin = marker + std::string(" # {trace_id=\"").size();
  const std::size_t id_end = bucket_line.find('"', id_begin);
  ASSERT_NE(id_end, std::string::npos);
  const std::string hex = bucket_line.substr(id_begin, id_end - id_begin);
  EXPECT_EQ(hex.size(), 16u);
  const TraceId parsed = std::strtoull(hex.c_str(), nullptr, 16);
  EXPECT_EQ(parsed, trace);
  EXPECT_FALSE(SpanCollector::instance().spans_for_trace(parsed).empty());
  // The exemplar value trails the span_id group.
  EXPECT_NE(bucket_line.find("\"} 5000"), std::string::npos) << bucket_line;
}

TEST(Export, PrometheusLabelEscapingRoundTrips) {
  // The exposition format defines exactly three escapes in quoted label
  // values: \\ , \" , \n. Everything else passes through verbatim.
  const std::string nasty = "a\\b\"c\nd{e}f,g=h\ti";
  const std::string escaped = prometheus_escape_label(nasty);
  EXPECT_EQ(escaped, "a\\\\b\\\"c\\nd{e}f,g=h\ti");
  // No raw quote, backslash, or newline survives unescaped — the emitted
  // label value can never terminate the quoted string early.
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '\\') {
      ASSERT_LT(i + 1, escaped.size());
      const char next = escaped[++i];
      EXPECT_TRUE(next == '\\' || next == '"' || next == 'n');
    } else {
      EXPECT_NE(escaped[i], '"');
      EXPECT_NE(escaped[i], '\n');
    }
  }

  // Round-trip through a spec unescaper recovers the original exactly.
  std::string unescaped;
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '\\') {
      const char next = escaped[++i];
      unescaped += next == 'n' ? '\n' : next;
    } else {
      unescaped += escaped[i];
    }
  }
  EXPECT_EQ(unescaped, nasty);

  // Benign values are untouched.
  EXPECT_EQ(prometheus_escape_label("0123456789abcdef"), "0123456789abcdef");
  EXPECT_EQ(prometheus_escape_label(""), "");
}

// ------------------------------------------------------------------ spans

TEST(Trace, ScopedSpansLinkParentAndChild) {
  SpanCollector::instance().clear();
  TraceId trace = 0;
  SpanId outer_id = 0;
  {
    ScopedSpan outer("test.outer");
    trace = outer.context().trace_id;
    outer_id = outer.context().span_id;
    ASSERT_TRUE(outer.context().valid());
    { ScopedSpan inner("test.inner"); }
  }
  const auto spans = SpanCollector::instance().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Inner finishes (and records) first.
  EXPECT_EQ(spans[0].name, "test.inner");
  EXPECT_EQ(spans[0].trace_id, trace);
  EXPECT_EQ(spans[0].parent_id, outer_id);
  EXPECT_EQ(spans[1].name, "test.outer");
  EXPECT_EQ(spans[1].parent_id, 0u);
}

TEST(Trace, RingBufferEvictsOldestFirst) {
  SpanCollector collector(4);
  for (int i = 0; i < 6; ++i) {
    SpanRecord r;
    r.trace_id = 1;
    r.span_id = static_cast<SpanId>(i + 1);
    r.name = "s" + std::to_string(i);
    collector.record(std::move(r));
  }
  EXPECT_EQ(collector.recorded(), 6u);
  EXPECT_EQ(collector.dropped(), 2u);
  const auto spans = collector.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.front().name, "s2");  // s0, s1 evicted
  EXPECT_EQ(spans.back().name, "s5");
}

TEST(Trace, ErrorSpansSurviveRingEviction) {
  SpanCollector collector(4);
  for (int i = 0; i < 8; ++i) {
    SpanRecord r;
    r.trace_id = static_cast<TraceId>(100 + i);
    r.span_id = static_cast<SpanId>(i + 1);
    r.name = "s" + std::to_string(i);
    r.error = (i == 0);  // the very first span failed
    collector.record(std::move(r));
  }
  // s0 was displaced from the ring but kept in the protected store; the
  // other three displaced spans (s1..s3) were boring and died.
  EXPECT_EQ(collector.dropped(), 3u);
  EXPECT_EQ(collector.retained_count(), 1u);
  const auto spans = collector.snapshot();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(spans.front().name, "s0");
  EXPECT_TRUE(spans.front().error);
}

TEST(Trace, PinnedTraceSpansSurviveRingEviction) {
  SpanCollector collector(4);
  collector.pin_trace(777);
  EXPECT_TRUE(collector.is_pinned(777));
  EXPECT_EQ(collector.pinned_count(), 1u);
  for (int i = 0; i < 8; ++i) {
    SpanRecord r;
    r.trace_id = (i == 1) ? 777 : static_cast<TraceId>(100 + i);
    r.span_id = static_cast<SpanId>(i + 1);
    r.name = "s" + std::to_string(i);
    collector.record(std::move(r));
  }
  // The pinned trace's span survived eviction; spans_for_trace finds it.
  const auto pinned_spans = collector.spans_for_trace(777);
  ASSERT_EQ(pinned_spans.size(), 1u);
  EXPECT_EQ(pinned_spans.front().name, "s1");
  EXPECT_EQ(collector.dropped(), 3u);  // s0, s2, s3 were boring
}

TEST(Trace, PinLruEvictsOldestPinBeyondCapacity) {
  SpanCollector collector(4);
  // 65 pins: one beyond kMaxPinnedTraces (64) — the oldest pin falls out.
  for (TraceId t = 1; t <= 65; ++t) collector.pin_trace(t);
  EXPECT_EQ(collector.pinned_count(), 64u);
  EXPECT_FALSE(collector.is_pinned(1));
  EXPECT_TRUE(collector.is_pinned(2));
  EXPECT_TRUE(collector.is_pinned(65));
  // Re-pinning refreshes: 2 moves to the young end, so pinning one more
  // evicts 3, not 2.
  collector.pin_trace(2);
  collector.pin_trace(66);
  EXPECT_TRUE(collector.is_pinned(2));
  EXPECT_FALSE(collector.is_pinned(3));
}

TEST(Trace, ScopedSpanRecordsErrorOnUnwindAndExplicitSet) {
  SpanCollector::instance().clear();
  try {
    ScopedSpan span("test.throws");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  {
    ScopedSpan span("test.set-error");
    span.set_error();
  }
  { ScopedSpan span("test.fine"); }
  const auto spans = SpanCollector::instance().snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "test.throws");
  EXPECT_TRUE(spans[0].error);
  EXPECT_EQ(spans[1].name, "test.set-error");
  EXPECT_TRUE(spans[1].error);
  EXPECT_EQ(spans[2].name, "test.fine");
  EXPECT_FALSE(spans[2].error);
}

TEST(Trace, HeaderRoundTrip) {
  const SpanContext ctx{0x1122334455667788ull, 0x99aabbccddeeff00ull};
  const util::Bytes payload = util::to_bytes("request-payload");
  const util::Bytes wire = with_trace_header(ctx, payload);
  EXPECT_EQ(wire.size(), payload.size() + kTraceHeaderSize);

  SpanContext out;
  util::Bytes stripped;
  ASSERT_TRUE(strip_trace_header(wire, out, stripped));
  EXPECT_EQ(out.trace_id, ctx.trace_id);
  EXPECT_EQ(out.span_id, ctx.span_id);
  EXPECT_EQ(stripped, payload);

  // No magic -> legacy frame, outputs untouched.
  SpanContext untouched;
  util::Bytes ignored;
  EXPECT_FALSE(strip_trace_header(payload, untouched, ignored));
  EXPECT_EQ(untouched.trace_id, 0u);
}

// --------------------------- TRC1 hardening (ISSUE 4 satellite): a corrupt
// or truncated header must degrade to "no context" with outputs untouched,
// and must never read past the buffer.

TEST(Trace, TruncatedHeaderOfEveryLengthDegradesToNoContext) {
  const SpanContext ctx{0x1111222233334444ull, 0x5555666677778888ull};
  const util::Bytes full = with_trace_header(ctx, util::to_bytes("payload"));
  for (std::size_t len = 0; len < kTraceHeaderSize; ++len) {
    const util::Bytes truncated(full.begin(),
                                full.begin() + static_cast<std::ptrdiff_t>(len));
    SpanContext out{0xdead, 0xbeef};  // sentinels: must survive untouched
    util::Bytes payload = util::to_bytes("sentinel");
    EXPECT_FALSE(strip_trace_header(truncated, out, payload)) << len;
    EXPECT_EQ(out.trace_id, 0xdeadu) << len;
    EXPECT_EQ(out.span_id, 0xbeefu) << len;
    EXPECT_EQ(payload, util::to_bytes("sentinel")) << len;
  }
}

TEST(Trace, CorruptMagicByteAnywhereIsALegacyFrame) {
  const SpanContext ctx{42, 43};
  const util::Bytes good = with_trace_header(ctx, util::to_bytes("x"));
  for (std::size_t i = 0; i < 4; ++i) {
    util::Bytes mangled = good;
    mangled[i] ^= 0xFF;
    SpanContext out;
    util::Bytes payload;
    EXPECT_FALSE(strip_trace_header(mangled, out, payload)) << "byte " << i;
    EXPECT_EQ(out.trace_id, 0u);
  }
  // Corrupting the IDs (not the magic) still parses — the IDs are opaque —
  // but a zeroed trace id yields an *invalid* context the receiver ignores.
  util::Bytes zero_ids = good;
  for (std::size_t i = 4; i < kTraceHeaderSize; ++i) zero_ids[i] = 0;
  SpanContext out;
  util::Bytes payload;
  ASSERT_TRUE(strip_trace_header(zero_ids, out, payload));
  EXPECT_FALSE(out.valid());
  EXPECT_EQ(payload, util::to_bytes("x"));
}

TEST(Trace, HeaderOnlyFrameYieldsEmptyPayload) {
  util::Bytes wire;
  append_trace_header(SpanContext{9, 10}, wire);
  ASSERT_EQ(wire.size(), kTraceHeaderSize);
  SpanContext out;
  util::Bytes payload = util::to_bytes("junk");
  ASSERT_TRUE(strip_trace_header(wire, out, payload));
  EXPECT_EQ(out.trace_id, 9u);
  EXPECT_TRUE(payload.empty());
}

TEST(Trace, InvalidRemoteContextDoesNotReplaceCurrent) {
  // The receiving side wraps dispatch in ContextGuard(remote): a degraded
  // (invalid) remote context must leave the local context alone.
  ScopedSpan local("test.local");
  const SpanContext before = current_context();
  {
    ContextGuard guard(SpanContext{});  // invalid remote
    EXPECT_EQ(current_context().trace_id, before.trace_id);
  }
  {
    ContextGuard guard(SpanContext{77, 78});
    EXPECT_EQ(current_context().trace_id, 77u);
  }
  EXPECT_EQ(current_context().trace_id, before.trace_id);
}

// ------------------- SpanCollector under eviction pressure (ISSUE 4
// satellite): accounting stays exact and snapshots stay well-formed while
// spans finish concurrently.

TEST(Trace, DroppedAccountingExactUnderEvictionPressure) {
  SpanCollector collector(8);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  {
    util::ThreadPool pool(kThreads);
    std::vector<std::future<void>> done;
    for (int t = 0; t < kThreads; ++t) {
      done.push_back(pool.submit([&collector, t] {
        for (int i = 0; i < kPerThread; ++i) {
          SpanRecord r;
          r.trace_id = static_cast<TraceId>(t + 1);
          r.span_id = static_cast<SpanId>(i + 1);
          r.name = "pressure";
          collector.record(std::move(r));
        }
      }));
    }
    for (auto& f : done) f.get();
  }
  EXPECT_EQ(collector.recorded(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(collector.dropped(),
            static_cast<std::uint64_t>(kThreads) * kPerThread - 8);
  EXPECT_EQ(collector.snapshot().size(), 8u);
}

TEST(Trace, SnapshotDuringConcurrentFinishIsAlwaysWellFormed) {
  SpanCollector collector(16);
  std::atomic<bool> stop{false};
  std::vector<std::future<void>> writers;
  util::ThreadPool pool(3);
  for (int t = 0; t < 3; ++t) {
    writers.push_back(pool.submit([&collector, &stop] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        SpanRecord r;
        r.trace_id = 1;
        r.span_id = ++i;
        r.name = "concurrent-finish";
        collector.record(std::move(r));
      }
    }));
  }
  while (collector.recorded() < 100) {
    // Writers are warming up; eviction pressure needs a full ring.
  }
  for (int round = 0; round < 200; ++round) {
    const auto spans = collector.snapshot();
    EXPECT_LE(spans.size(), 16u);
    for (const auto& s : spans) {
      EXPECT_EQ(s.trace_id, 1u);        // never a torn/partial record
      EXPECT_EQ(s.name, "concurrent-finish");
      EXPECT_NE(s.span_id, 0u);
    }
    EXPECT_GE(collector.recorded(), spans.size());
  }
  stop.store(true);
  for (auto& w : writers) w.get();
  EXPECT_EQ(collector.dropped(), collector.recorded() - 16);
  EXPECT_EQ(collector.snapshot().size(), 16u);
}

TEST(Trace, SpansForTraceFiltersAndSurvivesEviction) {
  SpanCollector collector(6);
  for (std::uint64_t i = 0; i < 12; ++i) {
    SpanRecord r;
    r.trace_id = (i % 2 == 0) ? 100 : 200;
    r.span_id = i + 1;
    r.name = i % 2 == 0 ? "even" : "odd";
    collector.record(std::move(r));
  }
  // Ring holds the newest 6 (span ids 7..12): three per trace, oldest-first.
  const auto even = collector.spans_for_trace(100);
  ASSERT_EQ(even.size(), 3u);
  EXPECT_EQ(even.front().span_id, 7u);
  EXPECT_EQ(even.back().span_id, 11u);
  for (const auto& s : even) EXPECT_EQ(s.name, "even");
  EXPECT_EQ(collector.spans_for_trace(200).size(), 3u);
  EXPECT_TRUE(collector.spans_for_trace(0).empty());    // 0 = "absent"
  EXPECT_TRUE(collector.spans_for_trace(999).empty());  // unknown trace
}

// --------------------------------------- cross-host propagation + heartbeat

struct EchoService : minilang::CallTarget {
  SpanContext seen;  // the thread context while the service body runs
  Value call(const std::string& method, std::vector<Value> args) override {
    seen = current_context();
    (void)method;
    return args.empty() ? Value::null() : args[0];
  }
  std::string type_name() const override { return "echo"; }
};

struct ObsChannelWorld {
  util::Rng rng{7};
  std::shared_ptr<util::SimClock> clock = std::make_shared<util::SimClock>();
  switchboard::Network net;
  drbac::Repository repo;
  drbac::Entity guard{drbac::Entity::create("Comp.NY", rng)};
  drbac::Entity client{drbac::Entity::create("Alice", rng)};
  drbac::Entity server_id{drbac::Entity::create("Mail.Server", rng)};
  switchboard::Switchboard client_board{"client-host", &net, clock};
  switchboard::Switchboard server_board{"server-host", &net, clock};

  ObsChannelWorld() {
    net.connect("client-host", "server-host", {5 * kMillisecond, 10'000, false});
    switchboard::AuthorizationSuite server_suite;
    server_suite.identity = server_id;
    server_suite.authorizer =
        std::make_shared<switchboard::AcceptAllAuthorizer>();
    server_board.set_suite(server_suite);
  }

  std::shared_ptr<switchboard::Connection> connect() {
    switchboard::AuthorizationSuite suite;
    suite.identity = client;
    suite.authorizer = std::make_shared<switchboard::AcceptAllAuthorizer>();
    auto r = client_board.connect(server_board, suite, rng);
    EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().message);
    return r.value();
  }
};

TEST(Trace, TraceIdPropagatesThroughSwitchboardFrames) {
  ObsChannelWorld w;
  auto echo = std::make_shared<EchoService>();
  w.server_board.register_service("echo", echo);
  auto conn = w.connect();

  SpanCollector::instance().clear();
  TraceId client_trace = 0;
  {
    ScopedSpan client_span("test.client");
    client_trace = client_span.context().trace_id;
    const Value out = conn->call(switchboard::Connection::End::kA, "echo",
                                 "echo", {Value::string("ping")});
    EXPECT_EQ(out.as_string(), "ping");
  }

  // The service body ran under the caller's trace even though the context
  // crossed hosts inside a sealed frame.
  EXPECT_EQ(echo->seen.trace_id, client_trace);

  const auto spans = SpanCollector::instance().snapshot();
  const SpanRecord* call = nullptr;
  const SpanRecord* dispatch = nullptr;
  for (const auto& s : spans) {
    if (s.name == "switchboard.call") call = &s;
    if (s.name == "switchboard.dispatch") dispatch = &s;
  }
  ASSERT_NE(call, nullptr);
  ASSERT_NE(dispatch, nullptr);
  EXPECT_EQ(call->trace_id, client_trace);
  EXPECT_EQ(dispatch->trace_id, client_trace);
  // Parent chain: client span -> call span -> dispatch span.
  EXPECT_EQ(dispatch->parent_id, call->span_id);
  EXPECT_NE(call->parent_id, 0u);

  const std::string tree = format_trace(spans, client_trace);
  EXPECT_NE(tree.find("switchboard.call"), std::string::npos);
  EXPECT_NE(tree.find("switchboard.dispatch"), std::string::npos);
}

TEST(Heartbeat, UpdatesRttAfterRoundTripAndSurvivesRpcTraffic) {
  ObsChannelWorld w;
  auto echo = std::make_shared<EchoService>();
  w.server_board.register_service("echo", echo);
  auto conn = w.connect();

  EXPECT_EQ(conn->stats().last_heartbeat_rtt, 0);
  conn->heartbeat();
  const auto after_beat = conn->stats();
  // One full round trip: both one-way transfer times, not a doubled single
  // direction.
  EXPECT_GE(after_beat.last_heartbeat_rtt, 2 * 5 * kMillisecond);
  EXPECT_EQ(after_beat.last_heartbeat_rtt, after_beat.last_rtt);

  // RPC traffic updates last_rtt but must not clobber the heartbeat RTT.
  conn->call(switchboard::Connection::End::kA, "echo", "echo",
             {Value::string("x")});
  EXPECT_EQ(conn->stats().last_heartbeat_rtt, after_beat.last_heartbeat_rtt);

  // The liveness gauge reflects the last heartbeat round trip.
  EXPECT_GE(gauge("psf.switchboard.heartbeat.rtt_ns").value(),
            2 * 5 * kMillisecond);
}

}  // namespace
}  // namespace psf::obs
