// Tests for core::telemetry: registry semantics, shard merging under real
// thread-pool load, histogram bucketing, span nesting, JSON export, and the
// reset/disable contracts.
//
// ctest runs each TEST in its own process (gtest_discover_tests), so tests
// may freely mutate the process-global registry; within this file each test
// still calls reset() first so it also passes under a plain ./deco_tests run.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "deco/core/telemetry.h"
#include "deco/core/thread_pool.h"
#include "test_util.h"

namespace telem = deco::core::telemetry;

namespace {

// These tests assert recording semantics, which cannot hold when every
// instrumentation site is compiled out.
#if DECO_TELEMETRY_COMPILED
#define SKIP_IF_COMPILED_OUT() (void)0
#else
#define SKIP_IF_COMPILED_OUT() \
  GTEST_SKIP() << "telemetry compiled out (-DDECO_TELEMETRY=OFF)"
#endif

// RAII: telemetry enabled for the test body, restored after.
struct TelemetryOn {
  TelemetryOn() {
    telem::set_enabled(true);
    telem::reset();
  }
  ~TelemetryOn() { telem::set_enabled(true); }
};

// JSON parsing lives in test_util.h (shared with the scenario schema tests).
using deco::testing::JsonArray;
using deco::testing::JsonObject;
using deco::testing::JsonParser;
using deco::testing::JsonValue;

// ---- registry semantics -----------------------------------------------------

TEST(TelemetryRegistry, CounterHandlesAreStableAndMonotonic) {
  SKIP_IF_COMPILED_OUT();
  TelemetryOn scope;
  telem::Counter& c = telem::counter("test/reg_counter");
  // Re-registration returns the same handle, not a second metric.
  EXPECT_EQ(&c, &telem::counter("test/reg_counter"));

  c.add(3);
  c.add();  // default increment of 1
  c.add(40);
  EXPECT_EQ(telem::snapshot().counter_value("test/reg_counter"), 44);

  // A never-touched counter reads 0, an unknown name reads 0.
  telem::counter("test/reg_untouched");
  EXPECT_EQ(telem::snapshot().counter_value("test/reg_untouched"), 0);
  EXPECT_EQ(telem::snapshot().counter_value("test/never_registered"), 0);
}

TEST(TelemetryRegistry, GaugeSetAndNoteMax) {
  SKIP_IF_COMPILED_OUT();
  TelemetryOn scope;
  telem::Gauge& g = telem::gauge("test/reg_gauge");
  g.set(7);
  g.note_max(3);  // below current: no change
  auto find = [](const telem::Snapshot& s, const std::string& name) {
    for (const auto& gv : s.gauges)
      if (gv.name == name) return gv.value;
    return int64_t{-1};
  };
  EXPECT_EQ(find(telem::snapshot(), "test/reg_gauge"), 7);
  g.note_max(1000);
  EXPECT_EQ(find(telem::snapshot(), "test/reg_gauge"), 1000);
}

TEST(TelemetryRegistry, HistogramBucketEdgesAreInclusive) {
  SKIP_IF_COMPILED_OUT();
  TelemetryOn scope;
  telem::Histogram& h = telem::histogram("test/reg_hist", {10, 20});

  h.observe(0);    // bucket 0 (v <= 10)
  h.observe(10);   // bucket 0: edges are inclusive upper bounds
  h.observe(11);   // bucket 1 (10 < v <= 20)
  h.observe(20);   // bucket 1
  h.observe(21);   // overflow bucket
  h.observe(-5);   // negative values land in the first bucket

  const telem::Snapshot snap = telem::snapshot();
  const telem::HistogramValue* hv = nullptr;
  for (const auto& cand : snap.histograms)
    if (cand.name == "test/reg_hist") hv = &cand;
  ASSERT_NE(hv, nullptr);
  ASSERT_EQ(hv->upper_edges, (std::vector<int64_t>{10, 20}));
  ASSERT_EQ(hv->counts.size(), 3u);  // 2 edges + overflow
  EXPECT_EQ(hv->counts[0], 3);
  EXPECT_EQ(hv->counts[1], 2);
  EXPECT_EQ(hv->counts[2], 1);
  EXPECT_EQ(hv->count(), 6);
  EXPECT_EQ(hv->sum, 0 + 10 + 11 + 20 + 21 - 5);

  // Re-registration with different edges keeps the original layout.
  telem::histogram("test/reg_hist", {1, 2, 3, 4});
  const telem::Snapshot snap2 = telem::snapshot();
  for (const auto& cand : snap2.histograms) {
    if (cand.name == "test/reg_hist") {
      EXPECT_EQ(cand.upper_edges, (std::vector<int64_t>{10, 20}));
    }
  }
}

// ---- shard merging under parallel load -------------------------------------

TEST(TelemetryShards, ParallelHammerSumsExactly) {
  SKIP_IF_COMPILED_OUT();
  TelemetryOn scope;
  const int saved = deco::core::num_threads();
  deco::core::set_num_threads(4);

  telem::Counter& c = telem::counter("test/hammer");
  telem::Histogram& h = telem::histogram("test/hammer_hist", {100, 1000});

  // Every worker thread gets its own shard; the merge must still produce the
  // exact total. 64 jobs x 1024 increments, every item also observed once.
  const int64_t kJobs = 64;
  const int64_t kPerJob = 1024;
  for (int64_t j = 0; j < kJobs; ++j) {
    deco::core::parallel_for(0, kPerJob, 16, [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) {
        c.add(1);
        h.observe(i);
      }
    });
  }
  deco::core::set_num_threads(saved);

  const telem::Snapshot snap = telem::snapshot();
  EXPECT_EQ(snap.counter_value("test/hammer"), kJobs * kPerJob);
  for (const auto& hv : snap.histograms) {
    if (hv.name != "test/hammer_hist") continue;
    EXPECT_EQ(hv.count(), kJobs * kPerJob);
    // 0..1023 observed kJobs times: 101 values <= 100, 923 in (100, 1000],
    // 23 above 1000.
    EXPECT_EQ(hv.counts[0], 101 * kJobs);
    EXPECT_EQ(hv.counts[1], 900 * kJobs);
    EXPECT_EQ(hv.counts[2], 23 * kJobs);
    EXPECT_EQ(hv.sum, kJobs * (kPerJob * (kPerJob - 1) / 2));
  }
  // set_num_threads destroyed the worker shards: their counts must have been
  // folded into the retired totals, which the checks above already proved.
}

// ---- spans ------------------------------------------------------------------

TEST(TelemetrySpans, NestingDepthAndContainment) {
  SKIP_IF_COMPILED_OUT();
  TelemetryOn scope;
  {
    DECO_TRACE_SCOPE("test/span_outer");
    {
      DECO_TRACE_SCOPE("test/span_inner");
    }
    {
      DECO_TRACE_SCOPE("test/span_inner");
    }
  }

  const telem::Snapshot snap = telem::snapshot();
  const telem::SpanAggregate* outer = snap.span("test/span_outer");
  const telem::SpanAggregate* inner = snap.span("test/span_inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 1);
  EXPECT_EQ(inner->count, 2);
  // The inner spans ran inside the outer one, so the outer total must cover
  // at least the sum of the inner durations.
  EXPECT_GE(outer->total_ns, inner->total_ns);

  const std::vector<telem::TraceEvent> events = telem::trace_events();
  ASSERT_EQ(events.size(), 3u);  // sorted by start time: outer, inner, inner
  EXPECT_STREQ(events[0].name, "test/span_outer");
  EXPECT_EQ(events[0].depth, 0);
  for (size_t i = 1; i < 3; ++i) {
    EXPECT_STREQ(events[i].name, "test/span_inner");
    EXPECT_EQ(events[i].depth, 1);
    // Interval containment within the outer span.
    EXPECT_GE(events[i].ts_ns, events[0].ts_ns);
    EXPECT_LE(events[i].ts_ns + events[i].dur_ns,
              events[0].ts_ns + events[0].dur_ns);
  }
  // The two inner occurrences do not overlap and appear in execution order.
  EXPECT_GE(events[2].ts_ns, events[1].ts_ns + events[1].dur_ns);
}

TEST(TelemetrySpans, RingOverflowIsCountedNotSilent) {
  SKIP_IF_COMPILED_OUT();
  TelemetryOn scope;
  ASSERT_EQ(telem::dropped_events(), 0);
  // The per-thread ring holds 8192 events; push well past that.
  const int64_t kSpans = 10000;
  for (int64_t i = 0; i < kSpans; ++i) {
    DECO_TRACE_SCOPE("test/span_flood");
  }
  const telem::Snapshot snap = telem::snapshot();
  const telem::SpanAggregate* agg = snap.span("test/span_flood");
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->count, kSpans);  // aggregates never drop
  const int64_t kept =
      static_cast<int64_t>(telem::trace_events().size());
  EXPECT_LT(kept, kSpans);
  EXPECT_EQ(telem::dropped_events(), kSpans - kept);
}

// ---- JSON export ------------------------------------------------------------

TEST(TelemetryExport, AggregateJsonRoundTrips) {
  SKIP_IF_COMPILED_OUT();
  TelemetryOn scope;
  telem::counter("test/json_counter").add(123456789);
  telem::gauge("test/json_gauge").set(-42);
  telem::histogram("test/json_hist", {5}).observe(3);
  {
    DECO_TRACE_SCOPE("test/json_span");
  }

  const std::string text = telem::aggregate_json(telem::snapshot());
  JsonParser parser(text);
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << parser.error() << "\n" << text;
  ASSERT_TRUE(root.is_object());

  const JsonObject& obj = root.object();
  for (const char* section :
       {"counters", "gauges", "histograms", "spans", "memstats", "workspace"})
    ASSERT_TRUE(obj.count(section)) << "missing section " << section;

  EXPECT_EQ(obj.at("counters").object().at("test/json_counter").as_int(),
            123456789);
  EXPECT_EQ(obj.at("gauges").object().at("test/json_gauge").as_int(), -42);

  const JsonObject& hist =
      obj.at("histograms").object().at("test/json_hist").object();
  EXPECT_EQ(hist.at("count").as_int(), 1);
  EXPECT_EQ(hist.at("sum").as_int(), 3);
  ASSERT_EQ(hist.at("counts").array().size(), 2u);
  EXPECT_EQ(hist.at("counts").array()[0].as_int(), 1);

  const JsonObject& span =
      obj.at("spans").object().at("test/json_span").object();
  EXPECT_EQ(span.at("count").as_int(), 1);
  EXPECT_GE(span.at("total_ns").as_int(), 0);

  EXPECT_GE(obj.at("memstats").object().at("tensor_heap_allocs").as_int(), 0);
}

TEST(TelemetryExport, ChromeTraceParsesAndMatchesEvents) {
  SKIP_IF_COMPILED_OUT();
  TelemetryOn scope;
  for (int i = 0; i < 5; ++i) {
    DECO_TRACE_SCOPE("test/trace_span");
  }

  const std::string path = deco::testing::unique_temp_path("trace.json");
  telem::write_chrome_trace(path);
  std::string text;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
    std::fclose(f);
  }
  std::remove(path.c_str());

  JsonParser parser(text);
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << parser.error();
  const JsonArray& events = root.object().at("traceEvents").array();
  ASSERT_EQ(events.size(), 5u);
  for (const JsonValue& ev : events) {
    const JsonObject& e = ev.object();
    EXPECT_EQ(std::get<std::string>(e.at("name").v), "test/trace_span");
    EXPECT_EQ(std::get<std::string>(e.at("ph").v), "X");
    EXPECT_EQ(e.at("pid").as_int(), 1);
  }
}

// ---- reset & disable --------------------------------------------------------

TEST(TelemetryLifecycle, ResetZeroesEverythingButKeepsHandles) {
  SKIP_IF_COMPILED_OUT();
  TelemetryOn scope;
  telem::Counter& c = telem::counter("test/reset_counter");
  c.add(5);
  telem::gauge("test/reset_gauge").set(9);
  {
    DECO_TRACE_SCOPE("test/reset_span");
  }
  ASSERT_EQ(telem::snapshot().counter_value("test/reset_counter"), 5);
  ASSERT_FALSE(telem::trace_events().empty());

  telem::reset();
  const telem::Snapshot snap = telem::snapshot();
  EXPECT_EQ(snap.counter_value("test/reset_counter"), 0);
  for (const auto& gv : snap.gauges) {
    if (gv.name == "test/reset_gauge") {
      EXPECT_EQ(gv.value, 0);
    }
  }
  const telem::SpanAggregate* agg = snap.span("test/reset_span");
  ASSERT_NE(agg, nullptr);  // the registration survives
  EXPECT_EQ(agg->count, 0);
  EXPECT_TRUE(telem::trace_events().empty());
  EXPECT_EQ(telem::dropped_events(), 0);

  // The pre-reset handle still works.
  c.add(2);
  EXPECT_EQ(telem::snapshot().counter_value("test/reset_counter"), 2);
}

TEST(TelemetryLifecycle, DisabledRecordingIsDropped) {
  SKIP_IF_COMPILED_OUT();
  TelemetryOn scope;
  telem::Counter& c = telem::counter("test/disabled_counter");
  c.add(1);
  telem::set_enabled(false);
  EXPECT_FALSE(telem::enabled());
  c.add(100);
  {
    DECO_TRACE_SCOPE("test/disabled_span");
  }
  telem::set_enabled(true);
  c.add(10);

  const telem::Snapshot snap = telem::snapshot();
  EXPECT_EQ(snap.counter_value("test/disabled_counter"), 11);
  const telem::SpanAggregate* agg = snap.span("test/disabled_span");
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->count, 0);
}

}  // namespace
