// Tests for the scenario catalog, the stream decorators behind it, and the
// evaluation harness + BENCH_scenarios.json schema.
//
// The decorator tests pin the determinism contract from decorators.h: every
// decorator is a pure function of (inner stream bytes, decorator seed), so
// the same seed reproduces segments byte-for-byte and a decorator never
// perturbs the inner stream's random sequence (clean and decorated runs stay
// paired sample-for-sample). The cross-thread-count byte identity of whole
// matrix cells is covered by the slow suite (scenario_matrix_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "deco/data/decorators.h"
#include "deco/data/stream.h"
#include "deco/data/world.h"
#include "deco/scenario/harness.h"
#include "deco/scenario/scenario.h"
#include "deco/tensor/check.h"
#include "test_util.h"

namespace deco {
namespace {

using testing::JsonObject;
using testing::JsonParser;
using testing::JsonValue;

// ---- fixtures ---------------------------------------------------------------

data::DatasetSpec tiny_spec() {
  data::DatasetSpec spec = data::core50_spec();
  spec.height = spec.width = 12;
  return spec;
}

data::StreamConfig tiny_stream(int64_t segments) {
  data::StreamConfig sc;
  sc.stc = 6;
  sc.segment_size = 8;
  sc.total_segments = segments;
  sc.video_mode = true;
  return sc;
}

/// Per-segment image bytes and labels of a fully drained source.
struct Recorded {
  std::vector<std::vector<float>> images;
  std::vector<std::vector<int64_t>> labels;
};

Recorded record(data::SegmentSource& src) {
  Recorded out;
  data::Segment seg;
  while (src.next(seg)) {
    out.images.emplace_back(seg.images.data(),
                            seg.images.data() + seg.images.numel());
    out.labels.push_back(seg.true_labels);
  }
  return out;
}

// memcmp, not operator==: fault-injected NaNs must compare as "same bytes".
bool same_bytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool all_same_bytes(const Recorded& a, const Recorded& b) {
  if (a.images.size() != b.images.size() || a.labels != b.labels) return false;
  for (size_t i = 0; i < a.images.size(); ++i)
    if (!same_bytes(a.images[i], b.images[i])) return false;
  return true;
}

/// Cell options scaled down so a harness test runs in about a second.
scenario::HarnessOptions tiny_options() {
  scenario::HarnessOptions o;
  o.segments = 3;
  o.ipc = 2;
  o.model_width = 8;
  o.pretrain_per_class = 2;
  o.pretrain_epochs = 2;
  o.test_per_class = 4;
  o.model_update_epochs = 1;
  o.beta = 2;
  o.condenser_iterations = 1;
  o.seed = 1;
  return o;
}

// ---- DriftStream ------------------------------------------------------------

TEST(DriftStream, SeverityTimeCourseIsPure) {
  struct NullSource : data::SegmentSource {
    bool next(data::Segment&) override { return false; }
  } null_source;

  data::DriftConfig abrupt;
  abrupt.mode = "abrupt";
  abrupt.onset_segment = 3;
  abrupt.severity = 0.6f;
  data::DriftStream a(null_source, abrupt, 1);
  EXPECT_EQ(a.severity_at(0), 0.0f);
  EXPECT_EQ(a.severity_at(2), 0.0f);
  EXPECT_FLOAT_EQ(a.severity_at(3), 0.6f);
  EXPECT_FLOAT_EQ(a.severity_at(100), 0.6f);

  data::DriftConfig gradual;
  gradual.mode = "gradual";
  gradual.onset_segment = 2;
  gradual.ramp_segments = 4;
  gradual.severity = 0.8f;
  data::DriftStream g(null_source, gradual, 1);
  EXPECT_EQ(g.severity_at(1), 0.0f);
  EXPECT_FLOAT_EQ(g.severity_at(2), 0.8f * 0.25f);
  EXPECT_FLOAT_EQ(g.severity_at(4), 0.8f * 0.75f);
  EXPECT_FLOAT_EQ(g.severity_at(5), 0.8f);   // ramp complete
  EXPECT_FLOAT_EQ(g.severity_at(50), 0.8f);  // holds
}

TEST(DriftStream, SeedPureAndPairedWithCleanRun) {
  const data::DatasetSpec spec = tiny_spec();
  data::ProceduralImageWorld world(spec, 11);
  const data::StreamConfig sc = tiny_stream(5);
  data::DriftConfig cfg;
  cfg.mode = "abrupt";
  cfg.onset_segment = 2;
  cfg.severity = 0.7f;

  auto drifted = [&](uint64_t drift_seed) {
    data::TemporalStream base(world, sc, 5);
    data::SourceOf<data::TemporalStream> src(base);
    data::DriftStream drift(src, cfg, drift_seed);
    return record(drift);
  };
  const Recorded a = drifted(3);
  const Recorded b = drifted(3);
  const Recorded c = drifted(4);
  EXPECT_TRUE(all_same_bytes(a, b)) << "same seed must reproduce bytes";
  bool c_differs = false;
  for (size_t i = 2; i < a.images.size(); ++i)
    c_differs = c_differs || !same_bytes(a.images[i], c.images[i]);
  EXPECT_TRUE(c_differs) << "a different seed must drift differently";

  // Common random numbers: the decorator never perturbs the inner stream, so
  // the drifted run pairs with the clean run — identical labels everywhere,
  // identical images strictly before onset, shifted images at and after it.
  data::TemporalStream clean_base(world, sc, 5);
  data::SourceOf<data::TemporalStream> clean_src(clean_base);
  const Recorded clean = record(clean_src);
  ASSERT_EQ(clean.images.size(), a.images.size());
  EXPECT_EQ(clean.labels, a.labels);
  EXPECT_TRUE(same_bytes(clean.images[0], a.images[0]));
  EXPECT_TRUE(same_bytes(clean.images[1], a.images[1]));
  for (size_t i = 2; i < a.images.size(); ++i)
    EXPECT_FALSE(same_bytes(clean.images[i], a.images[i]))
        << "segment " << i << " should be drifted";

  // Drifted pixels stay in the valid [0, 1] range.
  for (const auto& img : a.images)
    for (float v : img) {
      ASSERT_GE(v, 0.0f);
      ASSERT_LE(v, 1.0f);
    }
}

// ---- LabelNoiseStream -------------------------------------------------------

TEST(LabelNoiseStream, FlipsLabelsOnlySeedPure) {
  const data::DatasetSpec spec = tiny_spec();
  data::ProceduralImageWorld world(spec, 11);
  const data::StreamConfig sc = tiny_stream(6);
  data::LabelNoiseConfig cfg;
  cfg.flip_rate = 0.3;

  int64_t flipped_count = -1;
  auto noisy = [&](uint64_t noise_seed) {
    data::TemporalStream base(world, sc, 5);
    data::SourceOf<data::TemporalStream> src(base);
    data::LabelNoiseStream noise(src, cfg, spec.num_classes, noise_seed);
    Recorded r = record(noise);
    flipped_count = noise.labels_flipped();
    return r;
  };
  const Recorded a = noisy(7);
  const int64_t a_flipped = flipped_count;
  const Recorded b = noisy(7);
  EXPECT_TRUE(all_same_bytes(a, b)) << "same seed must reproduce flips";
  EXPECT_EQ(a_flipped, flipped_count);

  const Recorded c = noisy(8);
  EXPECT_NE(a.labels, c.labels) << "a different seed must flip differently";

  // Annotation noise touches labels only: images stay byte-identical to the
  // clean run, and the flip counter equals the number of changed labels.
  data::TemporalStream clean_base(world, sc, 5);
  data::SourceOf<data::TemporalStream> clean_src(clean_base);
  const Recorded clean = record(clean_src);
  ASSERT_EQ(clean.images.size(), a.images.size());
  int64_t changed = 0;
  for (size_t i = 0; i < a.images.size(); ++i) {
    EXPECT_TRUE(same_bytes(clean.images[i], a.images[i]));
    for (size_t j = 0; j < a.labels[i].size(); ++j) {
      EXPECT_GE(a.labels[i][j], 0);
      EXPECT_LT(a.labels[i][j], spec.num_classes);
      if (a.labels[i][j] != clean.labels[i][j]) ++changed;
    }
  }
  EXPECT_EQ(changed, a_flipped);
  EXPECT_GT(a_flipped, 0) << "0.3 flip rate over 48 labels must flip some";
}

// ---- ClassIncrementalStream -------------------------------------------------

TEST(ClassIncrementalStream, ArrivalScheduleIsPure) {
  data::ClassIncrementalConfig cfg;
  cfg.initial = 2;
  cfg.per_phase = 2;
  cfg.segments_per_phase = 2;
  EXPECT_EQ(cfg.arrived_at(0, 10), 2);
  EXPECT_EQ(cfg.arrived_at(1, 10), 2);
  EXPECT_EQ(cfg.arrived_at(2, 10), 4);
  EXPECT_EQ(cfg.arrived_at(5, 10), 6);
  EXPECT_EQ(cfg.arrived_at(100, 10), 10);  // capped at the class count
}

TEST(ClassIncrementalStream, RestrictsEarlyClassesSeedPure) {
  const data::DatasetSpec spec = tiny_spec();
  data::ProceduralImageWorld world(spec, 11);
  const data::StreamConfig sc = tiny_stream(6);
  data::ClassIncrementalConfig cfg;
  cfg.initial = 1;
  cfg.per_phase = 2;
  cfg.segments_per_phase = 2;

  int64_t remapped = -1;
  auto incremental = [&](uint64_t ci_seed) {
    data::TemporalStream base(world, sc, 5);
    data::SourceOf<data::TemporalStream> src(base);
    data::ClassIncrementalStream ci(world, src, cfg, ci_seed);
    Recorded r = record(ci);
    remapped = ci.samples_remapped();
    return r;
  };
  const Recorded a = incremental(9);
  const int64_t a_remapped = remapped;
  const Recorded b = incremental(9);
  EXPECT_TRUE(all_same_bytes(a, b)) << "same seed must remap identically";
  EXPECT_EQ(a_remapped, remapped);
  EXPECT_GT(a_remapped, 0)
      << "with 1 initial class some runs must have been remapped";

  // Every label respects the arrival schedule at its segment index.
  for (size_t i = 0; i < a.labels.size(); ++i) {
    const int64_t arrived =
        cfg.arrived_at(static_cast<int64_t>(i), spec.num_classes);
    for (int64_t label : a.labels[i]) {
      EXPECT_GE(label, 0);
      EXPECT_LT(label, arrived) << "segment " << i;
    }
  }

  // A different seed redraws the remapped runs' (instance, environment,
  // frame), so the re-rendered bytes differ.
  const Recorded c = incremental(10);
  bool differs = false;
  for (size_t i = 0; i < a.images.size(); ++i)
    differs = differs || !same_bytes(a.images[i], c.images[i]);
  EXPECT_TRUE(differs);
}

// ---- catalog ----------------------------------------------------------------

TEST(ScenarioCatalog, BuiltinsValidateAndLookUpByName) {
  const std::vector<scenario::ScenarioSpec> all = scenario::builtin_scenarios();
  ASSERT_GE(all.size(), 8u);
  std::set<std::string> names;
  for (const scenario::ScenarioSpec& s : all) {
    EXPECT_NO_THROW(s.validate()) << s.name;
    EXPECT_FALSE(s.description.empty()) << s.name;
    names.insert(s.name);
  }
  EXPECT_EQ(names.size(), all.size()) << "scenario names must be unique";

  const std::vector<std::string> listed = scenario::scenario_names();
  EXPECT_EQ(listed.size(), all.size());
  for (const char* n :
       {"clean", "class_incremental", "drift_abrupt", "drift_gradual",
        "label_noise", "faulty_sensors", "bursty_shed", "hetero_fleet",
        "mem_pressure_fp32", "mem_pressure_int8"})
    EXPECT_EQ(names.count(n), 1u) << n;

  const scenario::ScenarioSpec bursty = scenario::scenario_by_name("bursty_shed");
  EXPECT_EQ(bursty.overflow, runtime::OverflowPolicy::kShedOldest);
  EXPECT_GT(bursty.burst_size, bursty.queue_depth)
      << "the bursty scenario must actually overflow its queue";
  EXPECT_THROW(scenario::scenario_by_name("nope"), Error);

  EXPECT_EQ(scenario::dataset_spec_by_name("cifar10").name, "cifar10");
  EXPECT_THROW(scenario::dataset_spec_by_name("bogus"), Error);
}

TEST(ScenarioCatalog, MethodListCoversMatchersAndBaselines) {
  const std::vector<std::string> methods = scenario::builtin_methods();
  const std::set<std::string> set(methods.begin(), methods.end());
  EXPECT_EQ(set.size(), methods.size());
  for (const char* m : {"deco", "dc", "dsa", "dm", "random", "fifo",
                        "selective_bp", "kcenter", "gss"})
    EXPECT_EQ(set.count(m), 1u) << m;
  // The oracle reads true labels; under label noise it would measure the
  // noise, so it stays out of the default matrix.
  EXPECT_EQ(set.count("upper_bound"), 0u);
}

TEST(ScenarioCatalog, ValidateRejectsInconsistentSpecs) {
  scenario::ScenarioSpec s = scenario::scenario_by_name("clean");
  s.burst_every = 2;
  s.burst_size = 4;
  s.queue_depth = 2;
  s.overflow = runtime::OverflowPolicy::kBlock;
  EXPECT_THROW(s.validate(), Error)
      << "a burst larger than a kBlock queue would deadlock the harness";
  s.overflow = runtime::OverflowPolicy::kShedOldest;
  EXPECT_NO_THROW(s.validate());

  scenario::ScenarioSpec d = scenario::scenario_by_name("clean");
  d.drift.mode = "weird";
  EXPECT_THROW(d.validate(), Error);

  scenario::ScenarioSpec n = scenario::scenario_by_name("clean");
  n.label_noise.flip_rate = 1.5;
  EXPECT_THROW(n.validate(), Error);
}

// ---- harness ----------------------------------------------------------------

TEST(ScenarioHarness, CleanCellRunsLossFree) {
  const scenario::CellResult cell = scenario::run_cell(
      scenario::scenario_by_name("clean"), "fifo", tiny_options());
  EXPECT_EQ(cell.scenario, "clean");
  EXPECT_EQ(cell.method, "fifo");
  EXPECT_EQ(cell.sessions, 1);
  EXPECT_EQ(cell.sessions_admitted, 1) << "no budget: everything admits";
  EXPECT_EQ(cell.cache_dtype, "fp32");
  EXPECT_GT(cell.cache_logical_bytes, 0);
  EXPECT_EQ(cell.cache_stored_bytes, cell.cache_logical_bytes)
      << "fp32 storage is the identity codec";
  EXPECT_EQ(cell.segments_submitted, 3);
  EXPECT_EQ(cell.segments_processed, 3);
  EXPECT_EQ(cell.segments_shed, 0);
  EXPECT_TRUE(std::isfinite(cell.accuracy));
  EXPECT_GE(cell.accuracy, 0.0f);
  EXPECT_LE(cell.accuracy, 100.0f);
  EXPECT_TRUE(std::isfinite(cell.forgetting));
  EXPECT_GE(cell.forgetting, 0.0f);
  // Loss-free cell: pseudo-label accuracy is measurable.
  EXPECT_GE(cell.pseudo_label_accuracy, 0.0);
  EXPECT_LE(cell.pseudo_label_accuracy, 1.0);
  EXPECT_GT(cell.peak_pool_bytes, 0);
  EXPECT_GT(cell.wall_seconds, 0.0);
  EXPECT_TRUE(cell.state_blobs.empty()) << "capture_state was off";
}

TEST(ScenarioHarness, BurstyCellShedsAndAccountsEverySegment) {
  scenario::HarnessOptions options = tiny_options();
  options.segments = 4;
  const scenario::CellResult cell = scenario::run_cell(
      scenario::scenario_by_name("bursty_shed"), "fifo", options);
  EXPECT_GT(cell.segments_shed, 0) << "bursts of 4 into depth 2 must shed";
  EXPECT_EQ(cell.segments_processed + cell.segments_shed,
            cell.segments_submitted)
      << "every submitted segment is either processed or counted as shed";
  // Shedding breaks report/submission alignment: the metric is undefined.
  EXPECT_EQ(cell.pseudo_label_accuracy, -1.0);
}

TEST(ScenarioHarness, RejectsUnknownMethodAndBadOptions) {
  try {
    scenario::run_cell(scenario::scenario_by_name("clean"), "not_a_method",
                       tiny_options());
    FAIL() << "unknown method accepted";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("dm"), std::string::npos) << msg;
    EXPECT_NE(msg.find("upper_bound"), std::string::npos) << msg;
  }
  scenario::HarnessOptions bad = tiny_options();
  bad.ipc = 0;
  EXPECT_THROW(scenario::run_cell(scenario::scenario_by_name("clean"), "fifo",
                                  bad),
               Error);
}

// The memory-pressure pair is the ROADMAP's "sessions per budget" cell: the
// same oversized fleet offered to the same 1 MiB admission budget, with only
// the cache storage dtype differing. Condensation methods allocate their
// full synthetic buffer up front, so admission sees the real cache cost and
// the int8 cell must fit strictly more sessions.
TEST(ScenarioHarness, MemoryPressureInt8AdmitsMoreSessions) {
  scenario::HarnessOptions options = tiny_options();
  options.segments = 2;
  const scenario::CellResult f32 = scenario::run_cell(
      scenario::scenario_by_name("mem_pressure_fp32"), "deco", options);
  const scenario::CellResult q8 = scenario::run_cell(
      scenario::scenario_by_name("mem_pressure_int8"), "deco", options);

  EXPECT_EQ(f32.sessions, 6);
  EXPECT_EQ(f32.cache_dtype, "fp32");
  EXPECT_EQ(q8.cache_dtype, "int8");
  EXPECT_GT(f32.sessions_admitted, 0);
  EXPECT_LT(f32.sessions_admitted, 6)
      << "the fp32 fleet must overflow the 1 MiB budget";
  EXPECT_GT(q8.sessions_admitted, f32.sessions_admitted)
      << "quantized caches must fit more sessions under the same budget";

  // The int8 cache must hit the >= 3.5x compression target (36 stored bytes
  // per 32-float block vs 128).
  ASSERT_GT(q8.cache_stored_bytes, 0);
  const double ratio = static_cast<double>(q8.cache_logical_bytes) /
                       static_cast<double>(q8.cache_stored_bytes);
  EXPECT_GE(ratio, 3.5);

  // Rejected sessions submit nothing; admitted ones still account for every
  // segment.
  EXPECT_EQ(f32.segments_submitted, 2 * f32.sessions_admitted);
  EXPECT_EQ(f32.segments_processed, f32.segments_submitted);
  EXPECT_EQ(q8.segments_processed, q8.segments_submitted);
  EXPECT_TRUE(std::isfinite(f32.accuracy));
  EXPECT_TRUE(std::isfinite(q8.accuracy));
}

// Single-session smoke gate on what quantization costs: the same clean cell
// with an int8 cache must stay within a coarse accuracy band of fp32. The
// tiny protocol is noisy, so this catches catastrophic breakage (a zeroed or
// misdecoded buffer), not regressions of a point or two.
TEST(ScenarioHarness, Int8CacheAccuracyWithinGateOfFp32) {
  scenario::ScenarioSpec spec = scenario::scenario_by_name("clean");
  const scenario::CellResult f32 =
      scenario::run_cell(spec, "deco", tiny_options());
  spec.cache_dtype = DType::kQ8;
  const scenario::CellResult q8 =
      scenario::run_cell(spec, "deco", tiny_options());
  EXPECT_EQ(q8.cache_dtype, "int8");
  EXPECT_LT(q8.cache_stored_bytes, f32.cache_stored_bytes);
  EXPECT_EQ(q8.cache_logical_bytes, f32.cache_logical_bytes);
  EXPECT_NEAR(q8.accuracy, f32.accuracy, 25.0f)
      << "int8 cache accuracy fell out of the smoke gate";
}

// ---- matrix gates -----------------------------------------------------------

// A synthetic cell that passes every gate; the tests break one field at a time.
scenario::CellResult gate_cell(const std::string& scenario,
                               const std::string& method) {
  scenario::CellResult c;
  c.scenario = scenario;
  c.method = method;
  c.sessions = 6;
  c.sessions_admitted = 2;
  c.cache_stored_bytes = 1000;
  c.cache_logical_bytes = 1000;
  c.segments_submitted = 12;
  c.segments_processed = 10;
  c.segments_shed = 2;
  c.accuracy = 40.0f;
  c.forgetting = 3.0f;
  return c;
}

// The mem_pressure pair shaped like the CI matrix's deco cells: the int8
// cache compresses 3.556x and admits 6 sessions to fp32's 2.
scenario::MatrixReport passing_pair() {
  scenario::MatrixReport r;
  r.cells.push_back(gate_cell("mem_pressure_fp32", "deco"));
  scenario::CellResult q8 = gate_cell("mem_pressure_int8", "deco");
  q8.cache_dtype = "int8";
  q8.sessions_admitted = 6;
  q8.cache_stored_bytes = 900;
  q8.cache_logical_bytes = 3200;
  q8.accuracy = 35.0f;
  r.cells.push_back(q8);
  return r;
}

void expect_one_failure_in(const scenario::MatrixReport& r,
                           const std::string& cell) {
  const std::vector<std::string> failures = scenario::matrix_failures(r);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].rfind(cell + ": ", 0), 0u) << failures[0];
}

TEST(MatrixGates, PassingPairHasNoFailures) {
  EXPECT_TRUE(scenario::matrix_failures(passing_pair()).empty());
}

TEST(MatrixGates, PairGatesNeedBothCellsOfOneMethod) {
  EXPECT_TRUE(scenario::matrix_failures(scenario::MatrixReport{}).empty());
  // An uncompressed int8 cell would fail the pair gates, but its fp32 twin
  // ran under another method, so there is no pair to judge.
  scenario::MatrixReport r;
  r.cells.push_back(gate_cell("clean", "deco"));
  r.cells.push_back(gate_cell("mem_pressure_fp32", "random"));
  r.cells.push_back(gate_cell("mem_pressure_int8", "fifo"));
  EXPECT_TRUE(scenario::matrix_failures(r).empty());
}

TEST(MatrixGates, EachGateFailsAloneAndNamesItsCell) {
  scenario::MatrixReport ratio = passing_pair();
  ratio.cells[1].cache_logical_bytes = 3060;  // 3.4x
  expect_one_failure_in(ratio, "mem_pressure_int8/deco");

  scenario::MatrixReport admitted = passing_pair();
  admitted.cells[1].sessions_admitted = 1;
  expect_one_failure_in(admitted, "mem_pressure_int8/deco");

  scenario::MatrixReport accuracy = passing_pair();
  accuracy.cells[1].accuracy = accuracy.cells[0].accuracy + 21.0f;
  expect_one_failure_in(accuracy, "mem_pressure_int8/deco");

  scenario::MatrixReport lost = passing_pair();
  lost.cells[0].segments_processed -= 1;
  expect_one_failure_in(lost, "mem_pressure_fp32/deco");

  // A NaN accuracy trips the finiteness gate only: the accuracy-delta
  // comparison is false for NaN, so the cell is not reported twice.
  scenario::MatrixReport nan = passing_pair();
  nan.cells[1].accuracy = std::numeric_limits<float>::quiet_NaN();
  expect_one_failure_in(nan, "mem_pressure_int8/deco");
}

// ---- BENCH_scenarios.json schema (golden fixture round-trip) ----------------

const std::set<std::string> kTopKeys = {"schema", "seed", "threads", "cells"};
const std::set<std::string> kCellKeys = {
    "scenario",        "method",         "sessions",
    "sessions_admitted", "cache_dtype",  "cache_stored_bytes",
    "cache_logical_bytes",
    "segments_submitted", "segments_processed", "segments_shed",
    "accuracy",        "forgetting",     "pseudo_label_accuracy",
    "peak_pool_bytes", "wall_seconds"};

std::set<std::string> keys_of(const JsonObject& obj) {
  std::set<std::string> out;
  for (const auto& kv : obj) out.insert(kv.first);
  return out;
}

/// Strict schema check: exact key sets (missing AND unknown keys are
/// rejected), typed fields. Returns "" when valid.
std::string report_schema_error(const std::string& text) {
  JsonParser parser(text);
  const JsonValue doc = parser.parse();
  if (!parser.ok()) return "parse error: " + parser.error();
  if (!doc.is_object()) return "document is not an object";
  const JsonObject& top = doc.object();
  if (keys_of(top) != kTopKeys) return "top-level key set mismatch";
  if (!std::holds_alternative<std::string>(top.at("schema").v) ||
      std::get<std::string>(top.at("schema").v) != "deco.bench_scenarios.v2")
    return "bad schema tag";
  if (!std::holds_alternative<int64_t>(top.at("seed").v)) return "bad seed";
  if (!std::holds_alternative<int64_t>(top.at("threads").v))
    return "bad threads";
  if (!std::holds_alternative<std::shared_ptr<testing::JsonArray>>(
          top.at("cells").v))
    return "cells is not an array";
  for (const JsonValue& cell : top.at("cells").array()) {
    if (!cell.is_object()) return "cell is not an object";
    const JsonObject& c = cell.object();
    if (keys_of(c) != kCellKeys) return "cell key set mismatch";
    for (const char* k : {"scenario", "method", "cache_dtype"})
      if (!std::holds_alternative<std::string>(c.at(k).v))
        return std::string("cell field not a string: ") + k;
    for (const char* k : {"sessions", "sessions_admitted",
                          "cache_stored_bytes", "cache_logical_bytes",
                          "segments_submitted",
                          "segments_processed", "segments_shed",
                          "peak_pool_bytes"})
      if (!std::holds_alternative<int64_t>(c.at(k).v))
        return std::string("cell field not an int: ") + k;
    for (const char* k : {"accuracy", "forgetting", "pseudo_label_accuracy",
                          "wall_seconds"})
      if (!std::holds_alternative<double>(c.at(k).v))
        return std::string("cell field not a float: ") + k;
  }
  return "";
}

// A hand-written specimen of the committed BENCH_scenarios.json format. If
// the emitter's schema drifts, BOTH this fixture check and the generated-
// report check below fail, pointing at the contract rather than the code.
const char kGoldenReport[] = R"({
  "schema": "deco.bench_scenarios.v2",
  "seed": 1,
  "threads": 4,
  "cells": [
    {"scenario": "clean", "method": "deco", "sessions": 1, "sessions_admitted": 1, "cache_dtype": "fp32", "cache_stored_bytes": 122880, "cache_logical_bytes": 122880, "segments_submitted": 8, "segments_processed": 8, "segments_shed": 0, "accuracy": 35.250000, "forgetting": 1.500000, "pseudo_label_accuracy": 0.625000, "peak_pool_bytes": 144488, "wall_seconds": 2.125000},
    {"scenario": "mem_pressure_int8", "method": "fifo", "sessions": 6, "sessions_admitted": 6, "cache_dtype": "int8", "cache_stored_bytes": 829440, "cache_logical_bytes": 2949120, "segments_submitted": 14, "segments_processed": 10, "segments_shed": 4, "accuracy": 20.000000, "forgetting": 2.750000, "pseudo_label_accuracy": -1.000000, "peak_pool_bytes": 144488, "wall_seconds": 1.875000}
  ]
})";

TEST(ScenarioReport, GoldenFixtureRoundTripsAndRejectsSchemaDrift) {
  EXPECT_EQ(report_schema_error(kGoldenReport), "");

  // Missing key: drop "forgetting" from the first cell.
  std::string missing = kGoldenReport;
  const std::string forgetting = "\"forgetting\": 1.500000, ";
  const size_t at = missing.find(forgetting);
  ASSERT_NE(at, std::string::npos);
  missing.erase(at, forgetting.size());
  EXPECT_NE(report_schema_error(missing), "");

  // Unknown key: smuggle an extra field into a cell.
  std::string extra = kGoldenReport;
  const size_t cell_at = extra.find("{\"scenario\": \"clean\"");
  ASSERT_NE(cell_at, std::string::npos);
  extra.insert(cell_at + 1, "\"surprise\": 1, ");
  EXPECT_NE(report_schema_error(extra), "");

  // Wrong type: a string where an int belongs.
  std::string wrong_type = kGoldenReport;
  const std::string sessions = "\"sessions\": 1";
  const size_t s_at = wrong_type.find(sessions);
  ASSERT_NE(s_at, std::string::npos);
  wrong_type.replace(s_at, sessions.size(), "\"sessions\": \"one\"");
  EXPECT_NE(report_schema_error(wrong_type), "");

  // Truncated document: must be a parse error, not a silent pass.
  EXPECT_NE(report_schema_error(std::string(kGoldenReport).substr(0, 90)), "");
}

TEST(ScenarioReport, GeneratedMatrixMatchesGoldenSchema) {
  scenario::HarnessOptions options = tiny_options();
  options.segments = 2;
  const scenario::MatrixReport report = scenario::run_matrix(
      {scenario::scenario_by_name("clean")}, {"random"}, options);
  ASSERT_EQ(report.cells.size(), 1u);

  const std::string text = scenario::matrix_json(report);
  EXPECT_EQ(report_schema_error(text), "") << text;

  // write_matrix_json writes exactly the serialized document.
  const std::string path = "scenario_report_roundtrip.json";
  scenario::write_matrix_json(report, path);
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.is_open());
  std::stringstream ss;
  ss << is.rdbuf();
  is.close();
  std::remove(path.c_str());
  EXPECT_EQ(ss.str(), text);

  // deterministic_json is the cell schema minus the wall-clock field.
  JsonParser parser(report.cells[0].deterministic_json());
  const JsonValue det = parser.parse();
  ASSERT_TRUE(parser.ok()) << parser.error();
  ASSERT_TRUE(det.is_object());
  std::set<std::string> expect = kCellKeys;
  expect.erase("wall_seconds");
  EXPECT_EQ(keys_of(det.object()), expect);
}

}  // namespace
}  // namespace deco
