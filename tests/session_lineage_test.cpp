// Seed-lineage golden test: every place that builds a learner session —
// eval::run_experiment, scenario::run_cell and runtime::Fleet::make_learner —
// runs a tiny fixed-seed workload for each of the 10 method names, and its
// scalar outputs are pinned against the committed fixture
// tests/golden/session_lineage.txt at 1e-6 tolerance. The fixture records
// each builder's seed lineage (labeled set, model init, pre-training,
// learner, condenser), so a refactor of session construction that changes
// any seed, config default or call order shows up here as a precise diff.
//
// The run_cell half uses the hetero_fleet scenario: its three sessions have
// different ipc, resolution and width, so session indices i > 0 are pinned.
//
// Regenerating the fixture (after an INTENDED numeric change):
//
//   DECO_REGEN_GOLDEN=1 ./deco_slow_tests --gtest_filter='SessionLineage*'
//
// then commit the rewritten fixture together with the change that motivated
// it, and say why in the commit message.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "deco/core/learner.h"
#include "deco/data/stream.h"
#include "deco/data/world.h"
#include "deco/eval/metrics.h"
#include "deco/eval/runner.h"
#include "deco/runtime/fleet.h"
#include "deco/scenario/harness.h"
#include "deco/scenario/scenario.h"

namespace deco {
namespace {

const char* kGoldenRelPath = "/tests/golden/session_lineage.txt";

std::string golden_path() {
  return std::string(DECO_SOURCE_DIR) + kGoldenRelPath;
}

const std::vector<std::string>& all_methods() {
  static const std::vector<std::string> m = {
      "deco",   "dc",   "dsa",          "dm",      "upper_bound",
      "random", "fifo", "selective_bp", "kcenter", "gss"};
  return m;
}

data::DatasetSpec tiny_spec() {
  data::DatasetSpec spec = data::icub1_spec();
  spec.num_classes = 4;
  spec.height = spec.width = 8;
  return spec;
}

eval::RunConfig tiny_run(const std::string& method) {
  eval::RunConfig cfg;
  cfg.method = method;
  cfg.spec = tiny_spec();
  cfg.stream.stc = 6;
  cfg.stream.segment_size = 8;
  cfg.stream.total_segments = 4;
  cfg.ipc = 3;
  // A large model-update step so every seed the session consumes moves the
  // final accuracy.
  cfg.deco.lr_model = 1e-2f;
  cfg.deco.beta = 2;
  cfg.deco.model_update_epochs = 8;
  cfg.deco.condenser.iterations = 2;
  cfg.bilevel.outer_loops = 1;
  cfg.bilevel.inner_epochs = 2;
  cfg.baseline.lr_model = 1e-2f;
  cfg.baseline.beta = 2;
  cfg.baseline.model_update_epochs = 8;
  cfg.pretrain_per_class = 3;
  cfg.pretrain_epochs = 5;
  cfg.test_per_class = 10;
  cfg.model_width = 8;
  cfg.model_depth = 2;
  cfg.seed = 5;
  return cfg;
}

scenario::HarnessOptions tiny_harness() {
  scenario::HarnessOptions o;
  o.segments = 4;
  o.ipc = 2;
  o.model_width = 8;
  o.pretrain_per_class = 2;
  o.pretrain_epochs = 4;
  o.test_per_class = 6;
  o.model_update_epochs = 6;
  o.beta = 2;
  o.condenser_iterations = 1;
  o.capture_state = true;
  o.seed = 3;
  return o;
}

// Top 20 bits of the FNV-1a hash of the session states: exact in a double
// and far outside the 1e-6 tolerance of any other value.
double state_hash(const std::vector<std::string>& blobs) {
  uint64_t h = 1469598103934665603ull;
  for (const std::string& b : blobs) {
    for (unsigned char c : b) {
      h ^= c;
      h *= 1099511628211ull;
    }
  }
  return static_cast<double>(h >> 44);
}

// Ordered map so the regenerated fixture is stable line-for-line.
std::map<std::string, double> run_lineage() {
  std::map<std::string, double> out;

  for (const std::string& method : all_methods()) {
    const eval::RunResult r = eval::run_experiment(tiny_run(method));
    const std::string pre = "runner." + method + ".";
    out[pre + "pretrain_accuracy"] = r.pretrain_accuracy;
    out[pre + "final_accuracy"] = r.final_accuracy;
    out[pre + "pseudo_label_accuracy"] = r.pseudo_label_accuracy;
    out[pre + "retention_rate"] = r.retention_rate;
  }

  const scenario::ScenarioSpec hetero =
      scenario::scenario_by_name("hetero_fleet");
  for (const std::string& method : all_methods()) {
    const scenario::CellResult c =
        scenario::run_cell(hetero, method, tiny_harness());
    const std::string pre = "cell." + method + ".";
    out[pre + "accuracy"] = c.accuracy;
    out[pre + "forgetting"] = c.forgetting;
    out[pre + "pseudo_label_accuracy"] = c.pseudo_label_accuracy;
    out[pre + "peak_pool_bytes"] = static_cast<double>(c.peak_pool_bytes);
    if (!c.state_blobs.empty())
      out[pre + "state_hash"] = state_hash(c.state_blobs);
  }

  // Fleet session 1 (i > 0) after one segment; beta = 1 makes that segment
  // also retrain the model.
  runtime::FleetConfig fc;
  fc.sessions = 2;
  fc.spec = tiny_spec();
  fc.stream.stc = 6;
  fc.stream.segment_size = 6;
  fc.stream.total_segments = 1;
  fc.deco.ipc = 2;
  fc.deco.beta = 1;
  fc.deco.model_update_epochs = 2;
  fc.deco.condenser.iterations = 2;
  fc.labeled_per_class = 2;
  fc.model_width = 8;
  fc.seed = 7;
  data::ProceduralImageWorld world(fc.spec, runtime::Fleet::world_seed(fc));
  runtime::LearnerHandle h = runtime::Fleet::make_learner(fc, world, 1);
  data::TemporalStream stream(world, fc.stream,
                              runtime::Fleet::stream_seed(fc, 1));
  data::Segment seg;
  EXPECT_TRUE(stream.next(seg));
  const core::SegmentReport rep = h.learner->observe_segment(seg.images);
  double label_sum = 0.0;
  for (int64_t l : rep.pseudo_labels) label_sum += static_cast<double>(l);
  out["fleet.session1.condense_distance"] = rep.condense_distance;
  out["fleet.session1.pseudo_label_sum"] = label_sum;
  out["fleet.session1.retained"] = static_cast<double>(rep.retained.size());
  out["fleet.session1.memory_bytes"] =
      static_cast<double>(h.learner->memory_bytes());
  out["fleet.session1.accuracy"] =
      eval::accuracy(h.learner->model(), world.make_test_set(4, 99));
  auto* deco = dynamic_cast<core::DecoLearner*>(h.learner.get());
  EXPECT_NE(deco, nullptr);
  if (deco != nullptr) {
    const Tensor& buf = deco->buffer().images();
    double sum = 0.0;
    for (int64_t i = 0; i < buf.numel(); ++i) sum += buf[i];
    out["fleet.session1.buffer_mean"] = sum / static_cast<double>(buf.numel());
    out["fleet.session1.buffer_min"] = buf.min();
    out["fleet.session1.buffer_max"] = buf.max();
  }
  return out;
}

std::map<std::string, double> read_golden(const std::string& path) {
  std::ifstream in(path);
  std::map<std::string, double> out;
  std::string key;
  double value = 0.0;
  while (in >> key >> value) out[key] = value;
  return out;
}

void write_golden(const std::string& path,
                  const std::map<std::string, double>& values) {
  std::ofstream out(path);
  out.precision(12);
  for (const auto& [key, value] : values) out << key << " " << value << "\n";
}

TEST(SessionLineage, EveryBuilderMatchesFixture) {
  const std::map<std::string, double> got = run_lineage();

  if (std::getenv("DECO_REGEN_GOLDEN") != nullptr) {
    write_golden(golden_path(), got);
    SUCCEED() << "regenerated " << golden_path();
    return;
  }

  const std::map<std::string, double> want = read_golden(golden_path());
  ASSERT_FALSE(want.empty())
      << "missing fixture " << golden_path()
      << " — run with DECO_REGEN_GOLDEN=1 to create it";
  ASSERT_EQ(got.size(), want.size()) << "lineage keys changed; regenerate";
  for (const auto& [key, expected] : want) {
    const auto it = got.find(key);
    ASSERT_NE(it, got.end()) << "lineage no longer produces " << key;
    const double tol = 1e-6 * std::max(1.0, std::abs(expected));
    EXPECT_NEAR(it->second, expected, tol) << "lineage drift in " << key;
  }
}

}  // namespace
}  // namespace deco
