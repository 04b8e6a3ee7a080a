// Property sweeps over the condensation stack: for every (ipc, classes)
// configuration and every condenser, one condense() call must preserve the
// buffer invariants (class balance, pixel range, inactive rows untouched)
// and be deterministic given the same seed.
#include <gtest/gtest.h>

#include <memory>
#include <type_traits>

#include "deco/condense/method.h"
#include "deco/data/world.h"
#include "test_util.h"

namespace deco::condense {
namespace {

struct SweepCase {
  int64_t ipc;
  int64_t num_classes;
  int64_t condenser;  // 0 = DECO, 1 = DC, 2 = DSA, 3 = DM
};
// gtest prints the parameter's raw bytes into each test name; with no padding
// those bytes, and so the names, are the same in every build.
static_assert(std::has_unique_object_representations_v<SweepCase>);

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  const char* names[] = {"DECO", "DC", "DSA", "DM"};
  return std::string(names[info.param.condenser]) + "_ipc" +
         std::to_string(info.param.ipc) + "_c" +
         std::to_string(info.param.num_classes);
}

nn::ConvNetConfig model_config(int64_t classes) {
  nn::ConvNetConfig cfg;
  cfg.in_channels = 3;
  cfg.image_h = cfg.image_w = 16;
  cfg.num_classes = classes;
  cfg.width = 8;
  cfg.depth = 2;
  return cfg;
}

std::unique_ptr<Condenser> make_condenser(const SweepCase& c, uint64_t seed) {
  const nn::ConvNetConfig mc = model_config(c.num_classes);
  switch (c.condenser) {
    case 0: {
      DecoCondenserConfig cfg;
      cfg.iterations = 2;
      return std::make_unique<DecoCondenser>(mc, cfg, seed);
    }
    case 1: {
      BilevelConfig cfg;
      cfg.outer_loops = 1;
      cfg.inner_epochs = 1;
      cfg.model_steps = 1;
      return std::make_unique<BilevelCondenser>(mc, cfg, seed);
    }
    case 2: {
      BilevelConfig cfg;
      cfg.outer_loops = 1;
      cfg.inner_epochs = 1;
      cfg.model_steps = 1;
      cfg.dsa_strategy = "flip_shift_scale_rotate_color_cutout";
      return std::make_unique<BilevelCondenser>(mc, cfg, seed);
    }
    default: {
      DmConfig cfg;
      cfg.iterations = 3;
      return std::make_unique<DmCondenser>(mc, cfg, seed);
    }
  }
}

class CondenserSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(CondenserSweep, PreservesBufferInvariants) {
  const SweepCase c = GetParam();
  data::DatasetSpec spec = data::icub1_spec();
  spec.num_classes = c.num_classes;
  data::ProceduralImageWorld world(spec, 3);
  data::Dataset labeled = world.make_labeled_set(3, 1);

  Rng rng(4);
  SyntheticBuffer buffer(c.num_classes, c.ipc, 3, 16, 16);
  buffer.init_from_dataset(labeled, rng);
  nn::ConvNet deployed(model_config(c.num_classes), rng);

  // Active classes: {0, 2}; real data from those classes.
  const std::vector<int64_t> active{0, 2};
  Tensor x_real({8, 3, 16, 16});
  std::vector<int64_t> y_real;
  std::vector<float> w_real;
  for (int64_t i = 0; i < 8; ++i) {
    const int64_t cls = i < 4 ? 0 : 2;
    Tensor img = world.render(cls, 0, 0, 50 + i);
    std::copy(img.data(), img.data() + img.numel(),
              x_real.data() + i * img.numel());
    y_real.push_back(cls);
    w_real.push_back(0.8f);
  }

  Tensor before = buffer.images();
  auto condenser = make_condenser(c, 11);
  CondenseContext ctx;
  ctx.buffer = &buffer;
  ctx.x_real = &x_real;
  ctx.y_real = &y_real;
  ctx.w_real = &w_real;
  ctx.active_classes = &active;
  ctx.deployed_model = &deployed;
  ctx.rng = &rng;
  condenser->condense(ctx);

  // Invariant 1: class balance is structural and untouched.
  EXPECT_EQ(buffer.size(), c.num_classes * c.ipc);
  for (int64_t cls = 0; cls < c.num_classes; ++cls)
    EXPECT_EQ(static_cast<int64_t>(buffer.rows_of_class(cls).size()), c.ipc);

  // Invariant 2: pixels remain valid sensor values.
  EXPECT_GE(buffer.images().min(), 0.0f);
  EXPECT_LE(buffer.images().max(), 1.0f);

  // Invariant 3: inactive classes' rows are bytewise untouched.
  const int64_t per = 3 * 16 * 16;
  for (int64_t r = 0; r < buffer.size(); ++r) {
    const int64_t cls = buffer.label(r);
    if (cls == 0 || cls == 2) continue;
    for (int64_t j = 0; j < per; ++j)
      ASSERT_EQ(before[r * per + j], buffer.images()[r * per + j])
          << condenser->name() << " moved inactive row " << r;
  }

  // Invariant 4: at least one active row moved (the condenser did work).
  float moved = 0.0f;
  for (int64_t cls : active)
    for (int64_t r : buffer.rows_of_class(cls))
      for (int64_t j = 0; j < per; ++j)
        moved += std::abs(before[r * per + j] - buffer.images()[r * per + j]);
  EXPECT_GT(moved, 0.0f) << condenser->name() << " was a no-op";
}

TEST_P(CondenserSweep, DeterministicGivenSeed) {
  const SweepCase c = GetParam();
  data::DatasetSpec spec = data::icub1_spec();
  spec.num_classes = c.num_classes;
  data::ProceduralImageWorld world(spec, 5);
  data::Dataset labeled = world.make_labeled_set(3, 1);

  auto run_once = [&]() {
    Rng rng(6);
    SyntheticBuffer buffer(c.num_classes, c.ipc, 3, 16, 16);
    buffer.init_from_dataset(labeled, rng);
    nn::ConvNet deployed(model_config(c.num_classes), rng);
    const std::vector<int64_t> active{1};
    Tensor x_real({4, 3, 16, 16});
    std::vector<int64_t> y_real(4, 1);
    for (int64_t i = 0; i < 4; ++i) {
      Tensor img = world.render(1, 0, 0, 10 + i);
      std::copy(img.data(), img.data() + img.numel(),
                x_real.data() + i * img.numel());
    }
    auto condenser = make_condenser(c, 21);
    CondenseContext ctx;
    ctx.buffer = &buffer;
    ctx.x_real = &x_real;
    ctx.y_real = &y_real;
    ctx.w_real = nullptr;
    ctx.active_classes = &active;
    ctx.deployed_model = &deployed;
    ctx.rng = &rng;
    condenser->condense(ctx);
    return buffer.images();
  };

  Tensor a = run_once();
  Tensor b = run_once();
  EXPECT_EQ(a.l1_distance(b), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CondenserSweep,
    ::testing::Values(SweepCase{1, 4, 0}, SweepCase{2, 4, 0}, SweepCase{5, 3, 0},
                      SweepCase{1, 4, 1}, SweepCase{2, 3, 1},
                      SweepCase{2, 4, 2}, SweepCase{1, 3, 2},
                      SweepCase{1, 4, 3}, SweepCase{5, 3, 3}),
    case_name);

}  // namespace
}  // namespace deco::condense
