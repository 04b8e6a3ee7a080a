#include "deco/condense/method.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>

#include "deco/core/telemetry.h"
#include "deco/data/world.h"
#include "deco/tensor/check.h"
#include "test_util.h"

namespace deco::condense {
namespace {

nn::ConvNetConfig small_config() {
  nn::ConvNetConfig cfg;
  cfg.in_channels = 3;
  cfg.image_h = cfg.image_w = 16;
  cfg.num_classes = 4;
  cfg.width = 8;
  cfg.depth = 2;
  return cfg;
}

struct Fixture {
  Fixture()
      : rng(1),
        model(small_config(), rng),
        buffer(4, 2, 3, 16, 16),
        world(make_spec(), 7) {
    data::Dataset labeled = world.make_labeled_set(3, 1);
    buffer.init_from_dataset(labeled, rng);

    // A segment of "real" data: two active classes.
    x_real = Tensor({8, 3, 16, 16});
    for (int64_t i = 0; i < 8; ++i) {
      const int64_t cls = i < 4 ? 0 : 2;
      Tensor img = world.render(cls, 0, 0, 100 + i);
      std::copy(img.data(), img.data() + img.numel(),
                x_real.data() + i * img.numel());
      y_real.push_back(cls);
      w_real.push_back(0.9f);
    }
    active = {0, 2};
  }

  static data::DatasetSpec make_spec() {
    data::DatasetSpec s = data::icub1_spec();
    s.num_classes = 4;
    return s;
  }

  CondenseContext context() {
    CondenseContext ctx;
    ctx.buffer = &buffer;
    ctx.x_real = &x_real;
    ctx.y_real = &y_real;
    ctx.w_real = &w_real;
    ctx.active_classes = &active;
    ctx.deployed_model = &model;
    ctx.rng = &rng;
    return ctx;
  }

  Rng rng;
  nn::ConvNet model;
  SyntheticBuffer buffer;
  data::ProceduralImageWorld world;
  Tensor x_real;
  std::vector<int64_t> y_real;
  std::vector<float> w_real;
  std::vector<int64_t> active;
};

TEST(DecoCondenserTest, UpdatesOnlyActiveRowsAndContrastiveNeighbors) {
  Fixture f;
  DecoCondenserConfig cfg;
  cfg.iterations = 2;
  cfg.feature_discrimination = false;  // isolate matching: actives only
  DecoCondenser cond(small_config(), cfg, 11);

  Tensor before = f.buffer.images();
  auto ctx = f.context();
  cond.condense(ctx);
  Tensor after = f.buffer.images();

  const int64_t per = 3 * 16 * 16;
  for (int64_t r = 0; r < f.buffer.size(); ++r) {
    Tensor b({per}), a({per});
    std::copy(before.data() + r * per, before.data() + (r + 1) * per, b.data());
    std::copy(after.data() + r * per, after.data() + (r + 1) * per, a.data());
    const bool is_active = f.buffer.label(r) == 0 || f.buffer.label(r) == 2;
    if (is_active) {
      EXPECT_GT(b.l1_distance(a), 0.0f) << "active row " << r << " unchanged";
    } else {
      EXPECT_EQ(b.l1_distance(a), 0.0f) << "inactive row " << r << " changed";
    }
  }
  EXPECT_EQ(cond.last_distances().size(), 2u);
}

TEST(DecoCondenserTest, PixelsStayInUnitRange) {
  Fixture f;
  DecoCondenserConfig cfg;
  cfg.iterations = 3;
  DecoCondenser cond(small_config(), cfg, 12);
  auto ctx = f.context();
  cond.condense(ctx);
  EXPECT_GE(f.buffer.images().min(), 0.0f);
  EXPECT_LE(f.buffer.images().max(), 1.0f);
}

TEST(DecoCondenserTest, FeatureDiscriminationTouchesNegativeRows) {
  Fixture f;
  DecoCondenserConfig cfg;
  cfg.iterations = 4;
  cfg.feature_discrimination = true;
  cfg.alpha = 0.5f;
  DecoCondenser cond(small_config(), cfg, 13);
  Tensor before = f.buffer.images();
  auto ctx = f.context();
  cond.condense(ctx);
  // With discrimination on, at least some rows outside the active classes may
  // move (sampled negatives). At minimum the update must not corrupt balance.
  EXPECT_EQ(f.buffer.size(), 8);
  EXPECT_GE(f.buffer.images().min(), 0.0f);
  EXPECT_LE(f.buffer.images().max(), 1.0f);
}

TEST(DecoCondenserTest, NoActiveClassesIsNoOp) {
  Fixture f;
  DecoCondenserConfig cfg;
  DecoCondenser cond(small_config(), cfg, 14);
  f.active.clear();
  Tensor before = f.buffer.images();
  auto ctx = f.context();
  cond.condense(ctx);
  EXPECT_EQ(before.l1_distance(f.buffer.images()), 0.0f);
}

TEST(DecoCondenserTest, MatchingDistanceTrendsDownWithinCall) {
  // With a FIXED random model across the call's iterations (the ablation
  // switch), the matching loss trace is directly comparable step to step and
  // must decrease from first to last iteration. (With per-iteration model
  // re-randomization — the DECO default — each distance is measured under a
  // different model, so that trace is not monotone by construction.)
  Fixture f;
  DecoCondenserConfig cfg;
  cfg.iterations = 8;
  cfg.feature_discrimination = false;
  cfg.rerandomize_each_iteration = false;
  cfg.lr_syn = 0.05f;
  DecoCondenser cond(small_config(), cfg, 15);
  double first = 0.0, last = 0.0;
  for (int rep = 0; rep < 4; ++rep) {
    auto ctx = f.context();
    cond.condense(ctx);
    first += cond.last_distances().front();
    last += cond.last_distances().back();
  }
  EXPECT_LT(last, first);
}

TEST(BilevelCondenserTest, DcRunsAndChangesActiveRows) {
  Fixture f;
  BilevelConfig cfg;
  cfg.outer_loops = 1;
  cfg.inner_epochs = 2;
  cfg.model_steps = 1;
  BilevelCondenser cond(small_config(), cfg, 16);
  EXPECT_EQ(cond.name(), "DC");
  Tensor before = f.buffer.images();
  auto ctx = f.context();
  cond.condense(ctx);
  EXPECT_GT(before.l1_distance(f.buffer.images()), 0.0f);
  EXPECT_GE(f.buffer.images().min(), 0.0f);
  EXPECT_LE(f.buffer.images().max(), 1.0f);
}

TEST(BilevelCondenserTest, DsaUsesAugmentation) {
  Fixture f;
  BilevelConfig cfg;
  cfg.outer_loops = 1;
  cfg.inner_epochs = 2;
  cfg.model_steps = 1;
  cfg.dsa_strategy = "flip_shift_scale_rotate_color_cutout";
  BilevelCondenser cond(small_config(), cfg, 17);
  EXPECT_EQ(cond.name(), "DSA");
  auto ctx = f.context();
  cond.condense(ctx);
  EXPECT_GE(f.buffer.images().min(), 0.0f);
}

TEST(DmCondenserTest, MovesSyntheticTowardClassMeans) {
  Fixture f;
  DmConfig cfg;
  cfg.iterations = 5;
  DmCondenser cond(small_config(), cfg, 18);
  EXPECT_EQ(cond.name(), "DM");
  Tensor before = f.buffer.images();
  auto ctx = f.context();
  cond.condense(ctx);
  EXPECT_GT(before.l1_distance(f.buffer.images()), 0.0f);
}

TEST(CondenserTimingTest, DecoIsMuchFasterThanDc) {
  // Table II's core claim: one-step DECO ≈ 10× faster than bilevel DC at the
  // paper's settings (L=10 vs K·T matching steps + inner model training).
  // Each condenser runs 3 times, alternating, each on a fresh fixture; the
  // fastest run of each is compared, so a load spike on the host during one
  // run cannot decide the verdict.
  auto time_it = [](Condenser& c) {
    Fixture f;
    auto ctx = f.context();
    const auto t0 = std::chrono::steady_clock::now();
    c.condense(ctx);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  DecoCondenserConfig dcfg;
  dcfg.iterations = 10;
  dcfg.feature_discrimination = false;
  DecoCondenser deco(small_config(), dcfg, 19);
  BilevelConfig bcfg;  // paper-like: 2 outer × 10 inner + model steps
  BilevelCondenser dc(small_config(), bcfg, 20);
  double t_deco = std::numeric_limits<double>::infinity();
  double t_dc = t_deco;
  for (int run = 0; run < 3; ++run) {
    t_deco = std::min(t_deco, time_it(deco));
    t_dc = std::min(t_dc, time_it(dc));
  }
  EXPECT_GT(t_dc, 2.0 * t_deco)  // conservative bound for CI noise
      << "fastest of 3: deco " << t_deco << " s, dc " << t_dc << " s";
}

TEST(CondenserTimingTest, DecoDoesFarFewerGemmFlopsThanDc) {
  // The same comparison as DecoIsMuchFasterThanDc, costed by the gemm/flops
  // counter instead of the wall clock: the count is a function of the
  // shapes alone, so a loaded host cannot move it.
#if !DECO_TELEMETRY_COMPILED
  GTEST_SKIP() << "telemetry compiled out (-DDECO_TELEMETRY=OFF)";
#endif
  namespace telem = core::telemetry;
  const bool was_enabled = telem::enabled();
  telem::set_enabled(true);
  Fixture f;
  auto flops_of = [&](Condenser& c) {
    auto ctx = f.context();
    const int64_t before = telem::snapshot().counter_value("gemm/flops");
    c.condense(ctx);
    return telem::snapshot().counter_value("gemm/flops") - before;
  };
  DecoCondenserConfig dcfg;
  dcfg.iterations = 10;
  dcfg.feature_discrimination = false;
  DecoCondenser deco(small_config(), dcfg, 19);
  BilevelConfig bcfg;
  BilevelCondenser dc(small_config(), bcfg, 20);
  const int64_t deco_flops = flops_of(deco);
  const int64_t dc_flops = flops_of(dc);
  telem::set_enabled(was_enabled);
  // Both counts go into the test's XML properties (--gtest_output=xml), so
  // a kernel change can show they did not move.
  RecordProperty("deco_gemm_flops", std::to_string(deco_flops));
  RecordProperty("dc_gemm_flops", std::to_string(dc_flops));
  // DC spends 5.4× DECO's flops here. The count does not vary between
  // runs, so the bound can sit closer to it than the wall-clock test's 2×.
  EXPECT_GT(deco_flops, 0);
  EXPECT_GT(dc_flops, 4 * deco_flops)
      << "deco " << deco_flops << " dc " << dc_flops;
}

TEST(CondenserValidationTest, MissingContextPiecesThrow) {
  Fixture f;
  DecoCondenserConfig cfg;
  DecoCondenser cond(small_config(), cfg, 21);
  CondenseContext ctx;  // everything null
  EXPECT_THROW(cond.condense(ctx), Error);
  ctx = f.context();
  ctx.buffer = nullptr;
  EXPECT_THROW(cond.condense(ctx), Error);
}

}  // namespace
}  // namespace deco::condense
