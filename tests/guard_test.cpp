#include "deco/core/guard.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "deco/core/learner.h"
#include "deco/data/faults.h"
#include "deco/data/stream.h"
#include "deco/data/world.h"
#include "deco/nn/convnet.h"
#include "deco/tensor/check.h"
#include "test_util.h"

namespace deco::core {
namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

TEST(GuardConfigTest, RejectsBadKnobs) {
  GuardConfig cfg;
  cfg.max_grad_norm = -1.0f;
  EXPECT_THROW(cfg.validate(), Error);

  cfg = GuardConfig{};
  cfg.backoff = 0.0f;
  EXPECT_THROW(cfg.validate(), Error);

  cfg = GuardConfig{};
  cfg.backoff = 1.5f;
  EXPECT_THROW(cfg.validate(), Error);
}

TEST(GuardTest, FiniteHelpers) {
  Tensor t({4});
  t.fill(1.0f);
  EXPECT_TRUE(all_finite(t));
  EXPECT_EQ(count_nonfinite(t), 0);
  t.data()[1] = kNan;
  t.data()[3] = kInf;
  EXPECT_FALSE(all_finite(t));
  EXPECT_EQ(count_nonfinite(t), 2);
}

TEST(GuardTest, ScreenFramesQuarantinesNonFinite) {
  NumericGuard guard{GuardConfig{}};
  Tensor images({4, 1, 2, 2});
  images.fill(0.5f);
  images.data()[1 * 4 + 2] = kNan;   // frame 1
  images.data()[3 * 4 + 0] = -kInf;  // frame 3

  const std::vector<int64_t> finite = guard.screen_frames(images);
  EXPECT_EQ(finite, (std::vector<int64_t>{0, 2}));
  EXPECT_EQ(guard.stats().frames_quarantined, 2);
}

TEST(GuardTest, AdmitLossSkipsNonFinite) {
  NumericGuard guard{GuardConfig{}};
  EXPECT_TRUE(guard.admit_loss(0.7f));
  EXPECT_FALSE(guard.admit_loss(kNan));
  EXPECT_FALSE(guard.admit_loss(kInf));
  EXPECT_EQ(guard.stats().batches_skipped, 2);
}

TEST(GuardTest, AdmitGradientsSkipsNonFiniteAndClips) {
  Rng rng(1);
  nn::ConvNetConfig cfg;
  cfg.in_channels = 1;
  cfg.image_h = cfg.image_w = 8;
  cfg.num_classes = 2;
  cfg.width = 4;
  cfg.depth = 1;
  nn::ConvNet model(cfg, rng);

  GuardConfig gc;
  gc.max_grad_norm = 1.0f;
  NumericGuard guard{gc};

  // Non-finite gradient → batch rejected.
  auto params = model.parameters();
  for (auto& p : params) p.grad->fill(0.0f);
  params[0].grad->data()[0] = kNan;
  EXPECT_FALSE(guard.admit_gradients(model.parameters()));
  EXPECT_EQ(guard.stats().batches_skipped, 1);

  // Oversized but finite gradient → clipped to the configured global norm.
  for (auto& p : model.parameters()) p.grad->fill(1.0f);
  EXPECT_TRUE(guard.admit_gradients(model.parameters()));
  EXPECT_EQ(guard.stats().grads_clipped, 1);
  double sq = 0.0;
  for (const auto& p : model.parameters())
    sq += static_cast<double>(p.grad->squared_norm());
  EXPECT_NEAR(std::sqrt(sq), 1.0, 1e-4);

  // An in-range gradient passes untouched.
  for (auto& p : model.parameters()) p.grad->fill(0.0f);
  model.parameters()[0].grad->data()[0] = 0.5f;
  EXPECT_TRUE(guard.admit_gradients(model.parameters()));
  EXPECT_EQ(guard.stats().grads_clipped, 1);  // unchanged
  EXPECT_EQ(model.parameters()[0].grad->data()[0], 0.5f);
}

// The ISSUE's acceptance scenario: a full DECO run over a stream with ~5%
// corrupt frames plus NaN bursts must complete without throwing, quarantine
// at least one frame, and leave the buffer finite in [0, 1].
TEST(GuardIntegrationTest, FaultyStreamRunCompletesWithFiniteBuffer) {
  data::ProceduralImageWorld world(data::icub1_spec(), 30);
  data::Dataset labeled = world.make_labeled_set(3, 1);
  Rng mr(31);
  nn::ConvNetConfig mc;
  mc.in_channels = world.spec().channels;
  mc.image_h = world.spec().height;
  mc.image_w = world.spec().width;
  mc.num_classes = world.spec().num_classes;
  mc.width = 8;
  mc.depth = 2;
  nn::ConvNet model(mc, mr);

  DecoConfig cfg;
  cfg.ipc = 2;
  cfg.beta = 2;
  cfg.model_update_epochs = 2;
  cfg.condenser.iterations = 2;
  DecoLearner learner(model, cfg, 32);
  learner.init_buffer_from(labeled);

  data::StreamConfig sc;
  sc.stc = 8;
  sc.segment_size = 16;
  sc.total_segments = 6;
  data::TemporalStream inner(world, sc, 33);
  data::FaultConfig fc;
  fc.nan_burst_rate = 0.3;  // heavy non-finite corruption
  fc.inf_burst_rate = 0.1;
  fc.salt_pepper_rate = 0.02;
  fc.drop_frame_rate = 0.05;
  data::FaultyStream faulty(inner, fc, 34);

  data::Segment seg;
  int64_t quarantined = 0;
  while (faulty.next(seg)) {
    SegmentReport rep = learner.observe_segment(seg.images);
    ASSERT_EQ(rep.pseudo_labels.size(),
              static_cast<size_t>(seg.images.dim(0)));
    quarantined += rep.frames_quarantined;
    // Quarantined frames report the sentinel label and zero confidence.
    for (size_t i = 0; i < rep.pseudo_labels.size(); ++i) {
      if (rep.pseudo_labels[i] == -1) {
        EXPECT_EQ(rep.confidences[i], 0.0f);
      }
    }
  }
  EXPECT_GT(faulty.log().nan_bursts, 0);
  EXPECT_GT(quarantined, 0);
  EXPECT_EQ(quarantined, learner.guard().stats().frames_quarantined);

  // The buffer — the device's distilled memory — stayed clean.
  const Tensor& buf = learner.buffer().images();
  EXPECT_TRUE(all_finite(buf));
  EXPECT_GE(buf.min(), 0.0f);
  EXPECT_LE(buf.max(), 1.0f);
  // And the model still produces finite logits.
  EXPECT_TRUE(all_finite(learner.model().forward(labeled.batch({0, 1}))));
}

// With guards disabled the same faulty stream must still not crash (NaNs
// propagate, accuracy degrades — measured in bench/fault_tolerance.cpp).
TEST(GuardIntegrationTest, UnguardedFaultyRunDoesNotThrow) {
  data::ProceduralImageWorld world(data::icub1_spec(), 40);
  data::Dataset labeled = world.make_labeled_set(2, 1);
  Rng mr(41);
  nn::ConvNetConfig mc;
  mc.in_channels = world.spec().channels;
  mc.image_h = world.spec().height;
  mc.image_w = world.spec().width;
  mc.num_classes = world.spec().num_classes;
  mc.width = 4;
  mc.depth = 1;
  nn::ConvNet model(mc, mr);

  DecoConfig cfg;
  cfg.ipc = 1;
  cfg.beta = 2;
  cfg.model_update_epochs = 1;
  cfg.condenser.iterations = 1;
  cfg.guard.enabled = false;
  DecoLearner learner(model, cfg, 42);
  learner.init_buffer_from(labeled);

  data::StreamConfig sc;
  sc.stc = 8;
  sc.segment_size = 8;
  sc.total_segments = 4;
  data::TemporalStream inner(world, sc, 43);
  data::FaultConfig fc;
  fc.nan_burst_rate = 0.2;
  data::FaultyStream faulty(inner, fc, 44);

  data::Segment seg;
  while (faulty.next(seg)) {
    SegmentReport rep = learner.observe_segment(seg.images);
    EXPECT_EQ(rep.frames_quarantined, 0);  // guards off: nothing quarantined
  }
}

TEST(GuardTest, DistanceHealthHonorsThreshold) {
  GuardConfig gc;
  gc.max_condense_distance = 10.0f;
  NumericGuard guard{gc};
  EXPECT_TRUE(guard.distance_healthy(9.9f));
  EXPECT_FALSE(guard.distance_healthy(10.1f));
  EXPECT_FALSE(guard.distance_healthy(kNan));
  EXPECT_FALSE(guard.distance_healthy(kInf));

  gc.max_condense_distance = 0.0f;  // threshold disabled: only finiteness
  NumericGuard open{gc};
  EXPECT_TRUE(open.distance_healthy(1e30f));
  EXPECT_FALSE(open.distance_healthy(kNan));
}

}  // namespace
}  // namespace deco::core
