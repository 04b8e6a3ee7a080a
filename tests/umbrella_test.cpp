// Smoke test of the umbrella header: everything compiles from one include and
// the primary types are usable together. Also the home of a few cross-module
// integration checks that don't belong to any single module's test file.
#include "deco/deco.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace deco {
namespace {

TEST(UmbrellaTest, PrimaryTypesInstantiate) {
  Rng rng(1);
  nn::ConvNetConfig mc;
  mc.in_channels = 3;
  mc.image_h = mc.image_w = 16;
  mc.num_classes = 10;
  mc.width = 8;
  mc.depth = 2;
  nn::ConvNet model(mc, rng);
  condense::SyntheticBuffer buffer(10, 1, 3, 16, 16);
  data::ProceduralImageWorld world(data::icub1_spec(), 2);
  augment::SiameseAugment aug("flip");
  eval::RunningStats stats;
  stats.add(1.0);
  EXPECT_EQ(stats.count(), 1);
  EXPECT_EQ(buffer.size(), 10);
  EXPECT_GT(model.num_params(), 0);
}

TEST(UmbrellaTest, CheckpointRoundTripThroughStreamedLearner) {
  // Cross-module integration: stream a little, checkpoint model AND buffer,
  // reload both into fresh objects, and verify identical predictions —
  // the power-cycle scenario of a deployed device.
  Rng rng(3);
  nn::ConvNetConfig mc;
  mc.in_channels = 3;
  mc.image_h = mc.image_w = 16;
  mc.num_classes = 10;
  mc.width = 8;
  mc.depth = 2;
  nn::ConvNet model(mc, rng);
  data::ProceduralImageWorld world(data::core50_spec(), 4);
  data::Dataset labeled = world.make_labeled_set(3, 1);

  core::DecoConfig cfg;
  cfg.ipc = 2;
  cfg.beta = 2;
  cfg.model_update_epochs = 2;
  cfg.condenser.iterations = 1;
  core::DecoLearner learner(model, cfg, 5);
  learner.init_buffer_from(labeled);

  data::StreamConfig sc;
  sc.stc = 8;
  sc.segment_size = 8;
  sc.total_segments = 2;
  data::TemporalStream stream(world, sc, 6);
  data::Segment seg;
  while (stream.next(seg)) learner.observe_segment(seg.images);

  const std::string model_path = deco::testing::unique_temp_path("power_cycle.ckpt");
  const std::string buffer_path = deco::testing::unique_temp_path("buffer.tensor");
  nn::save_checkpoint(model_path, model);
  save_tensor(buffer_path, learner.buffer().images());

  // "Reboot": fresh model + buffer restored from flash.
  Rng rng2(99);
  nn::ConvNet revived(mc, rng2);
  nn::load_checkpoint(model_path, revived);
  Tensor buffer_images = load_tensor(buffer_path);

  data::Dataset test = world.make_test_set(5, 7);
  std::vector<int64_t> idx;
  for (int64_t i = 0; i < test.size(); ++i) idx.push_back(i);
  Tensor a = model.forward(test.batch(idx));
  Tensor b = revived.forward(test.batch(idx));
  EXPECT_LT(a.l1_distance(b), 1e-5f);
  EXPECT_EQ(buffer_images.l1_distance(learner.buffer().images()), 0.0f);

  std::remove(model_path.c_str());
  std::remove(buffer_path.c_str());
}

TEST(UmbrellaTest, ForgettingTrackerOverAStream) {
  // The forgetting metric consumes per-class accuracy snapshots from a
  // streamed learner; verify the plumbing end to end (values are world-
  // dependent, the contract is shape + boundedness).
  Rng rng(8);
  nn::ConvNetConfig mc;
  mc.in_channels = 3;
  mc.image_h = mc.image_w = 16;
  mc.num_classes = 10;
  mc.width = 8;
  mc.depth = 2;
  nn::ConvNet model(mc, rng);
  data::ProceduralImageWorld world(data::core50_spec(), 9);
  data::Dataset labeled = world.make_labeled_set(4, 1);
  data::Dataset test = world.make_test_set(6, 2);

  std::vector<int64_t> all(static_cast<size_t>(labeled.size()));
  for (int64_t i = 0; i < labeled.size(); ++i) all[static_cast<size_t>(i)] = i;
  core::train_classifier(model, labeled.batch(all), labeled.labels(), 10,
                         1e-3f, 5e-4f, 32, rng);

  core::DecoConfig cfg;
  cfg.ipc = 1;
  cfg.beta = 1;
  cfg.model_update_epochs = 2;
  cfg.condenser.iterations = 1;
  core::DecoLearner learner(model, cfg, 10);
  learner.init_buffer_from(labeled);

  eval::ForgettingTracker tracker;
  tracker.record(eval::per_class_accuracy(model, test));

  data::StreamConfig sc;
  sc.stc = 8;
  sc.segment_size = 8;
  sc.total_segments = 3;
  data::TemporalStream stream(world, sc, 11);
  data::Segment seg;
  while (stream.next(seg)) {
    learner.observe_segment(seg.images);
    tracker.record(eval::per_class_accuracy(model, test));
  }
  EXPECT_EQ(tracker.snapshots(), 4);
  const float f = tracker.mean_forgetting();
  EXPECT_GE(f, 0.0f);
  EXPECT_LE(f, 100.0f);
  EXPECT_EQ(tracker.per_class_forgetting().size(), 10u);
}

}  // namespace
}  // namespace deco
