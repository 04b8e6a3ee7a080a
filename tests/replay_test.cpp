#include "deco/baselines/replay.h"

#include <gtest/gtest.h>

#include "deco/data/stream.h"
#include "deco/data/world.h"
#include "deco/tensor/check.h"
#include "test_util.h"

namespace deco::baselines {
namespace {

StoredSample make_sample(float value, int64_t label, float confidence,
                         int64_t arrival) {
  StoredSample s;
  s.image = Tensor::full({1, 2, 2}, value);
  s.label = label;
  s.confidence = confidence;
  s.arrival = arrival;
  return s;
}

StoredSample with_feature(StoredSample s, std::vector<float> feat) {
  const int64_t n = static_cast<int64_t>(feat.size());
  s.feature = Tensor({n}, std::move(feat));
  return s;
}

StoredSample with_gradient(StoredSample s, std::vector<float> grad) {
  const int64_t n = static_cast<int64_t>(grad.size());
  s.gradient = Tensor({n}, std::move(grad));
  return s;
}

TEST(ReplayBufferTest, FillsUpToIpcPerClass) {
  ReplayBuffer buf(3, 2, Strategy::kFifo);
  Rng rng(1);
  for (int i = 0; i < 10; ++i)
    buf.offer(make_sample(0.1f * i, i % 3, 0.5f, i), rng);
  EXPECT_EQ(buf.size(), 6);
  for (int64_t c = 0; c < 3; ++c)
    EXPECT_EQ(buf.slot(c).size(), 2u);
}

TEST(ReplayBufferTest, FifoEvictsOldest) {
  ReplayBuffer buf(1, 2, Strategy::kFifo);
  Rng rng(2);
  buf.offer(make_sample(1.0f, 0, 0.5f, /*arrival=*/1), rng);
  buf.offer(make_sample(2.0f, 0, 0.5f, 2), rng);
  buf.offer(make_sample(3.0f, 0, 0.5f, 3), rng);
  // arrival 1 must be gone; 2 and 3 must remain.
  std::vector<int64_t> arrivals;
  for (const auto& s : buf.slot(0)) arrivals.push_back(s.arrival);
  std::sort(arrivals.begin(), arrivals.end());
  EXPECT_EQ(arrivals, (std::vector<int64_t>{2, 3}));
}

TEST(ReplayBufferTest, SelectiveBpKeepsLowConfidence) {
  ReplayBuffer buf(1, 2, Strategy::kSelectiveBp);
  Rng rng(3);
  buf.offer(make_sample(1.0f, 0, 0.9f, 1), rng);
  buf.offer(make_sample(2.0f, 0, 0.8f, 2), rng);
  // Lower confidence than the most confident stored (0.9) → replaces it.
  buf.offer(make_sample(3.0f, 0, 0.3f, 3), rng);
  float max_conf = 0.0f;
  for (const auto& s : buf.slot(0)) max_conf = std::max(max_conf, s.confidence);
  EXPECT_LE(max_conf, 0.8f);
  // Higher confidence than everything stored → rejected.
  buf.offer(make_sample(4.0f, 0, 0.99f, 4), rng);
  for (const auto& s : buf.slot(0)) EXPECT_NE(s.confidence, 0.99f);
}

TEST(ReplayBufferTest, RandomReservoirIsUnbiasedIsh) {
  // Offer 100 samples into a 10-slot reservoir many times; each sample index
  // should be retained with roughly equal frequency (reservoir property).
  const int kTrials = 200;
  std::vector<int> kept(100, 0);
  for (int t = 0; t < kTrials; ++t) {
    ReplayBuffer buf(1, 10, Strategy::kRandom);
    Rng rng(100 + t);
    for (int i = 0; i < 100; ++i)
      buf.offer(make_sample(static_cast<float>(i), 0, 0.5f, i), rng);
    for (const auto& s : buf.slot(0)) ++kept[static_cast<size_t>(s.arrival)];
  }
  // Expected keep count per index ≈ kTrials·10/100 = 20. First and last
  // decile should both be within a loose band around that.
  int early = 0, late = 0;
  for (int i = 0; i < 10; ++i) early += kept[static_cast<size_t>(i)];
  for (int i = 90; i < 100; ++i) late += kept[static_cast<size_t>(i)];
  EXPECT_GT(early, 100);
  EXPECT_LT(early, 300);
  EXPECT_GT(late, 100);
  EXPECT_LT(late, 300);
}

TEST(ReplayBufferTest, KCenterKeepsCoverage) {
  ReplayBuffer buf(1, 2, Strategy::kKCenter);
  Rng rng(4);
  // Two clusters far apart plus a duplicate of cluster A; coverage keeps one
  // point from each cluster.
  buf.offer(with_feature(make_sample(1, 0, 0.5f, 1), {0.0f, 0.0f}), rng);
  buf.offer(with_feature(make_sample(2, 0, 0.5f, 2), {0.1f, 0.0f}), rng);
  buf.offer(with_feature(make_sample(3, 0, 0.5f, 3), {10.0f, 0.0f}), rng);
  bool has_far = false;
  for (const auto& s : buf.slot(0))
    if (s.feature[0] > 5.0f) has_far = true;
  EXPECT_TRUE(has_far) << "k-center must cover the distant cluster";
}

TEST(ReplayBufferTest, GssPrefersDiverseGradients) {
  ReplayBuffer buf(1, 2, Strategy::kGssGreedy);
  Rng rng(5);
  // Two nearly identical gradients stored; a new orthogonal gradient should
  // displace one of the redundant pair.
  buf.offer(with_gradient(make_sample(1, 0, 0.5f, 1), {1.0f, 0.0f}), rng);
  buf.offer(with_gradient(make_sample(2, 0, 0.5f, 2), {0.99f, 0.01f}), rng);
  buf.offer(with_gradient(make_sample(3, 0, 0.5f, 3), {0.0f, 1.0f}), rng);
  bool has_orthogonal = false;
  for (const auto& s : buf.slot(0))
    if (s.gradient[1] > 0.5f) has_orthogonal = true;
  EXPECT_TRUE(has_orthogonal);
  // Conversely, a redundant newcomer must be rejected.
  buf.offer(with_gradient(make_sample(4, 0, 0.5f, 4), {1.0f, 0.001f}), rng);
  int near_x = 0;
  for (const auto& s : buf.slot(0))
    if (s.gradient[0] > 0.5f) ++near_x;
  EXPECT_EQ(near_x, 1);
}

TEST(ReplayBufferTest, AllImagesAndLabelsFlatten) {
  ReplayBuffer buf(2, 2, Strategy::kFifo);
  Rng rng(6);
  buf.offer(make_sample(1, 0, 0.5f, 1), rng);
  buf.offer(make_sample(2, 1, 0.5f, 2), rng);
  buf.offer(make_sample(3, 1, 0.5f, 3), rng);
  Tensor imgs = buf.all_images();
  EXPECT_EQ(imgs.dim(0), 3);
  auto labels = buf.all_labels();
  std::sort(labels.begin(), labels.end());
  EXPECT_EQ(labels, (std::vector<int64_t>{0, 1, 1}));
}

TEST(ReplayBufferTest, RejectsBadLabel) {
  ReplayBuffer buf(2, 2, Strategy::kFifo);
  Rng rng(7);
  EXPECT_THROW(buf.offer(make_sample(1, 5, 0.5f, 1), rng), Error);
}

TEST(StrategyNameTest, RoundTrip) {
  for (Strategy s : {Strategy::kRandom, Strategy::kFifo, Strategy::kSelectiveBp,
                     Strategy::kKCenter, Strategy::kGssGreedy}) {
    EXPECT_EQ(strategy_from_name(strategy_name(s)), s);
  }
  EXPECT_THROW(strategy_from_name("nope"), Error);
}

TEST(BaselineLearnerTest, ObserveSegmentMaintainsBudget) {
  Rng rng(8);
  nn::ConvNetConfig cfg;
  cfg.in_channels = 3;
  cfg.image_h = cfg.image_w = 16;
  cfg.num_classes = 10;
  cfg.width = 8;
  cfg.depth = 2;
  nn::ConvNet model(cfg, rng);

  data::ProceduralImageWorld world(data::core50_spec(), 9);
  data::Dataset labeled = world.make_labeled_set(3, 1);

  for (auto strat : {Strategy::kRandom, Strategy::kFifo, Strategy::kSelectiveBp,
                     Strategy::kKCenter, Strategy::kGssGreedy}) {
    core::LearnerConfig bc;
    bc.ipc = 2;
    bc.beta = 100;  // no model updates in this test
    BaselineLearner learner(model, strat, bc, 10);
    learner.init_buffer_from(labeled);
    EXPECT_LE(learner.buffer().size(), 20);

    data::StreamConfig sc;
    sc.segment_size = 16;
    sc.total_segments = 2;
    data::TemporalStream stream(world, sc, 11);
    data::Segment seg;
    while (stream.next(seg)) {
      auto rep = learner.observe_segment(seg.images);
      EXPECT_EQ(rep.pseudo_labels.size(), 16u);
    }
    // Buffer never exceeds ipc per class.
    for (int64_t c = 0; c < 10; ++c)
      EXPECT_LE(learner.buffer().slot(c).size(), 2u);
  }
}

TEST(UnlimitedLearnerTest, StoresEverything) {
  Rng rng(12);
  nn::ConvNetConfig cfg;
  cfg.in_channels = 3;
  cfg.image_h = cfg.image_w = 16;
  cfg.num_classes = 10;
  cfg.width = 8;
  cfg.depth = 2;
  nn::ConvNet model(cfg, rng);
  data::ProceduralImageWorld world(data::core50_spec(), 13);
  data::Dataset labeled = world.make_labeled_set(2, 1);

  core::LearnerConfig bc;
  bc.beta = 100;
  UnlimitedLearner learner(model, bc, 14);
  learner.init_buffer_from(labeled);
  EXPECT_EQ(learner.stored(), 20);

  data::StreamConfig sc;
  sc.segment_size = 8;
  sc.total_segments = 3;
  data::TemporalStream stream(world, sc, 15);
  data::Segment seg;
  while (stream.next(seg)) learner.observe_segment(seg.images);
  EXPECT_EQ(learner.stored(), 20 + 24);
}

TEST(BaselineLearnerTest, OutOfRangeScheduleFailsAtConstruction) {
  // A zero beta would reach `segments_seen_ % beta` on the first segment;
  // both replay learners validate their config up front.
  Rng rng(16);
  nn::ConvNetConfig cfg;
  cfg.in_channels = 3;
  cfg.image_h = cfg.image_w = 16;
  cfg.num_classes = 10;
  cfg.width = 8;
  cfg.depth = 2;
  nn::ConvNet model(cfg, rng);
  core::LearnerConfig zero_beta, zero_ipc, zero_batch;
  zero_beta.beta = 0;
  zero_ipc.ipc = 0;
  zero_batch.train_batch = 0;
  for (const core::LearnerConfig& bad : {zero_beta, zero_ipc, zero_batch}) {
    EXPECT_THROW(BaselineLearner(model, Strategy::kFifo, bad, 17), Error);
    EXPECT_THROW(UnlimitedLearner(model, bad, 18), Error);
  }
}

}  // namespace
}  // namespace deco::baselines
