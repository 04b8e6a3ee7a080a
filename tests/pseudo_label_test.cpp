#include "deco/core/pseudo_label.h"

#include <gtest/gtest.h>

#include "deco/tensor/check.h"
#include "test_util.h"

namespace deco::core {
namespace {

TEST(MajorityVoteTest, SingleDominantClass) {
  // 7 of 8 predictions are class 2 → only class 2 active at m = 0.4.
  std::vector<int64_t> labels{2, 2, 2, 2, 2, 2, 2, 5};
  auto active = majority_vote(labels, 10, 0.4f);
  EXPECT_EQ(active, (std::vector<int64_t>{2}));
}

TEST(MajorityVoteTest, ThresholdZeroKeepsEveryPredictedClass) {
  std::vector<int64_t> labels{1, 3, 3, 7};
  auto active = majority_vote(labels, 10, 0.0f);
  EXPECT_EQ(active, (std::vector<int64_t>{1, 3, 7}));
}

TEST(MajorityVoteTest, ThresholdIsStrict) {
  // Exactly 50% must NOT pass a 0.5 threshold (Eq. 2 uses strict >).
  std::vector<int64_t> labels{0, 0, 1, 1};
  auto active = majority_vote(labels, 2, 0.5f);
  EXPECT_TRUE(active.empty());
}

TEST(MajorityVoteTest, HighThresholdCanRejectAll) {
  std::vector<int64_t> labels{0, 1, 2, 3};
  auto active = majority_vote(labels, 4, 0.4f);
  EXPECT_TRUE(active.empty());
}

TEST(MajorityVoteTest, TwoActiveClassesAtTransition) {
  // A class transition inside the window: both classes exceed 40%.
  std::vector<int64_t> labels{4, 4, 4, 4, 4, 9, 9, 9, 9, 9};
  auto active = majority_vote(labels, 10, 0.4f);
  EXPECT_EQ(active, (std::vector<int64_t>{4, 9}));
}

TEST(MajorityVoteTest, RejectsBadInput) {
  EXPECT_THROW(majority_vote({}, 4, 0.4f), Error);
  EXPECT_THROW(majority_vote({5}, 4, 0.4f), Error);
  EXPECT_THROW(majority_vote({-1}, 4, 0.4f), Error);
}

TEST(PseudoLabelTest, SegmentLabelingIsConsistent) {
  Rng rng(1);
  nn::ConvNetConfig cfg;
  cfg.in_channels = 1;
  cfg.image_h = cfg.image_w = 4;
  cfg.num_classes = 3;
  cfg.width = 4;
  cfg.depth = 1;
  nn::ConvNet model(cfg, rng);
  Tensor images = deco::testing::random_tensor({8, 1, 4, 4}, rng, 0.5);

  auto res = pseudo_label_segment(model, images, 0.4f);
  ASSERT_EQ(res.labels.size(), 8u);
  ASSERT_EQ(res.confidences.size(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_GE(res.labels[i], 0);
    EXPECT_LT(res.labels[i], 3);
    EXPECT_GT(res.confidences[i], 1.0f / 3.0f - 1e-4f);  // argmax ≥ uniform
    EXPECT_LE(res.confidences[i], 1.0f);
  }
  // Retained samples carry exactly the active labels.
  std::vector<bool> is_active(3, false);
  for (int64_t c : res.active_classes) is_active[static_cast<size_t>(c)] = true;
  for (int64_t i : res.retained)
    EXPECT_TRUE(is_active[static_cast<size_t>(res.labels[static_cast<size_t>(i)])]);
  // And no non-retained sample has an active label.
  std::vector<bool> retained_mask(8, false);
  for (int64_t i : res.retained) retained_mask[static_cast<size_t>(i)] = true;
  for (size_t i = 0; i < 8; ++i) {
    if (!retained_mask[i]) {
      EXPECT_FALSE(is_active[static_cast<size_t>(res.labels[i])]);
    }
  }
}

TEST(PseudoLabelTest, ThresholdMonotonicity) {
  // Higher thresholds never retain more samples.
  Rng rng(2);
  nn::ConvNetConfig cfg;
  cfg.in_channels = 1;
  cfg.image_h = cfg.image_w = 4;
  cfg.num_classes = 4;
  cfg.width = 4;
  cfg.depth = 1;
  nn::ConvNet model(cfg, rng);
  Tensor images = deco::testing::random_tensor({16, 1, 4, 4}, rng, 0.5);
  size_t prev = 1000;
  for (float m : {0.0f, 0.2f, 0.4f, 0.6f, 0.8f}) {
    auto res = pseudo_label_segment(model, images, m);
    EXPECT_LE(res.retained.size(), prev);
    prev = res.retained.size();
  }
}

}  // namespace
}  // namespace deco::core
