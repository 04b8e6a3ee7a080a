#include "deco/condense/buffer.h"

#include <gtest/gtest.h>

#include "deco/data/world.h"
#include "deco/tensor/check.h"
#include "test_util.h"

namespace deco::condense {
namespace {

TEST(BufferTest, ClassBalanceInvariant) {
  SyntheticBuffer buf(5, 3, 3, 8, 8);
  EXPECT_EQ(buf.size(), 15);
  // |S_c| = |S|/|C| for every class (the paper's balance constraint).
  for (int64_t cls = 0; cls < 5; ++cls) {
    auto rows = buf.rows_of_class(cls);
    EXPECT_EQ(static_cast<int64_t>(rows.size()), 3);
    for (int64_t r : rows) EXPECT_EQ(buf.label(r), cls);
  }
}

TEST(BufferTest, LabelsAreRowMajorByClass) {
  SyntheticBuffer buf(3, 2, 1, 4, 4);
  EXPECT_EQ(buf.labels(),
            (std::vector<int64_t>{0, 0, 1, 1, 2, 2}));
}

TEST(BufferTest, InitFromDatasetCopiesClassSamples) {
  data::ProceduralImageWorld w(data::icub1_spec(), 1);
  data::Dataset labeled = w.make_labeled_set(4, 2);
  SyntheticBuffer buf(10, 2, 3, 16, 16);
  Rng rng(3);
  buf.init_from_dataset(labeled, rng);
  // Every buffer row must exactly equal one of its class's labeled images.
  for (int64_t r = 0; r < buf.size(); ++r) {
    const int64_t cls = buf.label(r);
    Tensor img = buf.gather({r}).reshaped({3, 16, 16});
    float best = 1e30f;
    for (int64_t i : labeled.indices_of_class(cls))
      best = std::min(best, img.l1_distance(labeled.image(i)));
    EXPECT_LT(best, 1e-6f) << "row " << r;
  }
}

TEST(BufferTest, InitFromDatasetMissingClassFallsBackToNoise) {
  data::Dataset labeled(1, 4, 4);
  labeled.add(Tensor::full({1, 4, 4}, 0.5f), 0);  // only class 0 present
  SyntheticBuffer buf(2, 1, 1, 4, 4);
  Rng rng(4);
  buf.init_from_dataset(labeled, rng);
  // Class 1 row must still be valid pixels.
  Tensor row1 = buf.gather(buf.rows_of_class(1));
  EXPECT_GE(row1.min(), 0.0f);
  EXPECT_LE(row1.max(), 1.0f);
}

TEST(BufferTest, GatherScatterRoundTrip) {
  SyntheticBuffer buf(3, 2, 1, 2, 2);
  Rng rng(5);
  buf.init_random(rng);
  const std::vector<int64_t> rows{1, 4};
  Tensor batch = buf.gather(rows);
  batch.scale_(0.5f);
  buf.scatter_images(rows, batch);
  Tensor back = buf.gather(rows);
  deco::testing::expect_tensor_near(back, batch, 1e-7f, 0.0f);
}

TEST(BufferTest, ScatterAddGradAccumulates) {
  SyntheticBuffer buf(2, 2, 1, 2, 2);
  const std::vector<int64_t> rows{0, 3};
  Tensor delta = Tensor::full({2, 1, 2, 2}, 1.0f);
  buf.scatter_add_grad(rows, delta, 2.0f);
  buf.scatter_add_grad(rows, delta, 1.0f);
  EXPECT_FLOAT_EQ(buf.grads()[0], 3.0f);           // row 0 touched twice
  EXPECT_FLOAT_EQ(buf.grads()[1 * 4], 0.0f);       // row 1 untouched
  EXPECT_FLOAT_EQ(buf.grads()[3 * 4 + 3], 3.0f);   // row 3 touched
}

TEST(BufferTest, RowsOfClassesConcatenates) {
  SyntheticBuffer buf(4, 2, 1, 2, 2);
  auto rows = buf.rows_of_classes({1, 3});
  EXPECT_EQ(rows, (std::vector<int64_t>{2, 3, 6, 7}));
}

TEST(BufferTest, ClampPixels) {
  SyntheticBuffer buf(1, 1, 1, 2, 2);
  buf.images()[0] = -5.0f;
  buf.images()[1] = 5.0f;
  buf.clamp_pixels();
  EXPECT_EQ(buf.images()[0], 0.0f);
  EXPECT_EQ(buf.images()[1], 1.0f);
}

TEST(BufferTest, GatherRejectsBadRows) {
  SyntheticBuffer buf(2, 2, 1, 2, 2);
  EXPECT_THROW(buf.gather({4}), Error);
  EXPECT_THROW(buf.gather({}), Error);
  EXPECT_THROW(buf.rows_of_class(2), Error);
}

}  // namespace
}  // namespace deco::condense
