#include "deco/tensor/tensor.h"

#include <gtest/gtest.h>

#include "deco/tensor/check.h"
#include "test_util.h"

namespace deco {
namespace {

TEST(TensorTest, DefaultConstructedIsEmpty) {
  Tensor t;
  EXPECT_EQ(t.numel(), 0);
  EXPECT_EQ(t.ndim(), 0);
  EXPECT_TRUE(t.empty());
}

TEST(TensorTest, ShapeConstructionZeroInitializes) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.ndim(), 2);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, ValueConstructionAdoptsData) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at2(0, 0), 1.0f);
  EXPECT_EQ(t.at2(0, 1), 2.0f);
  EXPECT_EQ(t.at2(1, 0), 3.0f);
  EXPECT_EQ(t.at2(1, 1), 4.0f);
}

TEST(TensorTest, ValueConstructionRejectsMismatchedSize) {
  EXPECT_THROW(Tensor({2, 2}, {1, 2, 3}), Error);
}

TEST(TensorTest, FullAndArange) {
  Tensor f = Tensor::full({3}, 2.5f);
  EXPECT_EQ(f.sum(), 7.5f);
}

TEST(TensorTest, CopyIsDeep) {
  Tensor a({2}, {1, 2});
  Tensor b = a;
  b[0] = 99.0f;
  EXPECT_EQ(a[0], 1.0f);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = a.reshaped({3, 2});
  EXPECT_EQ(b.at2(2, 1), 6.0f);
  EXPECT_THROW(a.reshaped({4, 2}), Error);
}

TEST(TensorTest, At4IndexesNchw) {
  Tensor t({2, 3, 4, 5});
  t.at4(1, 2, 3, 4) = 7.0f;
  EXPECT_EQ(t[t.numel() - 1], 7.0f);
  t.at4(0, 0, 0, 0) = 3.0f;
  EXPECT_EQ(t[0], 3.0f);
}

TEST(TensorTest, InPlaceArithmetic) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {10, 20, 30});
  a.add_(b);
  EXPECT_EQ(a[2], 33.0f);
  a.sub_(b);
  EXPECT_EQ(a[2], 3.0f);
  a.mul_(b);
  EXPECT_EQ(a[1], 40.0f);
  a.scale_(0.5f);
  EXPECT_EQ(a[1], 20.0f);
  a.add_scalar_(1.0f);
  EXPECT_EQ(a[0], 6.0f);
  a.add_scaled_(b, 0.1f);
  EXPECT_FLOAT_EQ(a[0], 7.0f);
}

TEST(TensorTest, ShapeMismatchThrows) {
  Tensor a({3});
  Tensor b({4});
  EXPECT_THROW(a.add_(b), Error);
  EXPECT_THROW(a.sub_(b), Error);
  EXPECT_THROW(a.mul_(b), Error);
}

TEST(TensorTest, ClampBounds) {
  Tensor a({4}, {-1.0f, 0.5f, 2.0f, 1.0f});
  a.clamp_(0.0f, 1.0f);
  EXPECT_EQ(a[0], 0.0f);
  EXPECT_EQ(a[1], 0.5f);
  EXPECT_EQ(a[2], 1.0f);
}

TEST(TensorTest, Reductions) {
  Tensor a({4}, {1, -2, 3, -4});
  EXPECT_FLOAT_EQ(a.sum(), -2.0f);
  EXPECT_FLOAT_EQ(a.mean(), -0.5f);
  EXPECT_FLOAT_EQ(a.min(), -4.0f);
  EXPECT_FLOAT_EQ(a.max(), 3.0f);
  EXPECT_FLOAT_EQ(a.squared_norm(), 30.0f);
  EXPECT_EQ(a.argmax(), 2);
}

TEST(TensorTest, DotProduct) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {4, 5, 6});
  EXPECT_FLOAT_EQ(dot(a, b), 32.0f);
}

TEST(TensorTest, L1Distance) {
  Tensor a({2}, {1, 2});
  Tensor b({2}, {3, 0});
  EXPECT_FLOAT_EQ(a.l1_distance(b), 4.0f);
}

TEST(TensorTest, OutOfPlaceOperators) {
  Tensor a({2}, {1, 2});
  Tensor b({2}, {3, 4});
  Tensor c = a + b;
  EXPECT_EQ(c[0], 4.0f);
  Tensor d = b - a;
  EXPECT_EQ(d[1], 2.0f);
  Tensor e = a * 3.0f;
  EXPECT_EQ(e[1], 6.0f);
  // operands untouched
  EXPECT_EQ(a[0], 1.0f);
  EXPECT_EQ(b[0], 3.0f);
}

TEST(TensorTest, ShapeStr) {
  Tensor a({2, 3, 4});
  EXPECT_EQ(a.shape_str(), "[2, 3, 4]");
}

}  // namespace
}  // namespace deco
