// The packed blocked GEMM against a double-precision naive reference at
// adversarial shapes: every m, n, k in {1, 3, 5, 15, 17, 63, 65} crosses at
// least one packing edge (k smaller than a cache block, n smaller than the
// register tile, single-row strips), plus shapes that straddle the MC/NC/KC
// block boundaries. Also the satellite regression for the old zero-skip
// shortcut: a 0 in A against an Inf/NaN in B must propagate NaN, not be
// silently skipped.
#include "deco/tensor/gemm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "deco/core/thread_pool.h"
#include "deco/tensor/check.h"
#include "deco/tensor/ops.h"
#include "deco/tensor/rng.h"
#include "deco/tensor/tensor.h"
#include "test_util.h"

namespace deco {
namespace {

const std::vector<int64_t> kEdgeSizes{1, 3, 5, 15, 17, 63, 65};

// Naive references accumulating in double: not bitwise comparable to the
// float kernel, so comparisons are tolerance-based per element.
Tensor ref_matmul(const Tensor& a, const Tensor& b) {
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor out({m, n});
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t kk = 0; kk < k; ++kk)
        acc += static_cast<double>(a.at2(i, kk)) * b.at2(kk, j);
      out.at2(i, j) = static_cast<float>(acc);
    }
  return out;
}

Tensor ref_matmul_tn(const Tensor& a, const Tensor& b) {
  const int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor out({m, n});
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t kk = 0; kk < k; ++kk)
        acc += static_cast<double>(a.at2(kk, i)) * b.at2(kk, j);
      out.at2(i, j) = static_cast<float>(acc);
    }
  return out;
}

Tensor ref_matmul_nt(const Tensor& a, const Tensor& b) {
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor out({m, n});
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t kk = 0; kk < k; ++kk)
        acc += static_cast<double>(a.at2(i, kk)) * b.at2(j, kk);
      out.at2(i, j) = static_cast<float>(acc);
    }
  return out;
}

void expect_close(const Tensor& got, const Tensor& want, const char* what,
                  int64_t m, int64_t n, int64_t k) {
  ASSERT_TRUE(got.same_shape(want))
      << what << " shape " << got.shape_str() << " vs " << want.shape_str();
  for (int64_t i = 0; i < got.numel(); ++i) {
    const float w = want[i];
    ASSERT_NEAR(got[i], w, 1e-4f * (1.0f + std::abs(w)))
        << what << " at flat index " << i << " for m=" << m << " n=" << n
        << " k=" << k;
  }
}

TEST(GemmTest, MatchesNaiveReferenceAtEdgeShapes) {
  Rng rng(101);
  for (int64_t m : kEdgeSizes)
    for (int64_t n : kEdgeSizes)
      for (int64_t k : kEdgeSizes) {
        Tensor a = testing::random_tensor({m, k}, rng);
        Tensor b = testing::random_tensor({k, n}, rng);
        Tensor at = testing::random_tensor({k, m}, rng);
        Tensor bt = testing::random_tensor({n, k}, rng);
        expect_close(matmul(a, b), ref_matmul(a, b), "matmul", m, n, k);
        expect_close(matmul_tn(at, b), ref_matmul_tn(at, b), "matmul_tn", m, n,
                     k);
        expect_close(matmul_nt(a, bt), ref_matmul_nt(a, bt), "matmul_nt", m, n,
                     k);
      }
}

TEST(GemmTest, MatchesNaiveReferenceAcrossBlockBoundaries) {
  // 70 > MC=64, 520 > NC=512, 300 > KC=256: every blocking loop takes more
  // than one trip and the final trip is partial.
  Rng rng(102);
  const int64_t m = 70, n = 520, k = 300;
  Tensor a = testing::random_tensor({m, k}, rng);
  Tensor b = testing::random_tensor({k, n}, rng);
  expect_close(matmul(a, b), ref_matmul(a, b), "matmul", m, n, k);
}

TEST(GemmTest, AccumulateVariantsAddOntoExistingOutput) {
  Rng rng(103);
  const int64_t m = 17, n = 33, k = 65;
  Tensor a = testing::random_tensor({m, k}, rng);
  Tensor b = testing::random_tensor({k, n}, rng);
  Tensor at = testing::random_tensor({k, m}, rng);
  Tensor bt = testing::random_tensor({n, k}, rng);
  Tensor seed_t = testing::random_tensor({m, n}, rng);

  Tensor out = seed_t;
  matmul_tn_acc_into(at, b, out);
  Tensor want = seed_t + ref_matmul_tn(at, b);
  expect_close(out, want, "matmul_tn_acc", m, n, k);

  out = seed_t;
  matmul_nt_acc_into(a, bt, out);
  want = seed_t + ref_matmul_nt(a, bt);
  expect_close(out, want, "matmul_nt_acc", m, n, k);
}

TEST(GemmTest, AccumulateVariantsRejectMisshapenOutput) {
  Rng rng(104);
  Tensor a = testing::random_tensor({4, 8}, rng);
  Tensor bt = testing::random_tensor({6, 8}, rng);
  Tensor bad({4, 5});
  EXPECT_THROW(matmul_nt_acc_into(a, bt, bad), Error);
}

TEST(GemmTest, ZeroTimesInfPropagatesNaN) {
  // Regression for the old `if (aik == 0.0f) continue;` shortcut, which
  // skipped the 0·Inf product and returned a finite 0 where IEEE demands
  // NaN — hiding exactly the non-finite values NumericGuard watches for.
  const float inf = std::numeric_limits<float>::infinity();
  Tensor a({2, 3});  // row 0 all zeros
  a.at2(1, 0) = 1.0f;
  Tensor b({3, 2});
  b.fill(1.0f);
  b.at2(0, 0) = inf;

  Tensor out = matmul(a, b);
  EXPECT_TRUE(std::isnan(out.at2(0, 0))) << "0*Inf must be NaN, got "
                                         << out.at2(0, 0);
  EXPECT_TRUE(std::isinf(out.at2(1, 0)));  // 1*Inf stays Inf
  EXPECT_EQ(out.at2(0, 1), 0.0f);          // untouched column stays finite

  // Same for the tn variant (a transposed: column 0 of aᵀ is zeros).
  Tensor at({3, 2});  // [k, m], column 0 all zeros
  at.at2(0, 1) = 1.0f;
  Tensor out_tn = matmul_tn(at, b);
  EXPECT_TRUE(std::isnan(out_tn.at2(0, 0)));
  EXPECT_TRUE(std::isinf(out_tn.at2(1, 0)));
}

TEST(GemmTest, BitwiseInvariantAcrossThreadCountsAtBlockEdges) {
  // The shape crosses every block boundary, so the parallel tile split is
  // exercised for real. memcmp, not tolerance: reassociation is the bug.
  Rng rng(105);
  Tensor a = testing::random_tensor({70, 300}, rng);
  Tensor b = testing::random_tensor({300, 520}, rng);
  const int saved = core::num_threads();
  Tensor reference = matmul(a, b);
  for (int t : {1, 2, 4, 8}) {
    core::set_num_threads(t);
    Tensor got = matmul(a, b);
    ASSERT_EQ(got.numel(), reference.numel());
    EXPECT_EQ(std::memcmp(got.data(), reference.data(),
                          got.numel() * sizeof(float)),
              0)
        << "bitwise mismatch at threads=" << t;
  }
  core::set_num_threads(saved);
}

}  // namespace
}  // namespace deco
