#include "deco/eval/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "deco/tensor/check.h"
#include "deco/tensor/rng.h"

namespace deco::eval {
namespace {

TEST(RunningStatsTest, MatchesClosedFormMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.sem(), s.stddev() / std::sqrt(8.0), 1e-12);
}

TEST(RunningStatsTest, SingleValueHasZeroVariance) {
  RunningStats s;
  s.add(3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.min(), 3.5);
  EXPECT_EQ(s.max(), 3.5);
}

TEST(RunningStatsTest, NumericallyStableWithLargeOffsets) {
  // Welford must not suffer catastrophic cancellation around a huge mean.
  RunningStats s;
  const double base = 1e9;
  for (double v : {base + 1.0, base + 2.0, base + 3.0}) s.add(v);
  EXPECT_NEAR(s.variance(), 1.0, 1e-6);
}

TEST(PairedCompareTest, DetectsConsistentSmallEffect) {
  // b is a + 0.5 with tiny noise: a paired design detects this even though
  // the spread of a is 100× the effect.
  Rng rng(5);
  std::vector<double> a, b;
  for (int i = 0; i < 12; ++i) {
    const double base = 50.0 * rng.normal();
    a.push_back(base);
    b.push_back(base + 0.5 + 0.01 * rng.normal());
  }
  PairedComparison cmp = paired_compare(a, b);
  EXPECT_NEAR(cmp.mean_diff, 0.5, 0.05);
  EXPECT_EQ(cmp.wins, 12);
  EXPECT_EQ(cmp.losses, 0);
  EXPECT_GT(cmp.t_statistic, 2.0);
}

TEST(PairedCompareTest, SymmetricUnderSwap) {
  std::vector<double> a{1, 2, 3};
  std::vector<double> b{2, 2, 5};
  PairedComparison ab = paired_compare(a, b);
  PairedComparison ba = paired_compare(b, a);
  EXPECT_DOUBLE_EQ(ab.mean_diff, -ba.mean_diff);
  EXPECT_EQ(ab.wins, ba.losses);
  EXPECT_EQ(ab.ties, 1);
}

TEST(PairedCompareTest, RejectsMismatchedLengths) {
  EXPECT_THROW(paired_compare({1.0}, {1.0, 2.0}), Error);
  EXPECT_THROW(paired_compare({}, {}), Error);
}

TEST(MedianTest, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

}  // namespace
}  // namespace deco::eval
