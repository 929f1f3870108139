#include "dtw/dtw.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dsp/stats.h"

namespace s2::dtw {
namespace {

std::vector<double> RandomSeries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (double& v : x) v = rng.Normal(0, 1);
  return x;
}

// Naive O(n^2) full-matrix DTW for cross-checking, in the squared domain:
// every cell is cost + min(up, left, up-left), cells off the band +inf.
double NaiveDtwSq(const std::vector<double>& a, const std::vector<double>& b,
                  size_t window) {
  const size_t n = a.size();
  const size_t w = window == 0 ? n : window;
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> dp(n + 1, std::vector<double>(n + 1, inf));
  dp[0][0] = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= n; ++j) {
      const size_t d = i > j ? i - j : j - i;
      if (d > w) continue;
      const double cost = (a[i - 1] - b[j - 1]) * (a[i - 1] - b[j - 1]);
      dp[i][j] = cost + std::min({dp[i - 1][j], dp[i][j - 1], dp[i - 1][j - 1]});
    }
  }
  return dp[n][n];
}

double NaiveDtw(const std::vector<double>& a, const std::vector<double>& b,
                size_t window) {
  return std::sqrt(NaiveDtwSq(a, b, window));
}

TEST(DtwTest, ValidatesInput) {
  EXPECT_FALSE(DtwDistance({}, {}, 0).ok());
  EXPECT_FALSE(DtwDistance({1.0}, {1.0, 2.0}, 0).ok());
}

TEST(DtwTest, IdenticalSequencesHaveZeroDistance) {
  const std::vector<double> x = RandomSeries(64, 1);
  for (size_t w : {0u, 1u, 8u}) {
    auto d = DtwDistance(x, x, w);
    ASSERT_TRUE(d.ok());
    EXPECT_NEAR(*d, 0.0, 1e-12);
  }
}

TEST(DtwTest, MatchesNaiveImplementation) {
  for (size_t w : {0u, 2u, 5u, 16u}) {
    for (uint64_t seed = 0; seed < 5; ++seed) {
      const std::vector<double> a = RandomSeries(48, 100 + seed);
      const std::vector<double> b = RandomSeries(48, 200 + seed);
      auto fast = DtwDistance(a, b, w);
      ASSERT_TRUE(fast.ok());
      EXPECT_NEAR(*fast, NaiveDtw(a, b, w), 1e-9) << "w=" << w << " seed=" << seed;
    }
  }
}

TEST(DtwTest, SymmetricInArguments) {
  const std::vector<double> a = RandomSeries(64, 3);
  const std::vector<double> b = RandomSeries(64, 4);
  EXPECT_NEAR(*DtwDistance(a, b, 8), *DtwDistance(b, a, 8), 1e-9);
}

TEST(DtwTest, NeverExceedsEuclidean) {
  // Identity alignment is admissible, so DTW <= ED for every window.
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const std::vector<double> a = RandomSeries(100, 300 + seed);
    const std::vector<double> b = RandomSeries(100, 400 + seed);
    const double euclid = *dsp::Euclidean(a, b);
    for (size_t w : {1u, 4u, 16u, 0u}) {
      EXPECT_LE(*DtwDistance(a, b, w), euclid + 1e-9) << "w=" << w;
    }
  }
}

TEST(DtwTest, WiderWindowNeverIncreasesDistance) {
  const std::vector<double> a = RandomSeries(80, 5);
  const std::vector<double> b = RandomSeries(80, 6);
  double prev = *DtwDistance(a, b, 1);
  for (size_t w : {2u, 4u, 8u, 16u, 40u}) {
    const double d = *DtwDistance(a, b, w);
    EXPECT_LE(d, prev + 1e-9) << "w=" << w;
    prev = d;
  }
  EXPECT_NEAR(prev, *DtwDistance(a, b, 0), 1e-9);  // 0 == unconstrained (w>=n).
}

TEST(DtwTest, AbsorbsSmallShiftsUnlikeEuclidean) {
  // A sinusoid vs its 3-sample shift: DTW (window >= 3) nearly zero,
  // Euclidean large.
  const size_t n = 128;
  std::vector<double> a(n);
  std::vector<double> b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = std::sin(2.0 * std::numbers::pi * static_cast<double>(i) / 16.0);
    b[i] = std::sin(2.0 * std::numbers::pi * (static_cast<double>(i) - 3.0) / 16.0);
  }
  const double euclid = *dsp::Euclidean(a, b);
  const double warped = *DtwDistance(a, b, 8);
  EXPECT_LT(warped, 0.25 * euclid);
}

TEST(DtwTest, EarlyAbandonConsistentWithExact) {
  const std::vector<double> a = RandomSeries(64, 7);
  const std::vector<double> b = RandomSeries(64, 8);
  const double exact = *DtwDistance(a, b, 8);
  // Radius above the distance: exact result.
  auto kept = DtwDistanceEarlyAbandon(a, b, 8, exact + 1.0);
  ASSERT_TRUE(kept.ok());
  EXPECT_NEAR(*kept, exact, 1e-9);
  // Radius below: the returned value must exceed the radius.
  auto abandoned = DtwDistanceEarlyAbandon(a, b, 8, exact / 2.0);
  ASSERT_TRUE(abandoned.ok());
  EXPECT_GT(*abandoned, exact / 2.0);
}

TEST(DtwTest, FuzzBandDpAgainstNaiveFullMatrix) {
  // The band-only DP against the full-matrix recurrence above: complete
  // results equal under ==, and under a random abandon limit the result is
  // <= the limit exactly when it is the complete value. An abandoned value
  // is a row minimum, so it never exceeds the complete distance. One
  // scratch buffer is reused across every shape, so stale cells from a
  // larger or smaller previous problem would show.
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(2024);
  std::vector<double> scratch;
  for (int trial = 0; trial < 60; ++trial) {
    const size_t n = trial < 4 ? static_cast<size_t>(trial) + 1
                               : 1 + static_cast<size_t>(rng.Uniform(0.0, 300.0));
    const std::vector<double> a = RandomSeries(n, 7000 + trial);
    std::vector<double> b = RandomSeries(n, 8000 + trial);
    if (trial % 5 == 0) b = a;  // Zero distance: abandons only at limit < 0.
    for (size_t w : {size_t{0}, size_t{1}, size_t{2}, size_t{16}, n - 1, n,
                     2 * n}) {
      const double exact = NaiveDtwSq(a, b, w);
      const double limits[] = {inf,
                               exact,
                               std::nextafter(exact, -inf),
                               exact * rng.Uniform(0.0, 1.0),
                               exact * rng.Uniform(1.0, 2.0),
                               -1.0};
      for (double limit : limits) {
        const std::string where = "n=" + std::to_string(n) +
                                  " w=" + std::to_string(w) +
                                  " limit=" + std::to_string(limit);
        auto got = DtwDistanceEarlyAbandonSq(a, b, w, limit, &scratch);
        ASSERT_TRUE(got.ok()) << where;
        if (exact <= limit) {
          EXPECT_EQ(*got, exact) << where;
        } else {
          EXPECT_GT(*got, limit) << where;
          EXPECT_LE(*got, exact) << where;
        }
        // Without a scratch buffer the same value comes back.
        auto fresh = DtwDistanceEarlyAbandonSq(a, b, w, limit);
        ASSERT_TRUE(fresh.ok()) << where;
        EXPECT_EQ(*fresh, *got) << where;
      }
    }
  }
}

TEST(EnvelopeTest, ValidatesAndShapes) {
  EXPECT_FALSE(ComputeEnvelope({}, 3).ok());
  auto env = ComputeEnvelope(RandomSeries(32, 9), 4);
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env->upper.size(), 32u);
  EXPECT_EQ(env->lower.size(), 32u);
}

TEST(EnvelopeTest, MatchesNaiveSlidingWindow) {
  const std::vector<double> q = RandomSeries(100, 10);
  const size_t w = 7;
  auto env = ComputeEnvelope(q, w);
  ASSERT_TRUE(env.ok());
  for (size_t i = 0; i < q.size(); ++i) {
    const size_t lo = i >= w ? i - w : 0;
    const size_t hi = std::min(q.size() - 1, i + w);
    double mx = q[lo];
    double mn = q[lo];
    for (size_t j = lo; j <= hi; ++j) {
      mx = std::max(mx, q[j]);
      mn = std::min(mn, q[j]);
    }
    EXPECT_DOUBLE_EQ(env->upper[i], mx) << i;
    EXPECT_DOUBLE_EQ(env->lower[i], mn) << i;
  }
}

TEST(EnvelopeTest, EnvelopeSandwichesSequence) {
  const std::vector<double> q = RandomSeries(64, 11);
  auto env = ComputeEnvelope(q, 5);
  ASSERT_TRUE(env.ok());
  for (size_t i = 0; i < q.size(); ++i) {
    EXPECT_LE(env->lower[i], q[i]);
    EXPECT_GE(env->upper[i], q[i]);
  }
}

TEST(LbKeoghTest, IsLowerBoundOnDtw) {
  // Property sweep: LB_Keogh(q, c) <= DTW_w(q, c) for many random pairs.
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const std::vector<double> q = RandomSeries(96, 500 + seed);
    const std::vector<double> c = RandomSeries(96, 600 + seed);
    for (size_t w : {2u, 8u, 24u}) {
      auto env = ComputeEnvelope(q, w);
      ASSERT_TRUE(env.ok());
      auto lb = LbKeogh(*env, c, std::numeric_limits<double>::infinity());
      ASSERT_TRUE(lb.ok());
      const double dtw = *DtwDistance(q, c, w);
      EXPECT_LE(*lb, dtw + 1e-9) << "w=" << w << " seed=" << seed;
    }
  }
}

TEST(LbKeoghTest, ZeroForSelf) {
  const std::vector<double> q = RandomSeries(64, 12);
  auto env = ComputeEnvelope(q, 4);
  ASSERT_TRUE(env.ok());
  auto lb = LbKeogh(*env, q, std::numeric_limits<double>::infinity());
  ASSERT_TRUE(lb.ok());
  EXPECT_DOUBLE_EQ(*lb, 0.0);
}

TEST(LbKeoghTest, ShapeMismatchRejected) {
  auto env = ComputeEnvelope(RandomSeries(16, 13), 2);
  ASSERT_TRUE(env.ok());
  EXPECT_FALSE(LbKeogh(*env, RandomSeries(20, 14),
                       std::numeric_limits<double>::infinity())
                   .ok());
}

TEST(LbKeoghTest, EarlyAbandonOverestimates) {
  const std::vector<double> q = RandomSeries(128, 15);
  const std::vector<double> c = RandomSeries(128, 16);
  auto env = ComputeEnvelope(q, 8);
  ASSERT_TRUE(env.ok());
  const double exact = *LbKeogh(*env, c, std::numeric_limits<double>::infinity());
  if (exact > 0) {
    auto abandoned = LbKeogh(*env, c, exact / 2.0);
    ASSERT_TRUE(abandoned.ok());
    EXPECT_GT(*abandoned, exact / 2.0);
    EXPECT_LE(*abandoned, exact + 1e-12);
  }
}

}  // namespace
}  // namespace s2::dtw
