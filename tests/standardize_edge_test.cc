#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "burst/burst_detector.h"
#include "dsp/stats.h"
#include "stream/burst_stream.h"

// Edge-case audit for the standardization paths: zero-variance windows,
// single points, and catastrophic cancellation must never leak a NaN into
// downstream features, in either the batch (dsp::Standardize) or the
// streaming (stream::BurstStream, whose running moments standardize
// implicitly) pipeline.

namespace s2 {
namespace {

void ExpectAllFinite(const std::vector<double>& x) {
  for (double v : x) EXPECT_TRUE(std::isfinite(v)) << v;
}

TEST(StandardizeEdgeTest, ZeroVarianceIsAllZeros) {
  for (double c : {0.0, -0.0, 7.0, -3.5, 1e300, 5e-324}) {
    const std::vector<double> z = dsp::Standardize({c, c, c, c, c});
    ASSERT_EQ(z.size(), 5u);
    for (double v : z) EXPECT_EQ(v, 0.0) << "constant " << c;
  }
}

TEST(StandardizeEdgeTest, SinglePointIsZeroNotNan) {
  const std::vector<double> z = dsp::Standardize({42.0});
  ASSERT_EQ(z.size(), 1u);
  EXPECT_EQ(z[0], 0.0);
  const std::vector<double> empty = dsp::Standardize({});
  EXPECT_TRUE(empty.empty());
}

TEST(StandardizeEdgeTest, StandardizeIntoMatchesAndAllowsAliasing) {
  std::vector<double> x = {1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> want = dsp::Standardize(x);
  std::vector<double> out(x.size(), -99.0);
  dsp::StandardizeInto(x.data(), x.size(), out.data());
  EXPECT_EQ(out, want);
  dsp::StandardizeInto(x.data(), x.size(), x.data());  // in place
  EXPECT_EQ(x, want);
}

// Huge offset, tiny spread: the one-pass sumsq - mean^2 formula loses all
// signal here; the two-pass centered form must keep it.
TEST(StandardizeEdgeTest, CatastrophicCancellationKeepsSignal) {
  const double base = 1e9;
  std::vector<double> x;
  for (int i = 0; i < 64; ++i) x.push_back(base + (i % 2 == 0 ? 1e-3 : -1e-3));
  EXPECT_GT(dsp::Variance(x), 0.0);
  const std::vector<double> z = dsp::Standardize(x);
  ExpectAllFinite(z);
  // The two alternating levels must standardize to +/-1 (exact population
  // z-scores of a two-level signal), not collapse to zero.
  EXPECT_NEAR(z[0], 1.0, 1e-6);
  EXPECT_NEAR(z[1], -1.0, 1e-6);
  EXPECT_NEAR(dsp::Mean(z), 0.0, 1e-9);
  EXPECT_NEAR(dsp::Variance(z), 1.0, 1e-6);
}

TEST(StandardizeEdgeTest, NearZeroStddevStaysFinite) {
  // stddev underflows toward denormal but is still > 0: the division must
  // produce finite (possibly huge) values or the documented all-zeros, but
  // never NaN.
  std::vector<double> x(32, 1.0);
  x[0] = 1.0 + 1e-13;
  const std::vector<double> z = dsp::Standardize(x);
  for (double v : z) EXPECT_FALSE(std::isnan(v));
}

// --- Streaming side: BurstStream's running moments ---

stream::BurstStream MakeStream(const std::vector<double>& window) {
  auto r = stream::BurstStream::Create(burst::BurstDetector::Options{4, 1.5, true},
                                       window);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return std::move(r).value();
}

void ExpectCleanRegions(const stream::BurstStream& s) {
  for (const burst::BurstRegion& region : s.Regions()) {
    EXPECT_TRUE(std::isfinite(region.avg_value)) << region.avg_value;
    EXPECT_LE(region.start, region.end);
  }
}

TEST(StandardizeEdgeTest, SlideOntoConstantWindowStaysClean) {
  // Start varied, slide until the window is constant: the running sumsq
  // recursions (window and moving average) can go slightly negative from
  // rounding; sigma must clamp to zero rather than sqrt(-eps) = NaN.
  std::vector<double> window = {1.0, 5.0, 2.0, 8.0, 3.0, 9.0, 4.0, 6.0};
  stream::BurstStream s = MakeStream(window);
  for (size_t i = 0; i < window.size(); ++i) s.Slide(2.0);
  EXPECT_FALSE(std::isnan(s.raw_cutoff()));
  EXPECT_NEAR(s.raw_cutoff(), 2.0, 1e-6);
  ExpectCleanRegions(s);
}

TEST(StandardizeEdgeTest, SlideWithHugeOffsetKeepsFiniteSigma) {
  // Catastrophic-cancellation stress for the running mean/power pairs: a
  // large common offset with small wiggle. The recursion is allowed to
  // lose the wiggle (documented limitation of one-pass streaming moments)
  // but must never produce a NaN cutoff or a non-finite region height.
  std::vector<double> window;
  for (int i = 0; i < 16; ++i) window.push_back(1e9 + (i % 2 == 0 ? 0.5 : -0.5));
  stream::BurstStream s = MakeStream(window);
  for (int lap = 0; lap < 4; ++lap) {
    for (int i = 0; i < 16; ++i) s.Slide(1e9 + (i % 3 == 0 ? 0.25 : -0.25));
    EXPECT_TRUE(std::isfinite(s.raw_cutoff())) << "lap " << lap;
    ExpectCleanRegions(s);
  }
}

}  // namespace
}  // namespace s2
