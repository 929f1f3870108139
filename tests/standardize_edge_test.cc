#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "burst/burst_detector.h"
#include "core/s2_engine.h"
#include "dsp/stats.h"

// Edge-case audit for the standardization paths: zero-variance windows,
// single points, and catastrophic cancellation must never leak a NaN into
// downstream features, in either the batch (dsp::Standardize) or the
// streaming (S2Engine::AppendPoint, which re-standardizes the slid window
// and re-detects its bursts) pipeline.

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

// --- Streaming side: windows slid by S2Engine::AppendPoint ---

// A one-series engine sized for short windows: 4-day burst detectors and a
// 2-coefficient index budget (an 8-day window has 5 spectral bins).
core::S2Engine MakeEngine(const std::vector<double>& window) {
  ts::Corpus corpus;
  ts::TimeSeries series;
  series.name = "edge";
  series.values = window;
  corpus.Add(std::move(series));
  core::S2Engine::Options options;
  options.index.budget_c = 2;
  options.long_burst = burst::BurstDetector::Options{4, 1.5, true};
  options.short_burst = options.long_burst;
  options.approx.enabled = false;
  auto engine = core::S2Engine::Build(std::move(corpus), options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).ValueOrDie();
}

void ExpectCleanState(const core::S2Engine& engine) {
  ExpectAllFinite(engine.standardized(0));
  for (const core::BurstHorizon horizon :
       {core::BurstHorizon::kLongTerm, core::BurstHorizon::kShortTerm}) {
    auto regions = engine.BurstsOf(0, horizon);
    ASSERT_TRUE(regions.ok()) << regions.status().ToString();
    for (const burst::BurstRegion& region : *regions) {
      EXPECT_TRUE(std::isfinite(region.avg_value)) << region.avg_value;
      EXPECT_LE(region.start, region.end);
    }
    EXPECT_EQ(engine.burst_table(horizon).size(), regions->size());
  }
}

TEST(StandardizeEdgeTest, SlideOntoConstantWindowStaysClean) {
  // Start varied, slide until the window is constant: the zero-variance
  // window must standardize to zeros rather than NaN, and a flat moving
  // average has no day above its cutoff, so no burst survives in the
  // answers or in the burst tables.
  const std::vector<double> window = {1.0, 5.0, 2.0, 8.0, 3.0, 9.0, 4.0, 6.0};
  core::S2Engine engine = MakeEngine(window);
  for (size_t i = 0; i < window.size(); ++i) {
    ASSERT_TRUE(engine.AppendPoint(0, 2.0).ok());
    ExpectCleanState(engine);
  }
  EXPECT_EQ(engine.corpus().at(0).values,
            std::vector<double>(window.size(), 2.0));
  for (double v : engine.standardized(0)) EXPECT_EQ(v, 0.0);
  for (const core::BurstHorizon horizon :
       {core::BurstHorizon::kLongTerm, core::BurstHorizon::kShortTerm}) {
    EXPECT_TRUE(engine.BurstsOf(0, horizon)->empty());
    EXPECT_EQ(engine.burst_table(horizon).size(), 0u);
  }
}

TEST(StandardizeEdgeTest, SlideWithHugeOffsetKeepsFiniteSigma) {
  // Catastrophic-cancellation stress: a large common offset with a small
  // wiggle. Each slide re-standardizes the window with the two-pass
  // centered form, so the wiggle survives as a unit-variance row and no
  // burst height is non-finite.
  std::vector<double> window;
  for (int i = 0; i < 16; ++i) {
    window.push_back(1e9 + (i % 2 == 0 ? 0.5 : -0.5));
  }
  core::S2Engine engine = MakeEngine(window);
  for (int lap = 0; lap < 4; ++lap) {
    SCOPED_TRACE("lap " + std::to_string(lap));
    for (int i = 0; i < 16; ++i) {
      const double value = 1e9 + (i % 3 == 0 ? 0.25 : -0.25);
      ASSERT_TRUE(engine.AppendPoint(0, value).ok());
    }
    ExpectCleanState(engine);
    EXPECT_NEAR(dsp::Variance(engine.standardized(0)), 1.0, 1e-6);
  }
}

}  // namespace
}  // namespace s2
