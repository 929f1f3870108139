// Incremental feature maintenance vs. batch recomputation: the online burst
// detector (stream::BurstStream) must track its batch counterpart within
// the documented fp-drift tolerances across long slide sequences.

#include <cmath>
#include <deque>
#include <vector>

#include <gtest/gtest.h>

#include "burst/burst_detector.h"
#include "common/rng.h"
#include "dsp/stats.h"
#include "stream/burst_stream.h"

namespace s2::stream {
namespace {

// Batch-vs-incremental agreement bound. The incremental state accumulates
// rounding in its running sums and coefficient recurrences; over a few
// hundred slides of O(1..100) values the drift stays far below this.
constexpr double kDriftTolerance = 1e-6;

std::vector<double> SeasonalWindow(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (size_t t = 0; t < n; ++t) {
    x[t] = 10.0 + 4.0 * std::sin(2.0 * M_PI * static_cast<double>(t) / 16.0) +
           2.0 * std::cos(2.0 * M_PI * static_cast<double>(t) / 5.0) +
           rng.Normal(0.0, 0.5);
  }
  return x;
}

double NextSample(size_t step, Rng* rng) {
  double v = 10.0 + 4.0 * std::sin(2.0 * M_PI * static_cast<double>(step) / 16.0) +
             rng->Normal(0.0, 0.5);
  // Occasional spikes keep the burst detector busy.
  if (step % 37 == 0) v += 15.0;
  return v;
}

TEST(BurstStreamTest, CreateRequiresAFullWindow) {
  burst::BurstDetector::Options options;
  options.window = 30;
  EXPECT_FALSE(BurstStream::Create(options, std::vector<double>(10, 1.0)).ok());
  EXPECT_TRUE(BurstStream::Create(options, std::vector<double>(30, 1.0)).ok());
}

TEST(BurstStreamTest, MatchesBatchDetectorAcrossManySlides) {
  for (const size_t ma_window : {7u, 30u}) {
    burst::BurstDetector::Options options;
    options.window = ma_window;
    options.cutoff_stds = 1.5;
    options.standardize = true;
    options.min_avg_value = 0.5;
    options.min_length = 2;
    const burst::BurstDetector batch(options);

    std::deque<double> window;
    for (double v : SeasonalWindow(256, 21)) window.push_back(v);
    auto stream = BurstStream::Create(
        options, std::vector<double>(window.begin(), window.end()));
    ASSERT_TRUE(stream.ok());

    Rng rng(22);
    for (size_t step = 0; step < 300; ++step) {
      const double x_new = NextSample(step, &rng);
      stream->Slide(x_new);
      window.pop_front();
      window.push_back(x_new);

      if (step % 10 != 9) continue;
      auto want =
          batch.Detect(std::vector<double>(window.begin(), window.end()));
      ASSERT_TRUE(want.ok());
      const std::vector<burst::BurstRegion> got = stream->Regions();
      ASSERT_EQ(got.size(), want->size())
          << "ma_window " << ma_window << " after slide " << step;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].start, (*want)[i].start);
        EXPECT_EQ(got[i].end, (*want)[i].end);
        EXPECT_NEAR(got[i].avg_value, (*want)[i].avg_value, kDriftTolerance);
      }
    }
  }
}

TEST(BurstStreamTest, ConstantWindowHasNoBursts) {
  burst::BurstDetector::Options options;
  options.window = 7;
  auto stream = BurstStream::Create(options, std::vector<double>(64, 5.0));
  ASSERT_TRUE(stream.ok());
  for (int i = 0; i < 80; ++i) stream->Slide(5.0);
  EXPECT_TRUE(stream->Regions().empty());
}

TEST(BurstStreamTest, UnstandardizedModeAlsoMatchesBatch) {
  burst::BurstDetector::Options options;
  options.window = 7;
  options.standardize = false;
  options.min_avg_value = 0.0;
  options.min_length = 1;
  const burst::BurstDetector batch(options);

  std::deque<double> window;
  for (double v : SeasonalWindow(128, 31)) window.push_back(v);
  auto stream = BurstStream::Create(
      options, std::vector<double>(window.begin(), window.end()));
  ASSERT_TRUE(stream.ok());

  Rng rng(32);
  for (size_t step = 0; step < 150; ++step) {
    const double x_new = NextSample(step, &rng);
    stream->Slide(x_new);
    window.pop_front();
    window.push_back(x_new);
  }
  auto want = batch.Detect(std::vector<double>(window.begin(), window.end()));
  ASSERT_TRUE(want.ok());
  const std::vector<burst::BurstRegion> got = stream->Regions();
  ASSERT_EQ(got.size(), want->size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].start, (*want)[i].start);
    EXPECT_EQ(got[i].end, (*want)[i].end);
    EXPECT_NEAR(got[i].avg_value, (*want)[i].avg_value, kDriftTolerance);
  }
}

}  // namespace
}  // namespace s2::stream
