// Golden regression tests: the numeric outputs of every query verb on a
// fixed-seed corpus, frozen as text files under tests/golden/. Any change to
// the DSP chain, the index, the burst detector or the shard merge that moves
// a single bit of a served answer fails here with a readable diff — the
// cross-PR complement to the shard equivalence suite (which only proves
// topologies agree with *each other*, not with yesterday).
//
// Regeneration: run the binary with S2_UPDATE_GOLDEN=1 in the environment;
// it rewrites the files in the source tree (S2_GOLDEN_DIR is a compile-time
// define pointing at tests/golden/) and every test passes trivially. Commit
// the diff only when the change is intentional.
//
// Doubles are printed with %.17g — enough digits to round-trip an IEEE754
// double exactly, so the files pin bit-identical behaviour, not "close".

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/s2_engine.h"
#include "querylog/corpus_generator.h"
#include "shard/sharded_engine.h"

namespace s2 {
namespace {

constexpr uint64_t kSeed = 424242;
constexpr size_t kNumSeries = 48;
constexpr size_t kDays = 128;
constexpr size_t kK = 6;
// Ids spread across the corpus (and, under sharding, across shards).
constexpr ts::SeriesId kProbeIds[] = {0, 7, 19, 30, 47};

std::string FormatDouble(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

ts::Corpus MakeCorpus() {
  qlog::CorpusSpec spec;
  spec.num_series = kNumSeries;
  spec.n_days = kDays;
  spec.seed = kSeed;
  auto corpus = qlog::GenerateCorpus(spec);
  EXPECT_TRUE(corpus.ok());
  return std::move(corpus).ValueOrDie();
}

core::S2Engine::Options EngineOptions() {
  core::S2Engine::Options options;
  return options;
}

bool UpdateMode() { return std::getenv("S2_UPDATE_GOLDEN") != nullptr; }

std::string GoldenPath(const std::string& name) {
  return std::string(S2_GOLDEN_DIR) + "/" + name + ".golden";
}

/// In normal runs, compares `actual` against the committed golden file.
/// Under S2_UPDATE_GOLDEN, (re)writes the file instead.
void CheckGolden(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (UpdateMode()) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — run with S2_UPDATE_GOLDEN=1 to create it";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "golden mismatch for " << name
      << "; if the change is intentional, regenerate with S2_UPDATE_GOLDEN=1";
}

// --- Renderers (one canonical text form per verb) ---------------------------

std::string RenderNeighbors(ts::SeriesId id,
                            const std::vector<index::Neighbor>& neighbors) {
  std::ostringstream out;
  out << "query " << id << "\n";
  for (const index::Neighbor& n : neighbors) {
    out << "  " << n.id << " " << FormatDouble(n.distance) << "\n";
  }
  return out.str();
}

std::string RenderPeriods(ts::SeriesId id,
                          const std::vector<period::PeriodHit>& hits) {
  std::ostringstream out;
  out << "series " << id << "\n";
  for (const period::PeriodHit& hit : hits) {
    out << "  bin=" << hit.bin << " period=" << FormatDouble(hit.period)
        << " freq=" << FormatDouble(hit.frequency)
        << " power=" << FormatDouble(hit.power) << "\n";
  }
  return out.str();
}

std::string RenderBursts(ts::SeriesId id,
                         const std::vector<burst::BurstRegion>& regions) {
  std::ostringstream out;
  out << "series " << id << "\n";
  for (const burst::BurstRegion& region : regions) {
    out << "  [" << region.start << "," << region.end
        << "] avg=" << FormatDouble(region.avg_value) << "\n";
  }
  return out.str();
}

std::string RenderMatches(ts::SeriesId id,
                          const std::vector<burst::BurstMatch>& matches) {
  std::ostringstream out;
  out << "query " << id << "\n";
  for (const burst::BurstMatch& match : matches) {
    out << "  " << match.series_id << " " << FormatDouble(match.bsim) << "\n";
  }
  return out.str();
}

// --- The frozen transcript, producible by either topology -------------------

template <typename Engine>
std::string SimilarTranscript(const Engine& engine) {
  std::string out;
  for (ts::SeriesId id : kProbeIds) {
    auto result = engine.SimilarTo(id, kK);
    EXPECT_TRUE(result.ok());
    out += RenderNeighbors(id, *result);
  }
  return out;
}

template <typename Engine>
std::string DtwTranscript(const Engine& engine) {
  std::string out;
  for (ts::SeriesId id : kProbeIds) {
    auto result = engine.SimilarToDtw(id, kK);
    EXPECT_TRUE(result.ok());
    out += RenderNeighbors(id, *result);
  }
  return out;
}

template <typename Engine>
std::string PeriodTranscript(const Engine& engine) {
  std::string out;
  for (ts::SeriesId id : kProbeIds) {
    auto result = engine.FindPeriods(id);
    EXPECT_TRUE(result.ok());
    out += RenderPeriods(id, *result);
  }
  return out;
}

template <typename Engine>
std::string BurstTranscript(const Engine& engine, core::BurstHorizon horizon) {
  std::string out;
  for (ts::SeriesId id : kProbeIds) {
    auto bursts = engine.BurstsOf(id, horizon);
    EXPECT_TRUE(bursts.ok());
    out += RenderBursts(id, *bursts);
    auto matches = engine.QueryByBurst(id, kK, horizon);
    EXPECT_TRUE(matches.ok());
    out += RenderMatches(id, *matches);
  }
  return out;
}

class GoldenRegressionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto built = core::S2Engine::Build(MakeCorpus(), EngineOptions());
    ASSERT_TRUE(built.ok());
    single_ = new core::S2Engine(std::move(built).ValueOrDie());
    shard::ShardedEngine::Options options;
    options.num_shards = 3;
    options.engine = EngineOptions();
    auto sharded = shard::ShardedEngine::Build(MakeCorpus(), options);
    ASSERT_TRUE(sharded.ok());
    sharded_ = new shard::ShardedEngine(std::move(sharded).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete single_;
    single_ = nullptr;
    delete sharded_;
    sharded_ = nullptr;
  }

  static core::S2Engine* single_;
  static shard::ShardedEngine* sharded_;
};

core::S2Engine* GoldenRegressionTest::single_ = nullptr;
shard::ShardedEngine* GoldenRegressionTest::sharded_ = nullptr;

TEST_F(GoldenRegressionTest, SimilarToMatchesGolden) {
  CheckGolden("similar_to", SimilarTranscript(*single_));
}

TEST_F(GoldenRegressionTest, SimilarToDtwMatchesGolden) {
  CheckGolden("similar_to_dtw", DtwTranscript(*single_));
}

TEST_F(GoldenRegressionTest, PeriodsMatchGolden) {
  CheckGolden("periods", PeriodTranscript(*single_));
}

TEST_F(GoldenRegressionTest, LongTermBurstsMatchGolden) {
  CheckGolden("bursts_long",
              BurstTranscript(*single_, core::BurstHorizon::kLongTerm));
}

TEST_F(GoldenRegressionTest, ShortTermBurstsMatchGolden) {
  CheckGolden("bursts_short",
              BurstTranscript(*single_, core::BurstHorizon::kShortTerm));
}

// The same files must be reproducible through the scatter-gather path: a
// merge or globalization bug shows up as a golden diff even if both
// topologies drift together relative to each other's tests.
TEST_F(GoldenRegressionTest, ShardedEngineReproducesEveryGolden) {
  if (UpdateMode()) GTEST_SKIP() << "goldens are written from the single engine";
  CheckGolden("similar_to", SimilarTranscript(*sharded_));
  CheckGolden("similar_to_dtw", DtwTranscript(*sharded_));
  CheckGolden("periods", PeriodTranscript(*sharded_));
  CheckGolden("bursts_long",
              BurstTranscript(*sharded_, core::BurstHorizon::kLongTerm));
  CheckGolden("bursts_short",
              BurstTranscript(*sharded_, core::BurstHorizon::kShortTerm));
}

}  // namespace
}  // namespace s2
