// Recall/precision harness for the approximate-first tier (DESIGN.md §13):
//
//  * measured recall against exact ground truth meets the requested target
//    across seeds and backends;
//  * `max_candidates >= population` degenerates to the exact indexed answer
//    bit-for-bit, with `guaranteed_exact` set;
//  * the tier is *shard-count invisible*: ApproxKnn through a ShardedEngine
//    returns bit-identical neighbors and an identical QualityBound for every
//    shard count — the global summary config is trained before partitioning
//    and candidate ranks merge by (lb_sq, id);
//  * disk-backed engines give the same answers as RAM engines (the tier
//    reads only RAM-resident state).

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "approx/summary.h"
#include "core/s2_engine.h"
#include "querylog/corpus_generator.h"
#include "shard/sharded_engine.h"

namespace s2::approx {
namespace {

constexpr size_t kNumSeries = 400;
constexpr size_t kDays = 128;
constexpr size_t kK = 10;
constexpr size_t kQueriesPerSeed = 20;
const uint64_t kSeeds[] = {11, 47, 2026};
const size_t kShardCounts[] = {1, 2, 8};

ts::Corpus MakeCorpus(uint64_t seed) {
  qlog::CorpusSpec spec;
  spec.num_series = kNumSeries;
  spec.n_days = kDays;
  spec.seed = seed;
  auto corpus = qlog::GenerateCorpus(spec);
  EXPECT_TRUE(corpus.ok()) << corpus.status().ToString();
  return std::move(corpus).ValueOrDie();
}

core::S2Engine::Options EngineOptions() {
  core::S2Engine::Options options;
  return options;
}

core::S2Engine MakeEngine(uint64_t seed) {
  auto engine = core::S2Engine::Build(MakeCorpus(seed), EngineOptions());
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).ValueOrDie();
}

double RecallAgainstTruth(const std::vector<index::Neighbor>& truth,
                          const std::vector<index::Neighbor>& got) {
  size_t hits = 0;
  for (const auto& t : truth) {
    for (const auto& g : got) {
      if (g.id == t.id) {
        ++hits;
        break;
      }
    }
  }
  return truth.empty() ? 1.0
                       : static_cast<double>(hits) /
                             static_cast<double>(truth.size());
}

void ExpectSameAnswer(const core::S2Engine::ApproxAnswer& a,
                      const core::S2Engine::ApproxAnswer& b) {
  ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
  for (size_t i = 0; i < a.neighbors.size(); ++i) {
    EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id) << "rank " << i;
    EXPECT_EQ(a.neighbors[i].distance, b.neighbors[i].distance) << "rank " << i;
  }
  EXPECT_EQ(a.bound.guaranteed_exact, b.bound.guaranteed_exact);
  EXPECT_EQ(a.bound.epsilon, b.bound.epsilon);
  EXPECT_EQ(a.bound.threshold_lb, b.bound.threshold_lb);
  EXPECT_EQ(a.bound.candidates, b.bound.candidates);
  EXPECT_EQ(a.bound.population, b.bound.population);
}

TEST(ApproxRecallTest, MeasuredRecallMeetsTargetAcrossSeeds) {
  for (uint64_t seed : kSeeds) {
    core::S2Engine engine = MakeEngine(seed);
    QueryParams params;
    params.k = kK;
    params.recall_target = 0.95;
    double recall_sum = 0.0;
    for (size_t q = 0; q < kQueriesPerSeed; ++q) {
      const auto id = static_cast<ts::SeriesId>(q * 17 % kNumSeries);
      auto truth = engine.SimilarTo(id, kK);
      ASSERT_TRUE(truth.ok());
      ScanStats stats;
      auto answer = engine.ApproxKnn(id, params, &stats);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      ASSERT_EQ(answer->neighbors.size(), kK);
      // The scan walked the whole population and kept exactly the resolved
      // candidate budget.
      EXPECT_EQ(stats.rows_scanned, kNumSeries - 1);
      EXPECT_EQ(stats.candidates, answer->bound.candidates);
      EXPECT_EQ(answer->bound.population, kNumSeries - 1);
      // The bound is self-consistent: exact answers report epsilon 0; an
      // inexact answer's k-th distance is within (1 + eps) of threshold_lb.
      if (answer->bound.guaranteed_exact) {
        EXPECT_EQ(answer->bound.epsilon, 0.0);
        EXPECT_EQ(RecallAgainstTruth(*truth, answer->neighbors), 1.0);
      } else {
        EXPECT_GE(answer->bound.epsilon, 0.0);
      }
      recall_sum += RecallAgainstTruth(*truth, answer->neighbors);
    }
    const double mean_recall =
        recall_sum / static_cast<double>(kQueriesPerSeed);
    EXPECT_GE(mean_recall, 0.95) << "seed " << seed;
  }
}

TEST(ApproxRecallTest, FullCandidateBudgetIsBitIdenticalToExact) {
  for (uint64_t seed : kSeeds) {
    core::S2Engine engine = MakeEngine(seed);
    QueryParams params;
    params.k = kK;
    params.max_candidates = kNumSeries;  // >= population: degenerate case.
    for (ts::SeriesId id : {0u, 33u, 256u}) {
      auto exact = engine.SimilarTo(id, kK);
      ASSERT_TRUE(exact.ok());
      auto answer = engine.ApproxKnn(id, params);
      ASSERT_TRUE(answer.ok());
      EXPECT_TRUE(answer->bound.guaranteed_exact);
      EXPECT_EQ(answer->bound.epsilon, 0.0);
      ASSERT_EQ(answer->neighbors.size(), exact->size());
      for (size_t i = 0; i < exact->size(); ++i) {
        EXPECT_EQ(answer->neighbors[i].id, (*exact)[i].id) << "rank " << i;
        EXPECT_EQ(answer->neighbors[i].distance, (*exact)[i].distance)
            << "rank " << i;
      }
    }
  }
}

TEST(ApproxRecallTest, ShardCountInvisible) {
  // Same corpus, shard counts {1, 2, 8}: bit-identical neighbors AND an
  // identical QualityBound versus the single engine, for every knob shape.
  for (uint64_t seed : kSeeds) {
    core::S2Engine single = MakeEngine(seed);
    std::vector<QueryParams> shapes(3);
    shapes[0].k = kK;  // Default budget.
    shapes[1].k = kK;
    shapes[1].recall_target = 0.97;
    shapes[2].k = kK;
    shapes[2].max_candidates = 32;
    for (size_t num_shards : kShardCounts) {
      shard::ShardedEngine::Options options;
      options.num_shards = num_shards;
      options.engine = EngineOptions();
      auto sharded = shard::ShardedEngine::Build(MakeCorpus(seed), options);
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      for (const auto& params : shapes) {
        for (ts::SeriesId id : {3u, 77u, 390u}) {
          auto a = single.ApproxKnn(id, params);
          shard::ShardedEngine::QueryStats qstats;
          ScanStats sstats;
          auto b = sharded->ApproxKnn(id, params, &qstats, &sstats);
          ASSERT_TRUE(a.ok()) << a.status().ToString();
          ASSERT_TRUE(b.ok()) << b.status().ToString();
          ExpectSameAnswer(*a, *b);
          EXPECT_EQ(sstats.rows_scanned, kNumSeries - 1);
        }
      }
    }
  }
}

TEST(ApproxRecallTest, DiskBackendMatchesRam) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "s2_approx_disk.bin").string();
  ts::Corpus corpus = MakeCorpus(kSeeds[0]);

  auto ram = core::S2Engine::Build(corpus, EngineOptions());
  ASSERT_TRUE(ram.ok());
  core::S2Engine::Options disk_options = EngineOptions();
  disk_options.disk_store_path = path;
  auto disk = core::S2Engine::Build(corpus, disk_options);
  ASSERT_TRUE(disk.ok());

  QueryParams params;
  params.k = kK;
  params.recall_target = 0.95;
  for (ts::SeriesId id : {0u, 19u, 301u}) {
    auto a = ram->ApproxKnn(id, params);
    auto b = disk->ApproxKnn(id, params);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectSameAnswer(*a, *b);
  }
  std::remove(path.c_str());
}

TEST(ApproxRecallTest, RebuildFromSameCorpusIsDeterministic) {
  // Checkpoint-recovery determinism: two engines built from the same corpus
  // train identical summary configs (equal fingerprints) and answer
  // identically — recovery rebuilds the summary from the restored corpus.
  core::S2Engine a = MakeEngine(kSeeds[1]);
  core::S2Engine b = MakeEngine(kSeeds[1]);
  ASSERT_NE(a.summary(), nullptr);
  ASSERT_NE(b.summary(), nullptr);
  EXPECT_EQ(a.summary()->config().Fingerprint(),
            b.summary()->config().Fingerprint());
  QueryParams params;
  params.k = kK;
  auto ra = a.ApproxKnn(7, params);
  auto rb = b.ApproxKnn(7, params);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  ExpectSameAnswer(*ra, *rb);
}

TEST(ApproxRecallTest, AddSeriesKeepsSummaryInSync) {
  core::S2Engine engine = MakeEngine(kSeeds[2]);
  ts::TimeSeries newcomer{"newcomer", 0,
                          engine.corpus().at(0).values};  // A near-twin of 0.
  auto id = engine.AddSeries(newcomer);
  ASSERT_TRUE(id.ok());
  ASSERT_NE(engine.summary(), nullptr);
  EXPECT_EQ(engine.summary()->size(), engine.corpus().size());
  // The twin must surface as series 0's nearest approximate neighbor.
  QueryParams params;
  params.k = 1;
  auto answer = engine.ApproxKnn(0, params);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->neighbors.size(), 1u);
  EXPECT_EQ(answer->neighbors[0].id, *id);
  EXPECT_NEAR(answer->neighbors[0].distance, 0.0, 1e-6);
}

}  // namespace
}  // namespace s2::approx
