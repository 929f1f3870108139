// Differential/property layer for s2::shard: a ShardedEngine must be
// *shard-count invisible* — for every query verb, every shard count, and
// every seed, its answers are bit-identical to one S2Engine over the whole
// corpus (ids, distances, periods, bursts, burst scores). This is the
// executable form of the scatter-gather exactness argument in
// sharded_engine.h: shared-radius pruning only discards candidates that
// provably cannot reach the global top-k, and the merge reassembles the
// global answer from exact per-shard distances.

#include "shard/sharded_engine.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/s2_engine.h"
#include "io/mem_env.h"
#include "querylog/corpus_generator.h"
#include "service/s2_server.h"

namespace s2::shard {
namespace {

constexpr size_t kNumSeries = 72;
constexpr size_t kDays = 128;
constexpr size_t kK = 7;
const size_t kShardCounts[] = {1, 2, 3, 8};
const uint64_t kSeeds[] = {11, 47, 2026};

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
  options.index.budget_c = 8;
  options.index.leaf_size = 4;
  return options;
}

core::S2Engine MakeSingle(uint64_t seed) {
  auto engine = core::S2Engine::Build(MakeCorpus(seed), EngineOptions());
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).ValueOrDie();
}

ShardedEngine MakeSharded(uint64_t seed, size_t num_shards) {
  ShardedEngine::Options options;
  options.num_shards = num_shards;
  options.engine = EngineOptions();
  auto engine = ShardedEngine::Build(MakeCorpus(seed), options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).ValueOrDie();
}

// Bit-identical: EXPECT_EQ on doubles on purpose — the merge must surface
// the *same floating-point value* the single engine computed, not merely a
// close one. Both paths run the identical sequential-order distance code on
// identical inputs, so exact equality is the correct bar.
void ExpectSameNeighbors(const std::vector<index::Neighbor>& single,
                         const std::vector<index::Neighbor>& sharded,
                         const std::string& what) {
  ASSERT_EQ(single.size(), sharded.size()) << what;
  for (size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i].id, sharded[i].id) << what << " rank " << i;
    EXPECT_EQ(single[i].distance, sharded[i].distance) << what << " rank " << i;
  }
}

void ExpectSameMatches(const std::vector<burst::BurstMatch>& single,
                       const std::vector<burst::BurstMatch>& sharded,
                       const std::string& what) {
  ASSERT_EQ(single.size(), sharded.size()) << what;
  for (size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i].series_id, sharded[i].series_id) << what << " rank " << i;
    EXPECT_EQ(single[i].bsim, sharded[i].bsim) << what << " rank " << i;
  }
}

TEST(ShardEquivalenceTest, SimilarToIsShardCountInvisible) {
  for (uint64_t seed : kSeeds) {
    core::S2Engine single = MakeSingle(seed);
    for (size_t shards : kShardCounts) {
      ShardedEngine sharded = MakeSharded(seed, shards);
      ASSERT_EQ(sharded.size(), kNumSeries);
      for (ts::SeriesId id = 0; id < kNumSeries; id += 5) {
        auto expected = single.SimilarTo(id, kK);
        ASSERT_TRUE(expected.ok());
        ShardedEngine::QueryStats stats;
        auto actual = sharded.SimilarTo(id, kK, &stats);
        ASSERT_TRUE(actual.ok()) << actual.status().ToString();
        ExpectSameNeighbors(*expected, *actual,
                            "seed " + std::to_string(seed) + " shards " +
                                std::to_string(shards) + " id " +
                                std::to_string(id));
        EXPECT_EQ(stats.fanout, sharded.num_shards());
      }
    }
  }
}

TEST(ShardEquivalenceTest, SimilarToSeriesIsShardCountInvisible) {
  for (uint64_t seed : kSeeds) {
    core::S2Engine single = MakeSingle(seed);
    qlog::CorpusSpec spec;
    spec.num_series = kNumSeries;
    spec.n_days = kDays;
    spec.seed = seed;
    auto queries = qlog::GenerateQueries(spec, 4);
    ASSERT_TRUE(queries.ok());
    for (size_t shards : kShardCounts) {
      ShardedEngine sharded = MakeSharded(seed, shards);
      for (const ts::TimeSeries& query : *queries) {
        auto expected = single.SimilarToSeries(query.values, kK);
        ASSERT_TRUE(expected.ok());
        auto actual = sharded.SimilarToSeries(query.values, kK);
        ASSERT_TRUE(actual.ok()) << actual.status().ToString();
        ExpectSameNeighbors(*expected, *actual,
                            "external query, seed " + std::to_string(seed) +
                                " shards " + std::to_string(shards));
      }
    }
  }
}

TEST(ShardEquivalenceTest, SimilarToDtwIsShardCountInvisible) {
  // DTW is the most expensive verb; one seed and fewer probes keep the test
  // quick while still covering every shard count.
  const uint64_t seed = kSeeds[0];
  core::S2Engine single = MakeSingle(seed);
  for (size_t shards : kShardCounts) {
    ShardedEngine sharded = MakeSharded(seed, shards);
    for (ts::SeriesId id = 0; id < kNumSeries; id += 17) {
      auto expected = single.SimilarToDtw(id, kK);
      ASSERT_TRUE(expected.ok());
      auto actual = sharded.SimilarToDtw(id, kK);
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      ExpectSameNeighbors(*expected, *actual,
                          "dtw shards " + std::to_string(shards) + " id " +
                              std::to_string(id));
    }
  }
}

TEST(ShardEquivalenceTest, ExactFallbacksAreShardCountInvisible) {
  const uint64_t seed = kSeeds[1];
  core::S2Engine single = MakeSingle(seed);
  for (size_t shards : kShardCounts) {
    ShardedEngine sharded = MakeSharded(seed, shards);
    for (ts::SeriesId id = 0; id < kNumSeries; id += 23) {
      auto expected = single.SimilarToExact(id, kK);
      ASSERT_TRUE(expected.ok());
      auto actual = sharded.SimilarToExact(id, kK);
      ASSERT_TRUE(actual.ok());
      ExpectSameNeighbors(*expected, *actual, "exact euclid");

      auto expected_dtw = single.SimilarToDtwExact(id, kK);
      ASSERT_TRUE(expected_dtw.ok());
      auto actual_dtw = sharded.SimilarToDtwExact(id, kK);
      ASSERT_TRUE(actual_dtw.ok());
      ExpectSameNeighbors(*expected_dtw, *actual_dtw, "exact dtw");
    }
  }
}

TEST(ShardEquivalenceTest, PeriodsAndBurstsRouteToTheOwnerUnchanged) {
  for (uint64_t seed : kSeeds) {
    core::S2Engine single = MakeSingle(seed);
    for (size_t shards : {size_t{3}, size_t{8}}) {
      ShardedEngine sharded = MakeSharded(seed, shards);
      for (ts::SeriesId id = 0; id < kNumSeries; id += 11) {
        auto expected_periods = single.FindPeriods(id);
        auto actual_periods = sharded.FindPeriods(id);
        ASSERT_TRUE(expected_periods.ok());
        ASSERT_TRUE(actual_periods.ok());
        ASSERT_EQ(expected_periods->size(), actual_periods->size());
        for (size_t i = 0; i < expected_periods->size(); ++i) {
          EXPECT_EQ((*expected_periods)[i].period, (*actual_periods)[i].period);
          EXPECT_EQ((*expected_periods)[i].power, (*actual_periods)[i].power);
        }
        for (core::BurstHorizon horizon :
             {core::BurstHorizon::kLongTerm, core::BurstHorizon::kShortTerm}) {
          auto expected_bursts = single.BurstsOf(id, horizon);
          auto actual_bursts = sharded.BurstsOf(id, horizon);
          ASSERT_TRUE(expected_bursts.ok());
          ASSERT_TRUE(actual_bursts.ok());
          ASSERT_EQ(expected_bursts->size(), actual_bursts->size());
          for (size_t i = 0; i < expected_bursts->size(); ++i) {
            EXPECT_EQ((*expected_bursts)[i].start, (*actual_bursts)[i].start);
            EXPECT_EQ((*expected_bursts)[i].end, (*actual_bursts)[i].end);
            EXPECT_EQ((*expected_bursts)[i].avg_value,
                      (*actual_bursts)[i].avg_value);
          }
        }
      }
    }
  }
}

TEST(ShardEquivalenceTest, QueryByBurstIsShardCountInvisible) {
  for (uint64_t seed : kSeeds) {
    core::S2Engine single = MakeSingle(seed);
    for (size_t shards : kShardCounts) {
      ShardedEngine sharded = MakeSharded(seed, shards);
      for (ts::SeriesId id = 0; id < kNumSeries; id += 13) {
        auto expected =
            single.QueryByBurst(id, kK, core::BurstHorizon::kLongTerm);
        ASSERT_TRUE(expected.ok());
        auto actual = sharded.QueryByBurst(id, kK, core::BurstHorizon::kLongTerm);
        ASSERT_TRUE(actual.ok());
        ExpectSameMatches(*expected, *actual,
                          "qbb seed " + std::to_string(seed) + " shards " +
                              std::to_string(shards) + " id " +
                              std::to_string(id));
      }
    }
  }
}

TEST(ShardEquivalenceTest, FindByNameResolvesLikeTheSingleCatalog) {
  const uint64_t seed = kSeeds[0];
  core::S2Engine single = MakeSingle(seed);
  ShardedEngine sharded = MakeSharded(seed, 3);
  for (ts::SeriesId id = 0; id < kNumSeries; id += 9) {
    const std::string& name = single.corpus().at(id).name;
    auto expected = single.FindByName(name);
    auto actual = sharded.FindByName(name);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok());
    EXPECT_EQ(*expected, *actual) << name;
  }
  EXPECT_FALSE(sharded.FindByName("no_such_query").ok());
}

TEST(ShardEquivalenceTest, AddSeriesKeepsEquivalenceAndBalance) {
  const uint64_t seed = kSeeds[2];
  core::S2Engine single = MakeSingle(seed);
  ShardedEngine sharded = MakeSharded(seed, 3);

  qlog::CorpusSpec spec;
  spec.num_series = kNumSeries;
  spec.n_days = kDays;
  spec.seed = seed;
  auto extra = qlog::GenerateQueries(spec, 6);
  ASSERT_TRUE(extra.ok());
  for (const ts::TimeSeries& series : *extra) {
    auto single_id = single.AddSeries(series);
    auto sharded_id = sharded.AddSeries(series);
    ASSERT_TRUE(single_id.ok());
    ASSERT_TRUE(sharded_id.ok());
    // Global ids stay dense and aligned with the single engine's.
    EXPECT_EQ(*single_id, *sharded_id);
  }
  ASSERT_TRUE(sharded.ValidateInvariants().ok());

  // Least-loaded routing from a round-robin start keeps shards balanced.
  size_t min_size = sharded.shard(0).corpus().size();
  size_t max_size = min_size;
  for (size_t s = 1; s < sharded.num_shards(); ++s) {
    min_size = std::min(min_size, sharded.shard(s).corpus().size());
    max_size = std::max(max_size, sharded.shard(s).corpus().size());
  }
  EXPECT_LE(max_size - min_size, 1u);

  // Queries over the grown corpus still match, including for the new ids.
  for (ts::SeriesId id : {ts::SeriesId{0}, ts::SeriesId{kNumSeries},
                          ts::SeriesId{kNumSeries + 5}}) {
    auto expected = single.SimilarTo(id, kK);
    auto actual = sharded.SimilarTo(id, kK);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok());
    ExpectSameNeighbors(*expected, *actual, "post-add id " + std::to_string(id));
  }
}

TEST(ShardEquivalenceTest, AddSeriesPlacementIsDeterministicWithLowestShardTies) {
  // Pins the least-loaded tie-break documented in ShardedEngine::AddSeries:
  // on equal load the *lowest* shard id wins, so placement is a pure
  // function of the AddSeries sequence. 72 series over 3 shards start out
  // at 24 apiece, so each wave of three adds must sweep shards 0, 1, 2 in
  // that order. If this test breaks, so does WAL replay onto a rebuilt
  // sharded server (replay assumes ids resolve to the same owners).
  const uint64_t seed = kSeeds[0];
  ShardedEngine sharded = MakeSharded(seed, 3);
  qlog::CorpusSpec spec;
  spec.num_series = kNumSeries;
  spec.n_days = kDays;
  spec.seed = seed;
  auto extra = qlog::GenerateQueries(spec, 7);
  ASSERT_TRUE(extra.ok());

  const uint32_t want_shard[] = {0, 1, 2, 0, 1, 2, 0};
  for (size_t i = 0; i < extra->size(); ++i) {
    auto id = sharded.AddSeries((*extra)[i]);
    ASSERT_TRUE(id.ok());
    auto placement = sharded.PlacementOf(*id);
    ASSERT_TRUE(placement.ok());
    EXPECT_EQ(placement->shard, want_shard[i]) << "add " << i;
  }

  // Replaying the identical sequence into a second engine reproduces every
  // placement bit-for-bit — nothing about routing depends on hidden state.
  ShardedEngine replayed = MakeSharded(seed, 3);
  for (const ts::TimeSeries& series : *extra) {
    ASSERT_TRUE(replayed.AddSeries(series).ok());
  }
  ASSERT_EQ(replayed.size(), sharded.size());
  for (ts::SeriesId id = 0; id < sharded.size(); ++id) {
    auto a = sharded.PlacementOf(id);
    auto b = replayed.PlacementOf(id);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->shard, b->shard) << "id " << id;
    EXPECT_EQ(a->local, b->local) << "id " << id;
  }
}

TEST(ShardEquivalenceTest, ServerAnswersMatchAcrossTopologies) {
  // The same invisibility must hold one layer up, through S2Server::Build:
  // a one-shard server (whose fan-out runs inline) and a four-shard one
  // give bit-identical answers to every verb.
  const uint64_t seed = kSeeds[1];
  service::S2Server::Options one_options;
  one_options.scheduler.threads = 1;
  service::S2Server::Options four_options = one_options;
  four_options.shards = 4;
  auto one = service::S2Server::Build(MakeCorpus(seed), EngineOptions(),
                                      one_options);
  auto four = service::S2Server::Build(MakeCorpus(seed), EngineOptions(),
                                       four_options);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(four.ok());
  EXPECT_EQ((*one)->sharded().num_shards(), 1u);
  EXPECT_EQ((*four)->sharded().num_shards(), 4u);
  for (service::RequestKind kind :
       {service::RequestKind::kSimilarTo, service::RequestKind::kSimilarToDtw,
        service::RequestKind::kPeriodsOf, service::RequestKind::kBurstsOf,
        service::RequestKind::kQueryByBurst,
        service::RequestKind::kApproxKnn}) {
    SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)));
    service::QueryRequest request;
    request.kind = kind;
    request.id = 3;
    request.k = kK;
    service::QueryResponse a = (*one)->Execute(request);
    service::QueryResponse b = (*four)->Execute(request);
    ASSERT_TRUE(a.status.ok()) << a.status.ToString();
    ASSERT_TRUE(b.status.ok()) << b.status.ToString();
    const bool similarity = kind == service::RequestKind::kSimilarTo ||
                            kind == service::RequestKind::kSimilarToDtw ||
                            kind == service::RequestKind::kApproxKnn;
    EXPECT_EQ(a.neighbors.empty(), !similarity);
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
    for (size_t i = 0; i < a.neighbors.size(); ++i) {
      EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id);
      EXPECT_EQ(a.neighbors[i].distance, b.neighbors[i].distance);
    }
    EXPECT_EQ(a.approximate, b.approximate);
    EXPECT_EQ(a.quality.guaranteed_exact, b.quality.guaranteed_exact);
    EXPECT_EQ(a.quality.epsilon, b.quality.epsilon);
    EXPECT_EQ(a.quality.threshold_lb, b.quality.threshold_lb);
    EXPECT_EQ(a.quality.candidates, b.quality.candidates);
    EXPECT_EQ(a.quality.population, b.quality.population);
    ASSERT_EQ(a.periods.size(), b.periods.size());
    for (size_t i = 0; i < a.periods.size(); ++i) {
      EXPECT_EQ(a.periods[i].bin, b.periods[i].bin);
      EXPECT_EQ(a.periods[i].power, b.periods[i].power);
    }
    ASSERT_EQ(a.bursts.size(), b.bursts.size());
    for (size_t i = 0; i < a.bursts.size(); ++i) {
      EXPECT_EQ(a.bursts[i].start, b.bursts[i].start);
      EXPECT_EQ(a.bursts[i].end, b.bursts[i].end);
      EXPECT_EQ(a.bursts[i].avg_value, b.bursts[i].avg_value);
    }
    ASSERT_EQ(a.burst_matches.size(), b.burst_matches.size());
    for (size_t i = 0; i < a.burst_matches.size(); ++i) {
      EXPECT_EQ(a.burst_matches[i].series_id, b.burst_matches[i].series_id);
      EXPECT_EQ(a.burst_matches[i].bsim, b.burst_matches[i].bsim);
    }
  }
  // Both topologies export fan-out metrics: every one-shard request fans
  // out to its one shard.
  EXPECT_GT((*one)->metrics().counter("server_shard_fanout")->value(), 0u);
  EXPECT_GT((*four)->metrics().counter("server_shard_fanout")->value(), 0u);
}

TEST(ShardEquivalenceTest, DiskResidentShardsStayEquivalent) {
  const uint64_t seed = kSeeds[0];
  core::S2Engine single = MakeSingle(seed);
  io::MemEnv env;
  ShardedEngine::Options options;
  options.num_shards = 3;
  options.engine = EngineOptions();
  options.engine.disk_store_path = "equiv_store.bin";
  options.engine.env = &env;
  auto sharded = ShardedEngine::Build(MakeCorpus(seed), options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  for (ts::SeriesId id = 0; id < kNumSeries; id += 19) {
    auto expected = single.SimilarTo(id, kK);
    auto actual = sharded->SimilarTo(id, kK);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    ExpectSameNeighbors(*expected, *actual, "disk-resident shards");
  }
}

}  // namespace
}  // namespace s2::shard
