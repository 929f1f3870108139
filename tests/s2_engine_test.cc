#include "core/s2_engine.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dtw/dtw.h"
#include "io/mem_env.h"
#include "querylog/archetypes.h"
#include "querylog/corpus_generator.h"
#include "querylog/synthesizer.h"

namespace s2::core {
namespace {

ts::Corpus PaperStyleCorpus(size_t extra, size_t n_days, uint64_t seed) {
  // A corpus with the named paper archetypes plus `extra` randomized series.
  Rng rng(seed);
  ts::Corpus corpus;
  auto add = [&](qlog::QueryArchetype archetype) {
    auto series = qlog::Synthesize(archetype, 0, n_days, &rng);
    EXPECT_TRUE(series.ok());
    corpus.Add(std::move(series).ValueOrDie());
  };
  add(qlog::MakeCinema());
  add(qlog::MakeEaster());
  add(qlog::MakeElvis());
  add(qlog::MakeFullMoon());
  add(qlog::MakeNordstrom());
  add(qlog::MakeHalloween());
  add(qlog::MakeChristmas());
  add(qlog::MakeFlowers());
  qlog::CorpusSpec spec;
  spec.num_series = extra;
  spec.n_days = n_days;
  spec.seed = seed + 1;
  auto filler = qlog::GenerateCorpus(spec);
  EXPECT_TRUE(filler.ok());
  for (auto& series : filler->series()) corpus.Add(series);
  return corpus;
}

S2Engine MakeEngine(size_t extra = 60, size_t n_days = 512, uint64_t seed = 5) {
  S2Engine::Options options;
  auto engine = S2Engine::Build(PaperStyleCorpus(extra, n_days, seed), options);
  EXPECT_TRUE(engine.ok());
  return std::move(engine).ValueOrDie();
}

// Every other series' complete banded DTW to `id` over the engine's
// current standardized rows, ascending by (distance, id), cut to k.
std::vector<std::pair<double, ts::SeriesId>> BruteForceDtw(
    const S2Engine& engine, ts::SeriesId id, size_t window, size_t k) {
  std::vector<std::pair<double, ts::SeriesId>> dists;
  for (ts::SeriesId other = 0; other < engine.corpus().size(); ++other) {
    if (other == id) continue;
    dists.emplace_back(*dtw::DtwDistance(engine.standardized(id),
                                         engine.standardized(other), window),
                       other);
  }
  std::sort(dists.begin(), dists.end());
  dists.resize(std::min(k, dists.size()));
  return dists;
}

void ExpectSameNeighbors(const std::vector<index::Neighbor>& want,
                         const std::vector<index::Neighbor>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].id, got[i].id) << "rank " << i;
    EXPECT_EQ(want[i].distance, got[i].distance) << "rank " << i;
  }
}

TEST(S2EngineTest, BuildValidatesInput) {
  S2Engine::Options options;
  EXPECT_FALSE(S2Engine::Build(ts::Corpus(), options).ok());
  ts::Corpus ragged;
  ragged.Add(ts::TimeSeries{"a", 0, std::vector<double>(10, 1.0)});
  ragged.Add(ts::TimeSeries{"b", 0, std::vector<double>(20, 1.0)});
  EXPECT_FALSE(S2Engine::Build(std::move(ragged), options).ok());
}

TEST(S2EngineTest, FindByName) {
  S2Engine engine = MakeEngine();
  auto id = engine.FindByName("cinema");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(engine.corpus().at(*id).name, "cinema");
  EXPECT_EQ(engine.FindByName("no such query").status().code(),
            StatusCode::kNotFound);
}

TEST(S2EngineTest, SimilarToExcludesSelfAndOrdersByDistance) {
  S2Engine engine = MakeEngine();
  const ts::SeriesId cinema = *engine.FindByName("cinema");
  auto neighbors = engine.SimilarTo(cinema, 5);
  ASSERT_TRUE(neighbors.ok());
  ASSERT_EQ(neighbors->size(), 5u);
  for (const auto& n : *neighbors) EXPECT_NE(n.id, cinema);
  for (size_t i = 1; i < neighbors->size(); ++i) {
    EXPECT_LE((*neighbors)[i - 1].distance, (*neighbors)[i].distance);
  }
}

TEST(S2EngineTest, WeeklySeriesRetrieveWeeklySeries) {
  // The semantic-similarity claim: week-periodic queries should be nearest
  // to other week-periodic queries.
  S2Engine engine = MakeEngine(/*extra=*/120, /*n_days=*/512, /*seed=*/8);
  const ts::SeriesId cinema = *engine.FindByName("cinema");
  auto neighbors = engine.SimilarTo(cinema, 5);
  ASSERT_TRUE(neighbors.ok());
  size_t weekly_like = 0;
  for (const auto& n : *neighbors) {
    const std::string& name = engine.corpus().at(n.id).name;
    if (name.starts_with("weekly_") || name == "nordstrom") ++weekly_like;
  }
  EXPECT_GE(weekly_like, 3u);
}

TEST(S2EngineTest, SimilarToSeriesAcceptsExternalQueries) {
  S2Engine engine = MakeEngine();
  Rng rng(77);
  auto query = qlog::Synthesize(qlog::MakeCinema(), 0, 512, &rng);
  ASSERT_TRUE(query.ok());
  auto neighbors = engine.SimilarToSeries(query->values, 3);
  ASSERT_TRUE(neighbors.ok());
  ASSERT_EQ(neighbors->size(), 3u);
  // The indexed "cinema" series must be the nearest match.
  EXPECT_EQ(engine.corpus().at((*neighbors)[0].id).name, "cinema");
}

TEST(S2EngineTest, FindPeriodsOnArchetypes) {
  S2Engine engine = MakeEngine();
  auto cinema_periods = engine.FindPeriods(*engine.FindByName("cinema"));
  ASSERT_TRUE(cinema_periods.ok());
  ASSERT_FALSE(cinema_periods->empty());
  EXPECT_NEAR(cinema_periods->front().period, 7.0, 0.2);

  auto moon_periods = engine.FindPeriods(*engine.FindByName("full moon"));
  ASSERT_TRUE(moon_periods.ok());
  ASSERT_FALSE(moon_periods->empty());
  EXPECT_NEAR(moon_periods->front().period, 29.53, 2.0);
}

TEST(S2EngineTest, BurstsOfSeasonalQueryLandOnSeason) {
  S2Engine engine = MakeEngine();
  auto bursts = engine.BurstsOf(*engine.FindByName("halloween"),
                                BurstHorizon::kLongTerm);
  ASSERT_TRUE(bursts.ok());
  ASSERT_FALSE(bursts->empty());
  // Both Halloweens within 512 days: around day 304 and day 670.
  bool near_halloween = false;
  for (const auto& b : *bursts) {
    if ((b.start >= 280 && b.start <= 360) || (b.start >= 640 && b.start <= 720)) {
      near_halloween = true;
    }
  }
  EXPECT_TRUE(near_halloween);
}

TEST(S2EngineTest, QueryByBurstFindsCoSeasonalQueries) {
  // "christmas" and "nordstrom" (holiday swell) share December bursts.
  S2Engine engine = MakeEngine(/*extra=*/40);
  const ts::SeriesId christmas = *engine.FindByName("christmas");
  auto matches = engine.QueryByBurst(christmas, 10, BurstHorizon::kLongTerm);
  ASSERT_TRUE(matches.ok());
  ASSERT_FALSE(matches->empty());
  bool found_nordstrom = false;
  for (const auto& m : *matches) {
    EXPECT_NE(m.series_id, christmas);
    if (engine.corpus().at(m.series_id).name == "nordstrom") found_nordstrom = true;
  }
  EXPECT_TRUE(found_nordstrom);
}

TEST(S2EngineTest, QueryByBurstSeriesExternal) {
  S2Engine engine = MakeEngine();
  Rng rng(99);
  auto query = qlog::Synthesize(qlog::MakeHalloween(), 0, 512, &rng);
  ASSERT_TRUE(query.ok());
  auto matches = engine.QueryByBurstSeries(*query, 5, BurstHorizon::kLongTerm);
  ASSERT_TRUE(matches.ok());
  ASSERT_FALSE(matches->empty());
  // The indexed halloween series should be among the matches.
  bool found = false;
  for (const auto& m : *matches) {
    if (engine.corpus().at(m.series_id).name == "halloween") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(S2EngineTest, DiskBackedEngineGivesSameAnswers) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "s2_engine_disk.bin").string();
  ts::Corpus corpus = PaperStyleCorpus(30, 256, 12);

  S2Engine::Options ram_options;
  auto ram = S2Engine::Build(corpus, ram_options);
  ASSERT_TRUE(ram.ok());

  S2Engine::Options disk_options = ram_options;
  disk_options.disk_store_path = path;
  auto disk = S2Engine::Build(corpus, disk_options);
  ASSERT_TRUE(disk.ok());

  for (ts::SeriesId id = 0; id < 8; ++id) {
    auto a = ram->SimilarTo(id, 3);
    auto b = disk->SimilarTo(id, 3);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].id, (*b)[i].id);
      EXPECT_NEAR((*a)[i].distance, (*b)[i].distance, 1e-9);
    }
  }
  std::remove(path.c_str());
}

TEST(S2EngineTest, AddSeriesIncrementalIngestion) {
  S2Engine engine = MakeEngine(30, 256, 21);
  const size_t before = engine.corpus().size();

  Rng rng(31);
  auto archetype = qlog::MakeFlowers();
  archetype.name = "tulip delivery";  // A name not already in the corpus.
  auto newcomer = qlog::Synthesize(archetype, 0, 256, &rng);
  ASSERT_TRUE(newcomer.ok());
  auto id = engine.AddSeries(*newcomer);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(engine.corpus().size(), before + 1);

  // Catalog, similarity, bursts all see the newcomer.
  EXPECT_EQ(*engine.FindByName("tulip delivery"), *id);
  auto self = engine.SimilarToSeries(newcomer->values, 1);
  ASSERT_TRUE(self.ok());
  EXPECT_EQ((*self)[0].id, *id);
  EXPECT_NEAR((*self)[0].distance, 0.0, 1e-9);
  auto bursts = engine.BurstsOf(*id, BurstHorizon::kLongTerm);
  ASSERT_TRUE(bursts.ok());
  EXPECT_FALSE(bursts->empty());
  auto matches = engine.QueryByBurst(*id, 5, BurstHorizon::kLongTerm);
  EXPECT_TRUE(matches.ok());
}

TEST(S2EngineTest, AddSeriesValidates) {
  S2Engine engine = MakeEngine(10, 128, 22);
  ts::TimeSeries wrong_length{"bad", 0, std::vector<double>(37, 1.0)};
  EXPECT_EQ(engine.AddSeries(wrong_length).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(S2EngineTest, AddSeriesRejectedOnDiskEngines) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "s2_engine_add_disk.bin").string();
  S2Engine::Options options;
  options.disk_store_path = path;
  auto engine = S2Engine::Build(PaperStyleCorpus(10, 128, 23), options);
  ASSERT_TRUE(engine.ok());
  ts::TimeSeries series{"x", 0, std::vector<double>(128, 1.0)};
  EXPECT_EQ(engine->AddSeries(series).status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(S2EngineTest, SimilarToDtwFindsWarpedNeighbors) {
  S2Engine engine = MakeEngine(60, 512, 27);
  const ts::SeriesId cinema = *engine.FindByName("cinema");
  dtw::DtwKnnSearch::SearchStats stats;
  auto dtw_neighbors = engine.SimilarToDtw(cinema, 5, &stats);
  ASSERT_TRUE(dtw_neighbors.ok());
  ASSERT_EQ(dtw_neighbors->size(), 5u);
  for (const auto& n : *dtw_neighbors) EXPECT_NE(n.id, cinema);
  // DTW distances never exceed the Euclidean distances to the same ids.
  auto euclid_neighbors = engine.SimilarTo(cinema, 5);
  ASSERT_TRUE(euclid_neighbors.ok());
  EXPECT_LE((*dtw_neighbors)[0].distance, (*euclid_neighbors)[0].distance + 1e-9);
  // The cascade pruned a chunk of the corpus without running the DP.
  EXPECT_GT(stats.lb_keogh_skips, 0u);
  EXPECT_EQ(engine.SimilarToDtw(100000, 1).status().code(), StatusCode::kNotFound);
}

TEST(S2EngineTest, AddSeriesKeepsDtwSearchConsistent) {
  S2Engine engine = MakeEngine(20, 256, 28);
  Rng rng(29);
  auto archetype = qlog::MakeCinema();
  archetype.name = "movie theater";
  auto newcomer = qlog::Synthesize(archetype, 0, 256, &rng);
  ASSERT_TRUE(newcomer.ok());
  auto id = engine.AddSeries(*newcomer);
  ASSERT_TRUE(id.ok());
  // The DTW search must see the new object (sizes in sync) and, being a
  // near-twin of "cinema", rank it first.
  auto dtw_neighbors = engine.SimilarToDtw(*engine.FindByName("cinema"), 3);
  ASSERT_TRUE(dtw_neighbors.ok());
  ASSERT_FALSE(dtw_neighbors->empty());
  EXPECT_EQ((*dtw_neighbors)[0].id, *id);
}

TEST(S2EngineTest, SimilarToDtwSeesAppendedPoints) {
  // The DTW search keeps no per-series state of its own: it reads the
  // standardized rows as they stand. Streaming one series' window onto
  // another's values makes the two rows equal, so each finds the other at
  // DTW distance 0, and every answer equals a brute-force banded scan over
  // the current rows.
  S2Engine::Options options;
  options.dtw_window = 8;
  auto engine = S2Engine::Build(PaperStyleCorpus(20, 128, 41), options);
  ASSERT_TRUE(engine.ok());
  const ts::SeriesId cinema = *engine->FindByName("cinema");
  const ts::SeriesId easter = *engine->FindByName("easter");
  const std::vector<double> values = engine->corpus().at(cinema).values;
  for (double v : values) ASSERT_TRUE(engine->AppendPoint(easter, v).ok());
  ASSERT_EQ(engine->standardized(easter), engine->standardized(cinema));

  for (ts::SeriesId id : {cinema, easter, ts::SeriesId{12}}) {
    SCOPED_TRACE("id " + std::to_string(id));
    auto got = engine->SimilarToDtw(id, 4);
    ASSERT_TRUE(got.ok());
    const auto expected = BruteForceDtw(*engine, id, options.dtw_window, 4);
    ASSERT_EQ(got->size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ((*got)[i].id, expected[i].second) << "rank " << i;
      EXPECT_EQ((*got)[i].distance, expected[i].first) << "rank " << i;
    }
    if (id != 12) {
      EXPECT_EQ((*got)[0].id, id == cinema ? easter : cinema);
      EXPECT_EQ((*got)[0].distance, 0.0);
    }
  }
}

TEST(S2EngineTest, SimilarToDtwExactAgreesWithSearch) {
  // The degraded-mode fallback (a plain early-abandoning scan) and the
  // pruned search run the same DP over the same rows: same ids, same
  // distances, bit for bit.
  S2Engine engine = MakeEngine(40, 256, 43);
  for (ts::SeriesId id = 0; id < engine.corpus().size(); id += 6) {
    SCOPED_TRACE("id " + std::to_string(id));
    auto search = engine.SimilarToDtw(id, 5);
    auto exact = engine.SimilarToDtwExact(id, 5);
    ASSERT_TRUE(search.ok());
    ASSERT_TRUE(exact.ok());
    ExpectSameNeighbors(*exact, *search);
  }
}

TEST(S2EngineTest, DiskBackedEngineGivesSameDtwAnswers) {
  // A disk-resident engine fetches every DTW candidate through its store
  // instead of reading the rows in place; the answers must not change.
  io::MemEnv env;
  ts::Corpus corpus = PaperStyleCorpus(30, 256, 44);
  S2Engine::Options ram_options;
  auto ram = S2Engine::Build(corpus, ram_options);
  ASSERT_TRUE(ram.ok());
  S2Engine::Options disk_options = ram_options;
  disk_options.disk_store_path = "dtw_store.bin";
  disk_options.env = &env;
  auto disk = S2Engine::Build(corpus, disk_options);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  for (ts::SeriesId id = 0; id < 8; ++id) {
    SCOPED_TRACE("id " + std::to_string(id));
    auto a = ram->SimilarToDtw(id, 3);
    auto b = disk->SimilarToDtw(id, 3);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectSameNeighbors(*a, *b);
  }
}

TEST(S2EngineTest, SimilarToSeriesRejectsWrongLength) {
  S2Engine engine = MakeEngine(10, 128, 24);
  EXPECT_FALSE(engine.SimilarToSeries(std::vector<double>(64, 1.0), 1).ok());
}

TEST(S2EngineTest, StandardizedAccessorMatchesManualStandardization) {
  S2Engine engine = MakeEngine(10, 128, 25);
  const auto& raw = engine.corpus().at(0).values;
  const auto z = engine.standardized(0);
  ASSERT_EQ(z.size(), raw.size());
  double mean = 0;
  for (double v : z) mean += v;
  EXPECT_NEAR(mean / static_cast<double>(z.size()), 0.0, 1e-9);
}

TEST(S2EngineTest, BurstHorizonsDiffer) {
  S2Engine engine = MakeEngine(10, 512, 26);
  const ts::SeriesId moon = *engine.FindByName("full moon");
  auto long_bursts = engine.BurstsOf(moon, BurstHorizon::kLongTerm);
  auto short_bursts = engine.BurstsOf(moon, BurstHorizon::kShortTerm);
  ASSERT_TRUE(long_bursts.ok());
  ASSERT_TRUE(short_bursts.ok());
  // The 7-day window resolves the monthly crests that the 30-day one blurs.
  EXPECT_GE(short_bursts->size(), long_bursts->size());
}

TEST(S2EngineTest, BadIdsReturnNotFound) {
  S2Engine engine = MakeEngine(10, 128, 14);
  const ts::SeriesId bad = 100000;
  EXPECT_EQ(engine.SimilarTo(bad, 1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.FindPeriods(bad).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.BurstsOf(bad, BurstHorizon::kLongTerm).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace s2::core
