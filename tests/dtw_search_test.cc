#include "dtw/dtw_search.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dsp/stats.h"
#include "dtw/dtw.h"
#include "io/fault_env.h"
#include "io/mem_env.h"
#include "querylog/corpus_generator.h"
#include "storage/sequence_store.h"

namespace s2::dtw {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Fixture {
  std::vector<std::vector<double>> rows;
  std::vector<std::vector<double>> queries;
};

Fixture MakeFixture(size_t num_series, size_t n_days, size_t num_queries,
                    uint64_t seed) {
  qlog::CorpusSpec spec;
  spec.num_series = num_series;
  spec.n_days = n_days;
  spec.seed = seed;
  auto corpus = qlog::GenerateCorpus(spec);
  EXPECT_TRUE(corpus.ok());
  Fixture fx;
  for (const auto& series : corpus->series()) {
    fx.rows.push_back(dsp::Standardize(series.values));
  }
  auto queries = qlog::GenerateQueries(spec, num_queries);
  EXPECT_TRUE(queries.ok());
  for (const auto& q : *queries) fx.queries.push_back(dsp::Standardize(q.values));
  return fx;
}

// Every row's complete DTW, ascending by (distance, id), cut to k.
std::vector<std::pair<double, ts::SeriesId>> BruteForceDtw(
    const std::vector<std::vector<double>>& rows,
    const std::vector<double>& query, size_t window, size_t k) {
  std::vector<std::pair<double, ts::SeriesId>> dists;
  for (ts::SeriesId id = 0; id < rows.size(); ++id) {
    dists.emplace_back(*DtwDistance(query, rows[id], window), id);
  }
  std::sort(dists.begin(), dists.end());
  dists.resize(std::min(k, dists.size()));
  return dists;
}

// The search must return the brute-force top-k distances bit for bit, and
// every returned id must really lie at its reported distance (ties may
// order equal distances differently).
void ExpectMatchesBruteForce(const std::vector<std::vector<double>>& rows,
                             const std::vector<double>& query, size_t window,
                             size_t k, storage::SequenceSource* source,
                             const std::string& where) {
  const auto expected = BruteForceDtw(rows, query, window, k);
  DtwKnnSearch search({window});
  auto got = search.Search(query, k, rows, source, nullptr);
  ASSERT_TRUE(got.ok()) << where << ": " << got.status().message();
  ASSERT_EQ(got->size(), expected.size()) << where;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*got)[i].distance, expected[i].first) << where << " rank " << i;
    EXPECT_EQ((*got)[i].distance, *DtwDistance(query, rows[(*got)[i].id], window))
        << where << " rank " << i;
  }
}

TEST(DtwKnnSearchTest, ValidatesArguments) {
  Fixture fx = MakeFixture(20, 64, 1, 1);
  DtwKnnSearch search({16});
  EXPECT_FALSE(search.Search(fx.queries[0], 0, fx.rows, nullptr, nullptr).ok());
  EXPECT_FALSE(
      search.Search(std::vector<double>(5, 0.0), 1, fx.rows, nullptr, nullptr)
          .ok());
  EXPECT_FALSE(search.Search({}, 1, fx.rows, nullptr, nullptr).ok());
  auto fewer = storage::InMemorySequenceSource::Create(
      std::vector<std::vector<double>>(fx.rows.begin(), fx.rows.end() - 1));
  ASSERT_TRUE(fewer.ok());
  EXPECT_FALSE(
      search.Search(fx.queries[0], 1, fx.rows, fewer->get(), nullptr).ok());
}

class DtwExactnessTest : public ::testing::TestWithParam<size_t /*window*/> {};

TEST_P(DtwExactnessTest, MatchesBruteForce) {
  const size_t window = GetParam();
  Fixture fx = MakeFixture(120, 128, 6, 42);
  for (const auto& query : fx.queries) {
    for (size_t k : {1u, 5u}) {
      ExpectMatchesBruteForce(fx.rows, query, window, k, nullptr,
                              "w=" + std::to_string(window) +
                                  " k=" + std::to_string(k));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, DtwExactnessTest, ::testing::Values(4u, 16u));

// An adversarial corpus for the Euclidean seed: duplicates of the query
// (DTW = ED = 0), constant rows, and rows that follow the query up to tiny
// noise on a signal that alternates sign every step. For those the
// off-diagonal costs dwarf the diagonal ones, so the identity path is the
// optimal alignment and DTW equals ED up to summation order — the case the
// seed's rounding margin exists for.
std::vector<std::vector<double>> SeedCorpus(const std::vector<double>& query,
                                            size_t num_rows, uint64_t seed) {
  Rng rng(seed);
  const size_t n = query.size();
  std::vector<std::vector<double>> rows;
  for (size_t r = 0; r < num_rows; ++r) {
    std::vector<double> row(n);
    switch (r % 5) {
      case 0:
        row = query;
        break;
      case 1:
        std::fill(row.begin(), row.end(), 0.0);
        break;
      case 2:
        std::fill(row.begin(), row.end(), rng.Uniform(-1.0, 1.0));
        break;
      default:
        for (size_t i = 0; i < n; ++i) row[i] = query[i] + rng.Normal(0.0, 1e-3);
        break;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(DtwKnnSearchTest, FuzzEuclideanSeedIsSoundAndSearchExact) {
  const size_t n = 96;
  const size_t num_rows = 40;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(900 + seed);
    std::vector<double> query(n);
    for (size_t i = 0; i < n; ++i) {
      query[i] = (i % 2 == 0 ? 1.0 : -1.0) * rng.Uniform(1.0, 2.0);
    }
    const auto rows = SeedCorpus(query, num_rows, 500 + seed);
    for (size_t window : {1u, 16u}) {
      // Every row's complete squared DTW, for the true k-th distance.
      std::vector<double> dtw_sq;
      for (const auto& row : rows) {
        dtw_sq.push_back(*DtwDistanceEarlyAbandonSq(row, query, window, kInf));
      }
      std::sort(dtw_sq.begin(), dtw_sq.end());
      for (size_t k :
           {size_t{1}, size_t{10}, num_rows - 1, num_rows, num_rows + 5}) {
        const std::string where = "seed=" + std::to_string(seed) +
                                  " w=" + std::to_string(window) +
                                  " k=" + std::to_string(k);
        // The seed is published before any DP runs and every later value is
        // a complete k-th DTW, so the shared radius never drops below the
        // true k-th distance. Unfilled (k >= N), nothing is published.
        index::SharedRadius shared;
        DtwKnnSearch::SearchStats stats;
        auto got = DtwKnnSearch({window}).Search(query, k, rows, nullptr,
                                                  &stats, &shared);
        ASSERT_TRUE(got.ok()) << where;
        EXPECT_EQ(stats.upper_bounds_computed, num_rows) << where;
        if (k <= num_rows) {
          EXPECT_GE(shared.load(), std::sqrt(dtw_sq[k - 1])) << where;
        } else {
          EXPECT_TRUE(std::isinf(shared.load())) << where;
        }
        ExpectMatchesBruteForce(rows, query, window, k, nullptr, where);
      }
    }
  }
}

TEST(DtwKnnSearchTest, DiskSourceMatchesBruteForce) {
  Fixture fx = MakeFixture(90, 128, 3, 17);
  io::MemEnv env;
  auto store = storage::DiskSequenceStore::Create("/dtw/rows", fx.rows, &env);
  ASSERT_TRUE(store.ok()) << store.status().message();
  for (const auto& query : fx.queries) {
    for (size_t k : {1u, 7u}) {
      (*store)->ResetCounters();
      ExpectMatchesBruteForce(fx.rows, query, 8, k, store->get(),
                              "disk k=" + std::to_string(k));
      // Every candidate row was fetched through the store.
      EXPECT_EQ((*store)->read_count(), fx.rows.size());
    }
  }
}

TEST(DtwKnnSearchTest, DiskReadFaultsReachTheCaller) {
  Fixture fx = MakeFixture(30, 64, 1, 19);
  io::MemEnv mem;
  io::FaultInjectingEnv env(&mem, io::FaultPlan{});
  auto store = storage::DiskSequenceStore::Create("/dtw/rows", fx.rows, &env);
  ASSERT_TRUE(store.ok()) << store.status().message();
  io::FaultPlan plan;
  plan.read_fault_rate = 1.0;
  env.set_plan(plan);
  auto got = DtwKnnSearch({8}).Search(fx.queries[0], 3, fx.rows, store->get(),
                                      nullptr);
  EXPECT_FALSE(got.ok());
}

TEST(DtwKnnSearchTest, SharedRadiusAcrossPartitionsMergesToGlobalTopK) {
  // Scatter-gather: two partitions searched in turn against one shared
  // radius, in either order. Each returns only local rows that can still
  // reach the global top-k, with exact distances, and the merge is the
  // brute-force top-k of the whole corpus bit for bit. The radius left
  // behind never undercuts the true k-th distance.
  Fixture fx = MakeFixture(160, 128, 6, 23);
  const size_t half = fx.rows.size() / 2;
  const std::vector<std::vector<double>> parts[2] = {
      {fx.rows.begin(), fx.rows.begin() + half},
      {fx.rows.begin() + half, fx.rows.end()}};
  const size_t window = 8;
  const size_t k = 5;
  size_t shared_skips = 0;
  for (const auto& query : fx.queries) {
    const auto expected = BruteForceDtw(fx.rows, query, window, k);
    for (size_t first : {0u, 1u}) {
      const std::string where = "first partition " + std::to_string(first);
      index::SharedRadius shared;
      std::vector<std::pair<double, ts::SeriesId>> merged;
      for (size_t p : {first, 1 - first}) {
        DtwKnnSearch::SearchStats stats;
        auto got = DtwKnnSearch({window}).Search(query, k, parts[p], nullptr,
                                                 &stats, &shared);
        ASSERT_TRUE(got.ok()) << where;
        shared_skips += stats.shared_radius_skips;
        for (const index::Neighbor& neighbor : *got) {
          const ts::SeriesId id = neighbor.id + (p == 1 ? half : 0);
          EXPECT_EQ(neighbor.distance, *DtwDistance(query, fx.rows[id], window))
              << where;
          merged.emplace_back(neighbor.distance, id);
        }
      }
      std::sort(merged.begin(), merged.end());
      merged.resize(std::min(k, merged.size()));
      ASSERT_EQ(merged.size(), expected.size()) << where;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(merged[i].first, expected[i].first) << where << " rank " << i;
      }
      EXPECT_GE(shared.load(), expected.back().first) << where;
    }
  }
  // The second partition pruned rows on the first one's radius alone.
  EXPECT_GT(shared_skips, 0u);
}

TEST(DtwKnnSearchTest, EmptyPartitionReturnsNothing) {
  // A partition that holds no rows (a shard that owns no series) answers
  // with an empty list and publishes no radius.
  Fixture fx = MakeFixture(4, 64, 1, 29);
  const std::vector<std::vector<double>> no_rows;
  index::SharedRadius shared;
  DtwKnnSearch::SearchStats stats;
  auto got = DtwKnnSearch({8}).Search(fx.queries[0], 3, no_rows, nullptr,
                                      &stats, &shared);
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_TRUE(got->empty());
  EXPECT_EQ(stats.upper_bounds_computed, 0u);
  EXPECT_EQ(stats.lb_keogh_computed, 0u);
  EXPECT_EQ(stats.dtw_computed, 0u);
  EXPECT_TRUE(std::isinf(shared.load()));
}

TEST(DtwKnnSearchTest, PruningActuallySkipsDpComputations) {
  Fixture fx = MakeFixture(300, 256, 5, 11);
  DtwKnnSearch search({16});
  size_t total_dtw = 0;
  for (const auto& query : fx.queries) {
    DtwKnnSearch::SearchStats stats;
    auto got = search.Search(query, 1, fx.rows, nullptr, &stats);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(stats.upper_bounds_computed, 300u);
    EXPECT_EQ(stats.lb_keogh_computed, stats.lb_keogh_skips + stats.dtw_computed);
    total_dtw += stats.dtw_computed;
  }
  // The cascade must skip the DP for a substantial fraction of candidates
  // (the exact rate depends on the workload; bench_dtw quantifies it).
  EXPECT_LT(total_dtw, 5u * 300u * 3 / 4);
}

TEST(DtwKnnSearchTest, SelfQueryFindsSelf) {
  Fixture fx = MakeFixture(50, 128, 0, 13);
  DtwKnnSearch search({8});
  for (ts::SeriesId id = 0; id < 50; id += 11) {
    auto got = search.Search(fx.rows[id], 1, fx.rows, nullptr, nullptr);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ((*got)[0].distance, 0.0);
  }
}

}  // namespace
}  // namespace s2::dtw
