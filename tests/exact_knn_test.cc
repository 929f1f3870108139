// Exact k-NN through the summary-bounded pass (S2Engine::SimilarToStandardized
// and every verb built on it), checked against brute force:
//
//   * a fuzz over corpora with duplicate rows, constant rows (all zeros once
//     standardized) and near-duplicates whose whole difference lies in one
//     projected summary coordinate, for k in {1, 10, N-1, N, N+5}, with and
//     without exclusion, before and after rows stream in through AppendPoint
//     and AddSeries, on RAM rows and on a DiskSequenceStore over MemEnv, at
//     one and three shards. The reference computes every distance with the
//     engine's kernel (simd::SumSqDiff), so answers must agree bit for bit;
//   * ties: with a quarter of the corpus identical, exact, DTW and
//     full-budget approximate answers are the brute-force (distance, id)
//     top-k at every shard count;
//   * two partitions merged through one shared radius, in both orders;
//   * a disk read fault: kIoError from the engine, a degraded exact answer
//     from the server.

#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/s2_engine.h"
#include "dsp/stats.h"
#include "dtw/dtw.h"
#include "io/fault_env.h"
#include "io/mem_env.h"
#include "service/s2_server.h"
#include "shard/sharded_engine.h"
#include "simd/simd.h"

namespace s2 {
namespace {

using Neighbors = std::vector<index::Neighbor>;
using Rows = std::vector<std::vector<double>>;

constexpr size_t kLength = 64;
// The fuzz corpora carry a strong sinusoid at this bin, so both of its
// summary coordinates are among the best-energy ones the summary keeps.
constexpr size_t kBin = 3;

/// Every row but `exclude`, ranked by (distance, id) and cut to k, with
/// distances from the same kernel the engine uses.
Neighbors BruteForce(const Rows& rows, const std::vector<double>& query,
                     size_t k, ts::SeriesId exclude) {
  Neighbors all;
  for (ts::SeriesId id = 0; id < rows.size(); ++id) {
    if (id == exclude) continue;
    all.push_back({id, std::sqrt(simd::SumSqDiff(query.data(), rows[id].data(),
                                                 query.size()))});
  }
  std::sort(all.begin(), all.end(), index::NeighborLess);
  if (all.size() > k) all.resize(k);
  return all;
}

void ExpectSame(const Neighbors& want, const Result<Neighbors>& got,
                const std::string& where) {
  ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
  ASSERT_EQ(got->size(), want.size()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ((*got)[i].id, want[i].id) << where << " rank " << i;
    EXPECT_EQ((*got)[i].distance, want[i].distance) << where << " rank " << i;
  }
}

/// The standardized rows of a sharded engine, indexed by global id.
Rows GlobalRows(const shard::ShardedEngine& engine) {
  Rows rows(engine.size());
  for (ts::SeriesId g = 0; g < engine.size(); ++g) {
    const auto p = engine.PlacementOf(g).value();
    rows[g] = engine.shard(p.shard).standardized(p.local);
  }
  return rows;
}

std::vector<double> Wave(double amplitude, double phase) {
  std::vector<double> wave(kLength);
  for (size_t t = 0; t < kLength; ++t) {
    wave[t] = amplitude * std::cos(2.0 * std::numbers::pi * kBin *
                                       static_cast<double>(t) / kLength +
                                   phase);
  }
  return wave;
}

/// A random walk around 50 plus a strong sinusoid at kBin.
std::vector<double> Walk(Rng* rng) {
  std::vector<double> values = Wave(rng->Uniform(4.0, 8.0), rng->Uniform(0.0, 6.0));
  double level = 50.0;
  for (double& v : values) {
    level += rng->Normal(0.0, 1.0);
    v += level;
  }
  return values;
}

/// base ± delta·cos(kBin) with the cosine's own component and the mean
/// removed from base: both members have the same mean and the same
/// variance, so once standardized they differ only along the kBin cosine,
/// one projected summary coordinate.
std::pair<std::vector<double>, std::vector<double>> NearDuplicates(Rng* rng) {
  std::vector<double> base = Walk(rng);
  const std::vector<double> cosine = Wave(1.0, 0.0);
  const double mean = dsp::Mean(base);
  double dot = 0.0;
  double norm = 0.0;
  for (size_t t = 0; t < kLength; ++t) {
    dot += (base[t] - mean) * cosine[t];
    norm += cosine[t] * cosine[t];
  }
  const double delta = rng->Uniform(0.01, 0.5);
  std::pair<std::vector<double>, std::vector<double>> pair{base, base};
  for (size_t t = 0; t < kLength; ++t) {
    const double centered = base[t] - mean - dot / norm * cosine[t];
    pair.first[t] = 50.0 + centered + delta * cosine[t];
    pair.second[t] = 50.0 + centered - delta * cosine[t];
  }
  return pair;
}

/// Constant rows (i % 6 == 0), exact duplicates of an earlier row (1),
/// near-duplicate pairs (2 and 3), random walks (4 and 5).
ts::Corpus FuzzCorpus(uint64_t seed, size_t n) {
  Rng rng(seed);
  ts::Corpus corpus;
  std::vector<double> pending;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> values;
    switch (i % 6) {
      case 0:
        values.assign(kLength, rng.Uniform(0.0, 50.0));
        break;
      case 1: {
        const auto source = static_cast<ts::SeriesId>(
            rng.UniformInt(0, static_cast<int64_t>(i) - 1));
        values = corpus.at(source).values;
        break;
      }
      case 2: {
        auto pair = NearDuplicates(&rng);
        values = std::move(pair.first);
        pending = std::move(pair.second);
        break;
      }
      case 3:
        values = std::move(pending);
        break;
      default:
        values = Walk(&rng);
        break;
    }
    corpus.Add({std::to_string(i), 0, std::move(values)});
  }
  return corpus;
}

// --- Fuzz against brute force ------------------------------------------------

struct Topology {
  size_t shards;
  bool disk;
};

class ExactKnnFuzzTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, Topology>> {};

void ExpectAllQueriesExact(const shard::ShardedEngine& engine, Rng* rng,
                           const std::string& where) {
  const Rows rows = GlobalRows(engine);
  const size_t n = rows.size();
  for (size_t q = 0; q < 8; ++q) {
    // Constant rows, duplicates and near-duplicate members all get turns.
    const auto id = static_cast<ts::SeriesId>(q < 6 ? q * 7 % n
                                                    : rng->UniformInt(0, n - 1));
    std::vector<double> raw = engine.Series(id).value()->values;
    raw[q % kLength] += rng->Uniform(-1.0, 1.0);  // An unindexed query.
    const std::vector<double> z = dsp::Standardize(raw);
    for (const size_t k : {size_t{1}, size_t{10}, n - 1, n, n + 5}) {
      const std::string at = where + " id " + std::to_string(id) + " k " +
                             std::to_string(k);
      ExpectSame(BruteForce(rows, rows[id], k, id), engine.SimilarTo(id, k),
                 at + " excluded");
      ExpectSame(BruteForce(rows, z, k, ts::kInvalidSeriesId),
                 engine.SimilarToSeries(raw, k), at + " external");
    }
  }
}

TEST_P(ExactKnnFuzzTest, MatchesBruteForceBeforeAndAfterStreaming) {
  const auto [seed, topology] = GetParam();
  const std::string where = "seed " + std::to_string(seed) + " shards " +
                            std::to_string(topology.shards) +
                            (topology.disk ? " disk" : " ram");
  io::MemEnv env;
  shard::ShardedEngine::Options options;
  options.num_shards = topology.shards;
  if (topology.disk) {
    options.engine.disk_store_path = "fuzz.store";
    options.engine.env = &env;
  }
  auto built = shard::ShardedEngine::Build(FuzzCorpus(seed, 60), options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  shard::ShardedEngine& engine = *built;

  // The near-duplicates really differ in a projected coordinate.
  const approx::SummaryConfig& config = engine.shard(0).summary()->config();
  ASSERT_NE(std::find(config.bins.begin(), config.bins.end(), kBin),
            config.bins.end()) << where;

  Rng rng(seed * 977);
  ExpectAllQueriesExact(engine, &rng, where + " built");

  // Stream: 30 slides of random rows, and on RAM engines more duplicates,
  // near-duplicate pairs and constant rows.
  for (size_t step = 0; step < 30; ++step) {
    const auto id = static_cast<ts::SeriesId>(rng.UniformInt(0, engine.size() - 1));
    ASSERT_TRUE(engine.AppendPoint(id, rng.Uniform(0.0, 100.0)).ok()) << where;
  }
  if (!topology.disk) {
    for (size_t round = 0; round < 3; ++round) {
      auto pair = NearDuplicates(&rng);
      const std::vector<double> copy = engine.Series(5).value()->values;
      ASSERT_TRUE(engine.AddSeries({"near_a", 0, std::move(pair.first)}).ok());
      ASSERT_TRUE(engine.AddSeries({"near_b", 0, std::move(pair.second)}).ok());
      ASSERT_TRUE(engine.AddSeries({"dup", 0, copy}).ok());
      ASSERT_TRUE(
          engine.AddSeries({"flat", 0, std::vector<double>(kLength, 7.0)}).ok());
    }
  }
  ASSERT_TRUE(engine.ValidateInvariants().ok()) << where;
  ExpectAllQueriesExact(engine, &rng, where + " streamed");
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndTopologies, ExactKnnFuzzTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(Topology{1, false}, Topology{3, false},
                                         Topology{1, true}, Topology{3, true})),
    [](const auto& info) {
      const Topology topology = std::get<1>(info.param);
      return "seed" + std::to_string(std::get<0>(info.param)) + "_shards" +
             std::to_string(topology.shards) + (topology.disk ? "_disk" : "_ram");
    });

// --- Ties across shard counts -------------------------------------------------

constexpr size_t kTieSeries = 120;
constexpr size_t kDtwWindow = 6;

/// 120 random walks, a quarter of them one identical series, so distances
/// tie across shard boundaries for every query.
ts::Corpus TieCorpus() {
  Rng rng(4242);
  ts::Corpus corpus;
  const std::vector<double> twin = Walk(&rng);
  for (size_t i = 0; i < kTieSeries; ++i) {
    corpus.Add({std::to_string(i), 0, i % 4 == 1 ? twin : Walk(&rng)});
  }
  return corpus;
}

class ExactKnnTieTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    shard::ShardedEngine::Options options;
    options.num_shards = GetParam();
    options.engine.dtw_window = kDtwWindow;
    auto built = shard::ShardedEngine::Build(TieCorpus(), options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    engine_ = std::make_unique<shard::ShardedEngine>(std::move(built).ValueOrDie());
    rows_ = GlobalRows(*engine_);
  }

  // Twins (1, 5) and two ordinary series, whose nearest rows include the
  // whole block of tied twins.
  static constexpr ts::SeriesId kQueries[] = {1, 5, 0, 42};
  static constexpr size_t kKs[] = {2, 5, 9, 14};

  std::unique_ptr<shard::ShardedEngine> engine_;
  Rows rows_;
};

TEST_P(ExactKnnTieTest, ExactAnswersAreTheBruteForceTopK) {
  for (const ts::SeriesId id : kQueries) {
    for (const size_t k : kKs) {
      ExpectSame(BruteForce(rows_, rows_[id], k, id), engine_->SimilarTo(id, k),
                 "id " + std::to_string(id) + " k " + std::to_string(k));
    }
  }
}

TEST_P(ExactKnnTieTest, DtwAnswersAreTheBruteForceTopK) {
  for (const ts::SeriesId id : kQueries) {
    Neighbors all;
    for (ts::SeriesId other = 0; other < rows_.size(); ++other) {
      if (other == id) continue;
      all.push_back({other, *dtw::DtwDistance(rows_[id], rows_[other], kDtwWindow)});
    }
    std::sort(all.begin(), all.end(), index::NeighborLess);
    for (const size_t k : kKs) {
      const Neighbors want(all.begin(), all.begin() + static_cast<ptrdiff_t>(k));
      ExpectSame(want, engine_->SimilarToDtw(id, k),
                 "id " + std::to_string(id) + " k " + std::to_string(k));
    }
  }
}

TEST_P(ExactKnnTieTest, FullBudgetApproximateAnswersAreTheBruteForceTopK) {
  for (const ts::SeriesId id : kQueries) {
    for (const size_t k : kKs) {
      approx::QueryParams params;
      params.k = k;
      params.max_candidates = kTieSeries;
      auto answer = engine_->ApproxKnn(id, params);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      EXPECT_TRUE(answer->bound.guaranteed_exact);
      ExpectSame(BruteForce(rows_, rows_[id], k, id), answer->neighbors,
                 "id " + std::to_string(id) + " k " + std::to_string(k));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ExactKnnTieTest,
                         ::testing::Values(1u, 2u, 3u, 8u));

// --- Shared radius ------------------------------------------------------------

TEST(ExactKnnTest, SharedRadiusAcrossPartitionsMergesToGlobalTopK) {
  // Two engines over the halves of one corpus, searched in turn against one
  // shared radius, in either order. Each returns only the local rows that
  // can still reach the global top-k, with exact distances, and the merge
  // is the brute-force top-k bit for bit; the second partition prunes rows
  // on the first one's radius alone.
  ts::Corpus corpus = FuzzCorpus(77, 120);
  const Rows rows = [&] {
    Rows out;
    for (const auto& series : corpus.series()) {
      out.push_back(dsp::Standardize(series.values));
    }
    return out;
  }();
  const size_t half = rows.size() / 2;
  ts::Corpus parts[2];
  for (size_t i = 0; i < corpus.size(); ++i) {
    parts[i < half ? 0 : 1].Add(corpus.at(static_cast<ts::SeriesId>(i)));
  }
  // One summary configuration for both halves, as ShardedEngine installs.
  core::S2Engine::Options options;
  options.approx.preset_config = std::make_shared<const approx::SummaryConfig>(
      approx::SummaryConfig::Train(rows, options.approx.summary).value());
  std::vector<core::S2Engine> engines;
  for (ts::Corpus& part : parts) {
    engines.push_back(core::S2Engine::Build(std::move(part), options).value());
  }

  const size_t k = 5;
  size_t shared_prunes = 0;
  for (ts::SeriesId query = 0; query < rows.size(); query += 11) {
    const Neighbors want = BruteForce(rows, rows[query], k, query);
    for (const size_t first : {0u, 1u}) {
      index::SharedRadius shared;
      Neighbors merged;
      for (const size_t p : {first, 1 - first}) {
        const size_t offset = p == 0 ? 0 : half;
        const bool owner = (query >= half) == (p == 1);
        index::VpTreeIndex::SearchStats stats;
        auto got = engines[p].SimilarToStandardized(
            rows[query], k,
            owner ? static_cast<ts::SeriesId>(query - offset) : ts::kInvalidSeriesId,
            &stats, &shared);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        shared_prunes += stats.shared_radius_prunes;
        EXPECT_EQ(stats.nodes_visited, 0u);
        EXPECT_EQ(stats.bound_computations, half - (owner ? 1 : 0));
        EXPECT_LE(stats.full_retrievals, stats.bound_computations);
        for (const index::Neighbor& neighbor : *got) {
          merged.push_back(
              {static_cast<ts::SeriesId>(neighbor.id + offset), neighbor.distance});
        }
      }
      std::sort(merged.begin(), merged.end(), index::NeighborLess);
      if (merged.size() > k) merged.resize(k);
      ExpectSame(want, merged,
                 "query " + std::to_string(query) + " first " + std::to_string(first));
      EXPECT_GE(shared.load(), want.back().distance);
    }
  }
  EXPECT_GT(shared_prunes, 0u);
}

// --- Disk read faults -----------------------------------------------------------

TEST(ExactKnnTest, DiskReadFaultFailsTheEngineAndDegradesTheServer) {
  io::MemEnv mem;
  io::FaultInjectingEnv env(&mem, io::FaultPlan{});
  shard::ShardedEngine::Options options;
  options.num_shards = 1;
  options.engine.disk_store_path = "faulty.store";
  options.engine.env = &env;
  options.engine.retry.max_attempts = 2;
  auto built = shard::ShardedEngine::Build(FuzzCorpus(5, 48), options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const Rows rows = GlobalRows(*built);
  const Neighbors want = BruteForce(rows, rows[3], 5, 3);

  io::FaultPlan plan;
  plan.read_fault_rate = 1.0;
  plan.faults_are_transient = false;
  env.set_plan(plan);
  EXPECT_EQ(built->shard(0).SimilarTo(3, 5).status().code(), StatusCode::kIoError);

  service::S2Server::Options server_options;
  server_options.scheduler.threads = 1;
  server_options.cache_capacity = 0;
  auto server = service::S2Server::Create(std::move(built).ValueOrDie(),
                                          server_options);
  service::QueryRequest request;
  request.kind = service::RequestKind::kSimilarTo;
  request.id = 3;
  request.k = 5;
  const service::QueryResponse response = server->Execute(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.degraded);
  EXPECT_FALSE(response.approximate);
  ExpectSame(want, response.neighbors, "degraded");
}

}  // namespace
}  // namespace s2
