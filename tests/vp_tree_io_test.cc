#include <cstdio>
#include <filesystem>
#include <memory>

#include <gtest/gtest.h>

#include "dsp/stats.h"
#include "index/vp_tree.h"
#include "querylog/corpus_generator.h"
#include "storage/sequence_store.h"

namespace s2::index {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

struct Fixture {
  std::vector<std::vector<double>> rows;
  std::vector<std::vector<double>> queries;
  std::unique_ptr<storage::InMemorySequenceSource> source;
};

Fixture MakeFixture(size_t num_series, uint64_t seed) {
  qlog::CorpusSpec spec;
  spec.num_series = num_series;
  spec.n_days = 256;
  spec.seed = seed;
  auto corpus = qlog::GenerateCorpus(spec);
  EXPECT_TRUE(corpus.ok());
  Fixture fx;
  for (const auto& series : corpus->series()) {
    fx.rows.push_back(dsp::Standardize(series.values));
  }
  auto queries = qlog::GenerateQueries(spec, 6);
  EXPECT_TRUE(queries.ok());
  for (const auto& q : *queries) fx.queries.push_back(dsp::Standardize(q.values));
  auto source = storage::InMemorySequenceSource::Create(fx.rows);
  EXPECT_TRUE(source.ok());
  fx.source = std::move(source).ValueOrDie();
  return fx;
}

TEST(VpTreeIoTest, SaveLoadRoundTripGivesIdenticalSearches) {
  Fixture fx = MakeFixture(200, 51);
  VpTreeIndex::Options options;
  options.budget_c = 16;
  options.leaf_size = 4;
  auto built = VpTreeIndex::Build(fx.rows, options);
  ASSERT_TRUE(built.ok());

  const std::string path = TempPath("s2_vptree_roundtrip.bin");
  ASSERT_TRUE(built->Save(path).ok());
  auto loaded = VpTreeIndex::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), built->size());
  EXPECT_EQ(loaded->CompressedBytes(), built->CompressedBytes());
  EXPECT_EQ(loaded->options().budget_c, options.budget_c);

  for (const auto& query : fx.queries) {
    VpTreeIndex::SearchStats stats_a;
    VpTreeIndex::SearchStats stats_b;
    auto a = built->Search(query, 3, fx.source.get(), &stats_a);
    auto b = loaded->Search(query, 3, fx.source.get(), &stats_b);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].id, (*b)[i].id);
      EXPECT_DOUBLE_EQ((*a)[i].distance, (*b)[i].distance);
    }
    // Identical traversal behaviour, not just identical answers.
    EXPECT_EQ(stats_a.bound_computations, stats_b.bound_computations);
    EXPECT_EQ(stats_a.full_retrievals, stats_b.full_retrievals);
  }
  std::remove(path.c_str());
}

TEST(VpTreeIoTest, CorruptFilesRejected) {
  EXPECT_EQ(VpTreeIndex::Load("/no/such/index.bin").status().code(),
            StatusCode::kNotFound);
  const std::string path = TempPath("s2_vptree_corrupt.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("GARBAGE!", 1, 8, f);
  std::fclose(f);
  EXPECT_EQ(VpTreeIndex::Load(path).status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(VpTreeIoTest, TruncationDetected) {
  Fixture fx = MakeFixture(60, 54);
  VpTreeIndex::Options options;
  options.budget_c = 8;
  auto built = VpTreeIndex::Build(fx.rows, options);
  ASSERT_TRUE(built.ok());
  const std::string path = TempPath("s2_vptree_trunc.bin");
  ASSERT_TRUE(built->Save(path).ok());
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size * 2 / 3);
  EXPECT_EQ(VpTreeIndex::Load(path).status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace s2::index
