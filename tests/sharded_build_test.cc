// ShardedEngine::Build: the round-robin split moves every series intact
// into its shard, the shard count is clamped to the corpus, disk-resident
// shards store under per-shard paths and environments, shard 0 builds on
// the calling thread while the others build on the pool, and any failed
// shard build fails the whole build.

#include "shard/sharded_engine.h"

#include <array>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/s2_engine.h"
#include "io/fault_env.h"
#include "io/mem_env.h"
#include "querylog/corpus_generator.h"

namespace s2::shard {
namespace {

constexpr size_t kNumSeries = 24;

ts::Corpus MakeCorpus(size_t num_series = kNumSeries) {
  qlog::CorpusSpec spec;
  spec.num_series = num_series;
  spec.n_days = 128;
  spec.seed = 71;
  auto corpus = qlog::GenerateCorpus(spec);
  EXPECT_TRUE(corpus.ok()) << corpus.status().ToString();
  return std::move(corpus).ValueOrDie();
}

ShardedEngine::Options MakeOptions(size_t num_shards) {
  ShardedEngine::Options options;
  options.num_shards = num_shards;
  options.engine.index.budget_c = 8;
  options.engine.index.leaf_size = 4;
  return options;
}

/// A MemEnv that remembers which threads opened files through it. A
/// disk-resident shard creates its store through its env while it builds,
/// so the recorded ids name the threads that built the shard.
class ThreadRecordingEnv : public io::MemEnv {
 public:
  Result<std::unique_ptr<io::File>> Open(const std::string& path,
                                         io::OpenMode mode) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      openers_.insert(std::this_thread::get_id());
    }
    return io::MemEnv::Open(path, mode);
  }

  std::set<std::thread::id> openers() const {
    std::lock_guard<std::mutex> lock(mu_);
    return openers_;
  }

 private:
  mutable std::mutex mu_;
  std::set<std::thread::id> openers_;
};

TEST(ShardedBuildTest, EverySeriesMovesIntactIntoItsRoundRobinShard) {
  const ts::Corpus want = MakeCorpus();
  for (const size_t n : {1u, 2u, 3u, 5u}) {
    SCOPED_TRACE("shards " + std::to_string(n));
    auto engine = ShardedEngine::Build(MakeCorpus(), MakeOptions(n));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_EQ(engine->num_shards(), n);
    ASSERT_EQ(engine->size(), want.size());

    size_t total = 0;
    for (size_t s = 0; s < n; ++s) total += engine->shard(s).corpus().size();
    EXPECT_EQ(total, want.size());

    for (ts::SeriesId g = 0; g < want.size(); ++g) {
      auto placement = engine->PlacementOf(g);
      ASSERT_TRUE(placement.ok());
      EXPECT_EQ(placement->shard, g % n) << "global " << g;
      EXPECT_EQ(placement->local, g / n) << "global " << g;
      EXPECT_EQ(engine->GlobalId(placement->shard, placement->local), g);

      auto series = engine->Series(g);
      ASSERT_TRUE(series.ok());
      EXPECT_EQ((*series)->name, want.at(g).name) << "global " << g;
      EXPECT_EQ((*series)->start_day, want.at(g).start_day) << "global " << g;
      EXPECT_EQ((*series)->values, want.at(g).values) << "global " << g;
    }
    EXPECT_TRUE(engine->ValidateInvariants().ok());
  }
}

TEST(ShardedBuildTest, ShardCountIsClampedToTheCorpusSize) {
  auto more_shards_than_series = ShardedEngine::Build(MakeCorpus(3), MakeOptions(8));
  ASSERT_TRUE(more_shards_than_series.ok());
  ASSERT_EQ(more_shards_than_series->num_shards(), 3u);
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(more_shards_than_series->shard(s).corpus().size(), 1u);
  }

  // 0 asks for one shard per hardware thread, still at most one per series.
  auto automatic = ShardedEngine::Build(MakeCorpus(3), MakeOptions(0));
  ASSERT_TRUE(automatic.ok());
  EXPECT_GE(automatic->num_shards(), 1u);
  EXPECT_LE(automatic->num_shards(), 3u);
  EXPECT_EQ(automatic->size(), 3u);
}

TEST(ShardedBuildTest, EmptyCorpusIsRejected) {
  auto engine = ShardedEngine::Build(ts::Corpus(), MakeOptions(1));
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardedBuildTest, DiskShardsStoreUnderPerShardPathsAndEnvs) {
  // One shard: the store gains the ".shard0" suffix like any other shard.
  {
    io::MemEnv env;
    ShardedEngine::Options options = MakeOptions(1);
    options.engine.disk_store_path = "corpus.bin";
    options.engine.env = &env;
    auto engine = ShardedEngine::Build(MakeCorpus(), options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_TRUE(env.FileExists("corpus.bin.shard0"));
    EXPECT_FALSE(env.FileExists("corpus.bin"));
  }

  // Three shards, shard 1 on its own env: its store lands there and only
  // there; shards 0 and 2 fall back to `engine.env`.
  io::MemEnv shared;
  io::MemEnv own;
  ShardedEngine::Options options = MakeOptions(3);
  options.engine.disk_store_path = "corpus.bin";
  options.engine.env = &shared;
  options.shard_envs = {nullptr, &own};
  auto engine = ShardedEngine::Build(MakeCorpus(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE(shared.FileExists("corpus.bin.shard0"));
  EXPECT_FALSE(shared.FileExists("corpus.bin.shard1"));
  EXPECT_TRUE(shared.FileExists("corpus.bin.shard2"));
  EXPECT_TRUE(own.FileExists("corpus.bin.shard1"));
  for (const std::string& path : own.ListFiles()) {
    EXPECT_EQ(path.rfind("corpus.bin.shard1", 0), 0u) << path;
  }

  // The disk-resident shards answer like a RAM-resident build.
  auto ram = ShardedEngine::Build(MakeCorpus(), MakeOptions(3));
  ASSERT_TRUE(ram.ok());
  for (ts::SeriesId id : {0u, 7u, 23u}) {
    auto want = ram->SimilarTo(id, 5);
    auto got = engine->SimilarTo(id, 5);
    ASSERT_TRUE(want.ok() && got.ok()) << got.status().ToString();
    ASSERT_EQ(want->size(), got->size());
    for (size_t i = 0; i < want->size(); ++i) {
      EXPECT_EQ((*want)[i].id, (*got)[i].id);
      EXPECT_EQ((*want)[i].distance, (*got)[i].distance);
    }
  }
}

TEST(ShardedBuildTest, ShardZeroBuildsOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();

  // One shard: the whole build runs on the caller.
  {
    ThreadRecordingEnv env;
    ShardedEngine::Options options = MakeOptions(1);
    options.engine.disk_store_path = "corpus.bin";
    options.engine.env = &env;
    auto engine = ShardedEngine::Build(MakeCorpus(), options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_EQ(env.openers(), std::set<std::thread::id>{caller});
  }

  // Three shards: shard 0 on the caller, shards 1 and 2 on pool workers.
  std::array<ThreadRecordingEnv, 3> envs;
  ShardedEngine::Options options = MakeOptions(3);
  options.engine.disk_store_path = "corpus.bin";
  for (ThreadRecordingEnv& env : envs) options.shard_envs.push_back(&env);
  auto engine = ShardedEngine::Build(MakeCorpus(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(envs[0].openers(), std::set<std::thread::id>{caller});
  for (size_t s = 1; s < envs.size(); ++s) {
    const std::set<std::thread::id> openers = envs[s].openers();
    EXPECT_FALSE(openers.empty()) << "shard " << s;
    EXPECT_FALSE(openers.contains(caller)) << "shard " << s;
  }
}

TEST(ShardedBuildTest, AFailedShardBuildFailsTheWholeBuild) {
  // Shard 0 fails on the calling thread, shard 2 on a pool worker; either
  // way Build reports the shard's error instead of returning an engine
  // with a missing shard.
  for (const size_t failing : {0u, 2u}) {
    SCOPED_TRACE("failing shard " + std::to_string(failing));
    io::MemEnv healthy;
    io::MemEnv base;
    io::FaultPlan plan;
    plan.fail_write_at = 1;
    plan.faults_are_transient = false;
    io::FaultInjectingEnv faulty(&base, plan);

    ShardedEngine::Options options = MakeOptions(3);
    options.engine.disk_store_path = "corpus.bin";
    options.engine.env = &healthy;
    options.shard_envs.assign(3, nullptr);
    options.shard_envs[failing] = &faulty;
    auto engine = ShardedEngine::Build(MakeCorpus(), options);
    ASSERT_FALSE(engine.ok());
    EXPECT_EQ(engine.status().code(), StatusCode::kIoError)
        << engine.status().ToString();
  }
}

}  // namespace
}  // namespace s2::shard
