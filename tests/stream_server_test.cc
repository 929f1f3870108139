// Serving-layer behavior of the streaming subsystem: the append verb's
// locking/caching/metrics contract, WAL acknowledgement ordering (validate
// before logging, log before applying), and threshold-triggered background
// compaction on the maintenance thread.

#include "service/s2_server.h"

#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "io/mem_env.h"
#include "querylog/corpus_generator.h"

namespace s2::service {
namespace {

constexpr size_t kNumSeries = 24;
constexpr size_t kDays = 64;

ts::Corpus MakeCorpus() {
  qlog::CorpusSpec spec;
  spec.num_series = kNumSeries;
  spec.n_days = kDays;
  spec.seed = 303;
  auto corpus = qlog::GenerateCorpus(spec);
  EXPECT_TRUE(corpus.ok());
  return std::move(corpus).ValueOrDie();
}

core::S2Engine::Options EngineOptions() {
  core::S2Engine::Options options;
  options.index.budget_c = 8;
  options.index.leaf_size = 4;
  return options;
}

std::unique_ptr<S2Server> MakeServer(S2Server::Options options) {
  options.scheduler.threads = 1;
  auto server = S2Server::Build(MakeCorpus(), EngineOptions(), options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return std::move(server).ValueOrDie();
}

QueryResponse Query(S2Server* server, RequestKind kind, ts::SeriesId id) {
  QueryRequest request;
  request.kind = kind;
  request.id = id;
  request.k = 5;
  return server->Execute(request);
}

TEST(StreamServerTest, AppendUpdatesStateMetricsAndAnswers) {
  S2Server::Options options;
  options.compaction_threshold = 0;
  std::unique_ptr<S2Server> server = MakeServer(options);

  EXPECT_EQ(server->stream_info().delta_size, 0u);
  ASSERT_TRUE(server->AppendPoint(3, 17.5).ok());
  ASSERT_TRUE(server->AppendPoint(3, 18.5).ok());
  ASSERT_TRUE(server->AppendPoint(9, 2.0).ok());

  const auto info = server->stream_info();
  EXPECT_FALSE(info.wal_enabled);
  EXPECT_EQ(info.delta_size, 2u);  // Two distinct series moved to the delta.
  EXPECT_EQ(info.append_count, 3u);
  EXPECT_EQ(server->metrics().counter("stream_appends")->value(), 3u);
  EXPECT_EQ(server->metrics().histogram("stream_append_latency")->count(), 3u);

  // The slid series answers with its new tail.
  EXPECT_EQ(server->engine().corpus().at(3).values.back(), 18.5);
  EXPECT_TRUE(Query(server.get(), RequestKind::kSimilarTo, 3).status.ok());

  // Manual compaction drains the delta and counts.
  ASSERT_TRUE(server->Compact().ok());
  EXPECT_EQ(server->stream_info().delta_size, 0u);
  EXPECT_EQ(server->stream_info().compaction_count, 1u);
  EXPECT_EQ(server->metrics().counter("stream_compacted_series")->value(), 2u);
  EXPECT_EQ(server->metrics().histogram("stream_compaction_latency")->count(), 1u);
  // An empty delta makes Compact a no-op, not another compaction.
  ASSERT_TRUE(server->Compact().ok());
  EXPECT_EQ(server->stream_info().compaction_count, 1u);
}

TEST(StreamServerTest, AppendValidatesBeforeTouchingAnything) {
  S2Server::Options options;
  std::unique_ptr<S2Server> server = MakeServer(options);
  EXPECT_EQ(server->AppendPoint(kNumSeries + 5, 1.0).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(server->AppendPoint(0, std::nan("")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server->stream_info().append_count, 0u);
  EXPECT_EQ(server->stream_info().delta_size, 0u);
}

TEST(StreamServerTest, AppendInvalidatesExactlyTheAffectedCacheEntries) {
  S2Server::Options options;
  options.cache_capacity = 64;
  options.compaction_threshold = 0;
  std::unique_ptr<S2Server> server = MakeServer(options);

  // Warm the cache: per-series entries for two series plus a cross-series
  // entry for the untouched one.
  ASSERT_TRUE(Query(server.get(), RequestKind::kPeriodsOf, 3).status.ok());
  ASSERT_TRUE(Query(server.get(), RequestKind::kPeriodsOf, 9).status.ok());
  ASSERT_TRUE(Query(server.get(), RequestKind::kSimilarTo, 9).status.ok());
  ASSERT_EQ(server->cache().size(), 3u);

  ASSERT_TRUE(server->AppendPoint(3, 21.0).ok());

  // Survivor: periods of the untouched series 9. Dropped: periods of 3 (its
  // values changed) and the k-NN entry (any top-k may now include the slid
  // series 3).
  EXPECT_EQ(server->cache().size(), 1u);
  EXPECT_TRUE(Query(server.get(), RequestKind::kPeriodsOf, 9).cache_hit);
  EXPECT_FALSE(Query(server.get(), RequestKind::kPeriodsOf, 3).cache_hit);
  EXPECT_FALSE(Query(server.get(), RequestKind::kSimilarTo, 9).cache_hit);
}

TEST(StreamServerTest, BackgroundCompactionFiresPastTheThreshold) {
  S2Server::Options options;
  options.compaction_threshold = 3;
  std::unique_ptr<S2Server> server = MakeServer(options);

  ASSERT_TRUE(server->AppendPoint(1, 5.0).ok());
  ASSERT_TRUE(server->AppendPoint(2, 5.0).ok());
  EXPECT_EQ(server->stream_info().compaction_count, 0u);  // Below threshold.
  ASSERT_TRUE(server->AppendPoint(3, 5.0).ok());

  // The maintenance thread runs asynchronously; poll with a bounded wait.
  bool compacted = false;
  for (int i = 0; i < 200 && !compacted; ++i) {
    const auto info = server->stream_info();
    compacted = info.compaction_count >= 1 && info.delta_size == 0;
    if (!compacted) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(compacted) << "background compaction never drained the delta";
  EXPECT_EQ(server->metrics().counter("stream_compactions")->value(), 1u);
}

TEST(StreamServerTest, BackgroundCompactionNeverStrandsDeltaAboveThreshold) {
  // Regression: appends racing an in-flight background compaction used to be
  // able to push the delta back over the threshold *after* Compact() drained
  // it but *before* the inflight flag cleared — the schedule check saw the
  // flag, skipped, and no later append ever re-triggered (the delta was
  // already over threshold, appends to delta-resident series don't grow it).
  // The maintenance task now re-checks the delta size under the writer lock
  // before retiring, so the delta must always settle below the threshold.
  S2Server::Options options;
  options.compaction_threshold = 4;
  std::unique_ptr<S2Server> server = MakeServer(options);

  constexpr size_t kThreads = 4;
  constexpr size_t kAppendsPerThread = 24;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&server, t] {
      for (size_t i = 0; i < kAppendsPerThread; ++i) {
        // Distinct series per append so the delta genuinely grows while a
        // compaction is in flight.
        const auto id =
            static_cast<ts::SeriesId>((t * kAppendsPerThread + i) % kNumSeries);
        ASSERT_TRUE(server->AppendPoint(id, 1.0 + static_cast<double>(i)).ok());
      }
    });
  }
  for (auto& w : writers) w.join();

  bool settled = false;
  for (int i = 0; i < 500 && !settled; ++i) {
    settled = server->stream_info().delta_size < options.compaction_threshold;
    if (!settled) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(settled) << "delta stranded at " << server->stream_info().delta_size
                       << " >= threshold " << options.compaction_threshold
                       << " with no compaction scheduled";
  EXPECT_GE(server->metrics().counter("stream_compactions")->value(), 1u);
}

TEST(StreamServerTest, WalAcknowledgesBeforeApplyAndReplaysOnRestart) {
  io::MemEnv wal_env;
  S2Server::Options options;
  options.wal_path = "server.wal";
  options.wal_env = &wal_env;
  options.compaction_threshold = 0;

  {
    std::unique_ptr<S2Server> server = MakeServer(options);
    EXPECT_TRUE(server->stream_info().wal_enabled);
    EXPECT_EQ(server->stream_info().replayed_records, 0u);
    ASSERT_TRUE(server->AppendPoint(4, 9.0).ok());
    ASSERT_TRUE(server->AppendPoint(4, 10.0).ok());
    // Rejected appends must leave no poison record behind.
    EXPECT_FALSE(server->AppendPoint(kNumSeries + 1, 1.0).ok());
    EXPECT_FALSE(server->AppendPoint(0, std::nan("")).ok());
  }

  std::unique_ptr<S2Server> revived = MakeServer(options);
  const auto info = revived->stream_info();
  EXPECT_EQ(info.replayed_records, 2u);
  EXPECT_EQ(info.replay_dropped_bytes, 0u);
  EXPECT_EQ(revived->metrics().counter("stream_replay_records")->value(), 2u);
  EXPECT_EQ(revived->engine().corpus().at(4).values.back(), 10.0);
  // Replayed appends live in the delta tier until compaction.
  EXPECT_EQ(info.delta_size, 1u);
}

TEST(StreamServerTest, ShardedServerRoutesAppendsToOwnerShards) {
  S2Server::Options options;
  options.shards = 3;
  options.compaction_threshold = 0;
  std::unique_ptr<S2Server> server = MakeServer(options);
  ASSERT_EQ(server->sharded().num_shards(), 3u);

  ASSERT_TRUE(server->AppendPoint(0, 4.0).ok());
  ASSERT_TRUE(server->AppendPoint(1, 4.0).ok());
  ASSERT_TRUE(server->AppendPoint(2, 4.0).ok());

  const auto info = server->stream_info();
  EXPECT_EQ(info.append_count, 3u);
  EXPECT_EQ(info.delta_size, 3u);
  // Round-robin placement: ids 0, 1, 2 land on three different shards, so
  // each shard's delta holds exactly one series.
  for (size_t s = 0; s < server->sharded().num_shards(); ++s) {
    EXPECT_EQ(server->sharded().shard(s).delta_size(), 1u) << "shard " << s;
  }
  ASSERT_TRUE(server->Compact().ok());
  EXPECT_EQ(server->stream_info().delta_size, 0u);
  ASSERT_TRUE(server->sharded().ValidateInvariants().ok());
}

// With `wal_sync_every > 1` the last few acknowledged appends ride in an
// open fsync group; a clean `Shutdown` must flush that group so a graceful
// restart loses nothing. `DropUnsynced` after the shutdown plays the role
// of the machine stopping right after the process exits — only what was
// fsynced survives.
TEST(StreamServerTest, GracefulShutdownFlushesTheOpenSyncGroup) {
  io::MemEnv wal_env;
  S2Server::Options options;
  options.wal_path = "server.wal";
  options.wal_env = &wal_env;
  options.compaction_threshold = 0;
  options.wal_sync_every = 8;

  {
    std::unique_ptr<S2Server> server = MakeServer(options);
    // 5 appends: fewer than the sync group, so none of them has forced an
    // fsync yet when the server stops.
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(server->AppendPoint(4, 100.0 + i).ok());
    }
    server->Shutdown();
  }
  ASSERT_TRUE(wal_env.DropUnsynced().ok());

  std::unique_ptr<S2Server> revived = MakeServer(options);
  const auto info = revived->stream_info();
  EXPECT_EQ(info.replayed_records, 5u);
  EXPECT_EQ(info.replay_dropped_bytes, 0u);
  EXPECT_EQ(revived->engine().corpus().at(4).values.back(), 104.0);
}

}  // namespace
}  // namespace s2::service
