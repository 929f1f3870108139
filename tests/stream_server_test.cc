// Serving-layer behavior of the streaming subsystem: the append verb's
// locking/caching/metrics contract and WAL acknowledgement ordering
// (validate before logging, log before applying).

#include "service/s2_server.h"

#include <cmath>
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
  std::unique_ptr<S2Server> server = MakeServer(options);

  ASSERT_TRUE(server->AppendPoint(3, 17.5).ok());
  ASSERT_TRUE(server->AppendPoint(3, 18.5).ok());
  ASSERT_TRUE(server->AppendPoint(9, 2.0).ok());

  const auto info = server->stream_info();
  EXPECT_FALSE(info.wal_enabled);
  EXPECT_EQ(info.append_count, 3u);
  EXPECT_EQ(server->metrics().counter("stream_appends")->value(), 3u);
  EXPECT_EQ(server->metrics().histogram("stream_append_latency")->count(), 3u);

  // The slid series answers with its new tail.
  EXPECT_EQ(server->engine().corpus().at(3).values.back(), 18.5);
  EXPECT_TRUE(Query(server.get(), RequestKind::kSimilarTo, 3).status.ok());
}

TEST(StreamServerTest, AppendValidatesBeforeTouchingAnything) {
  S2Server::Options options;
  std::unique_ptr<S2Server> server = MakeServer(options);
  EXPECT_EQ(server->AppendPoint(kNumSeries + 5, 1.0).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(server->AppendPoint(0, std::nan("")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server->stream_info().append_count, 0u);
}

TEST(StreamServerTest, AppendInvalidatesExactlyTheAffectedCacheEntries) {
  S2Server::Options options;
  options.cache_capacity = 64;
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

TEST(StreamServerTest, WalAcknowledgesBeforeApplyAndReplaysOnRestart) {
  io::MemEnv wal_env;
  S2Server::Options options;
  options.wal_path = "server.wal";
  options.wal_env = &wal_env;

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
}

TEST(StreamServerTest, ShardedServerRoutesAppendsToOwnerShards) {
  S2Server::Options options;
  options.shards = 3;
  std::unique_ptr<S2Server> server = MakeServer(options);
  ASSERT_EQ(server->sharded().num_shards(), 3u);

  ASSERT_TRUE(server->AppendPoint(0, 4.0).ok());
  ASSERT_TRUE(server->AppendPoint(1, 4.0).ok());
  ASSERT_TRUE(server->AppendPoint(2, 4.0).ok());

  EXPECT_EQ(server->stream_info().append_count, 3u);
  // Round-robin placement: ids 0, 1, 2 land on three different shards, so
  // each shard applied exactly one append.
  for (size_t s = 0; s < server->sharded().num_shards(); ++s) {
    EXPECT_EQ(server->sharded().shard(s).append_count(), 1u) << "shard " << s;
  }
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
